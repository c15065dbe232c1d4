"""Shared benchmark infrastructure.

* **Scale** — ``REPRO_SCALE=paper`` (default) reproduces the paper's
  dataset sizes and training budget; ``REPRO_SCALE=quick`` shrinks
  everything for smoke runs.
* **Model cache** — trained recognition models go through the runtime
  model cache (:mod:`repro.runtime.cache`; ``~/.cache/gana`` or
  ``GANA_CACHE_DIR``), so the first benchmark run pays for training
  once and later runs (and other benchmarks, and the CLI) reuse it.
* **Results** — every benchmark writes its reproduced table/figure to
  ``benchmarks/results/<name>.txt`` and prints it, so the numbers
  survive pytest's output capture.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from repro.core.annotator import GcnAnnotator
from repro.core.pipeline import GanaPipeline
from repro.datasets.synth import pretrain_annotator

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Committed perf trajectory — each section is updated in place by the
#: corresponding benchmark/check, so numbers from different runs coexist.
BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"

SCALE = os.environ.get("REPRO_SCALE", "paper")
PAPER = SCALE != "quick"


def update_bench_json(section: str, payload: dict) -> None:
    """Rewrite one section of ``BENCH_runtime.json`` in place."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    data["host"] = {"cpu_count": os.cpu_count(), "scale": SCALE}
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def per_ccc_matching():
    """Run Postprocessing I through
    :func:`repro.testing.reference.per_ccc_annotate_components` (no
    CCC shape sharing) — the slow side of the post1 speedup gates."""
    from repro.core import postprocess
    from repro.testing.reference import per_ccc_annotate_components

    production = postprocess.annotate_components
    postprocess.annotate_components = per_ccc_annotate_components
    try:
        yield
    finally:
        postprocess.annotate_components = production


#: Dataset/training sizes per scale.
OTA_TRAIN = 624 if PAPER else 80
RF_TRAIN = 608 if PAPER else 80
OTA_TEST = 168 if PAPER else 24
RF_TEST = 105 if PAPER else 16
EPOCHS = 60 if PAPER else 12


def load_annotator(task: str) -> GcnAnnotator:
    """Train (or load from the runtime cache) the task's model."""
    return pretrain_annotator(task, quick=not PAPER)


def load_pipeline(task: str) -> GanaPipeline:
    return GanaPipeline(annotator=load_annotator(task))


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n=== {name} ===\n{text}")
