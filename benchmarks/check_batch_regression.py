"""CI smoke check: batched GCN training must stay fast.

Trains the quick OTA recognition spec twice from one seed — once with
block-diagonal packed minibatches (``train``, the only production
path) and once with the per-sample reference loop
(``repro.testing.reference.train_per_sample``) — and fails when

* the packed path is not ``--min-speedup`` (default 1.5x) faster than
  the per-sample loop, or
* the packed training wall-clock exceeds ``--factor`` (default 2x)
  times the committed ``gcn_batching.quick_spec`` baseline in
  ``BENCH_runtime.json``, or
* the two runs' curves diverge (the packed path is numerically
  equivalent to the reference by construction — a divergence means the
  speedup is coming from doing different math).

Read-only: the committed ``gcn_batching`` section is written by
``bench_runtime.py`` (``bench_runtime_gcn_batching``), which reuses
:func:`measure` below across a batch-size sweep.

Usage::

    PYTHONPATH=src python benchmarks/check_batch_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"

#: The "OTA quick spec" both runs train: the dataset/model sizes of
#: ``pretrain_annotator(task="ota", quick=True)``, with early stopping
#: off (``patience=0``) so both paths run the same fixed epoch count
#: and the wall-clock ratio is a pure throughput comparison.
TRAIN_SIZE = 72
EPOCHS = 10
BATCH_SIZE = 8
SEED = 13


def committed_baseline() -> float | None:
    try:
        data = json.loads(BENCH_JSON.read_text())
        return float(data["gcn_batching"]["quick_spec"]["batched_seconds"])
    except (OSError, KeyError, ValueError):
        return None


def measure(reps: int = 2, batch_size: int = BATCH_SIZE) -> dict:
    """Train the quick OTA spec batched and per-sample; best-of reps.

    Alternates the two paths inside each rep, so after the first rep
    both see identical warm state (the per-sample first-layer Chebyshev
    basis memo is shared — the packed path seeds the per-sample entries
    and vice versa); best-of therefore excludes one-time setup from the
    ratio.  Curve parity is asserted on every rep.
    """
    import numpy as np

    from repro.datasets.synth import (
        build_samples,
        generate_ota_bias_dataset,
        task_classes,
        train_validation_split,
    )
    from repro.gcn.model import GCNConfig, GCNModel
    from repro.gcn.train import TrainConfig, train
    from repro.testing.reference import train_per_sample

    classes = task_classes("ota")
    dataset = generate_ota_bias_dataset(
        TRAIN_SIZE, seed=(SEED, "gcn-batching"), workers=1
    )
    samples = build_samples(dataset, classes, levels=2, workers=1)
    train_samples, val_samples = train_validation_split(
        samples, validation_fraction=0.2, seed=SEED
    )
    model_config = GCNConfig(
        n_classes=len(classes),
        filter_size=8,
        channels=(16, 32),
        fc_size=64,
        seed=SEED,
    )

    def run(train_fn):
        model = GCNModel(model_config)
        config = TrainConfig(
            epochs=EPOCHS,
            batch_size=batch_size,
            patience=0,
            seed=SEED,
        )
        start = time.perf_counter()
        history = train_fn(model, train_samples, val_samples, config)
        return time.perf_counter() - start, history

    batched_seconds = per_sample_seconds = float("inf")
    batched_history = per_sample_history = None
    for _ in range(max(1, reps)):
        seconds, batched_history = run(train)
        batched_seconds = min(batched_seconds, seconds)
        seconds, per_sample_history = run(train_per_sample)
        per_sample_seconds = min(per_sample_seconds, seconds)
        # Numerical-equivalence gate: a speedup that changes the
        # training trajectory is a bug, not an optimization.
        np.testing.assert_allclose(
            batched_history.train_loss,
            per_sample_history.train_loss,
            rtol=1e-7,
        )
        np.testing.assert_allclose(
            batched_history.val_accuracy,
            per_sample_history.val_accuracy,
            atol=1e-9,
        )
        assert batched_history.best_epoch == per_sample_history.best_epoch

    best = batched_history.best_epoch
    return {
        "task": "ota",
        "train_size": TRAIN_SIZE,
        "epochs": EPOCHS,
        "batch_size": batch_size,
        "seed": SEED,
        "per_sample_seconds": per_sample_seconds,
        "batched_seconds": batched_seconds,
        "speedup": per_sample_seconds / max(batched_seconds, 1e-9),
        "epochs_per_second_batched": EPOCHS / max(batched_seconds, 1e-9),
        "epochs_per_second_per_sample": EPOCHS / max(per_sample_seconds, 1e-9),
        "best_epoch": best,
        "best_val_accuracy": batched_history.val_accuracy[best],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when batched is not MIN_SPEEDUP times faster (default 1.5)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when batched training exceeds FACTOR times the "
        "committed gcn_batching quick-spec baseline (default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="training runs per path; the fastest is compared (default 3)",
    )
    args = parser.parse_args(argv)

    baseline = committed_baseline()
    stats = measure(args.reps)
    print(
        "gcn batching: per-sample {per_sample_seconds:.4f}s vs batched "
        "{batched_seconds:.4f}s ({speedup:.2f}x, floor "
        "{floor:.1f}x; best val acc {best_val_accuracy:.4f})".format(
            floor=args.min_speedup, **stats
        )
    )

    if stats["speedup"] < args.min_speedup:
        print("FAIL: batched training lost its speedup floor")
        return 1
    if baseline is None:
        print("no committed gcn_batching baseline; skipping the ratio check")
    else:
        ratio = stats["batched_seconds"] / baseline
        print(
            f"vs committed baseline {baseline:.4f}s: {ratio:.2f}x "
            f"(limit {args.factor:.1f}x)"
        )
        if ratio > args.factor:
            print("FAIL: batched training regressed beyond the allowed factor")
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
