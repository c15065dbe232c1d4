"""The benchmark's four workloads.

Each workload generates its inputs from the seed in :meth:`setup`,
then :meth:`op` performs one timed call on them and returns an
:class:`Op`.  The program only ever sees the generated SPICE text,
port labels and training samples.

* ``pa64_flat`` — a 64-channel phased array as flat SPICE through
  ``GanaPipeline.run`` (post1-bound: per-CCC setup and VF2 matching).
* ``pa64_hier`` — the repeated-subckt phased array through
  ``run(hier=True)``: definition matches replay per instance.
* ``fleet_ota`` — 128 small OTA decks through ``run_many`` on the
  worker pool: per-deck fixed cost and packed GCN inference.
* ``train_ota`` — the paper's Fig. 4 GCN trained for a fixed number of
  epochs with checkpoints: backward passes and optimizer writes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import GanaPipeline
from repro.core.stages import pipeline_result_fingerprint
from repro.datasets.ota import generate_ota, ota_variants
from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.datasets.systems import phased_array, phased_array_hier
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.samples import train_validation_split
from repro import gcn
from repro.gcn.train import FaultTolerance
from repro.runtime.resilience import FailureReport
from repro.spice.writer import write_circuit, write_netlist

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
#: The seed ``goldens.json`` is recorded from.
GOLDEN_SEED = 0
#: Golden loss curves are compared to this relative tolerance.
LOSS_RTOL = 1e-6

PA_CHANNELS = 64
FLEET_SIZE = 128
TRAIN_SAMPLES = 160
TRAIN_EPOCHS = 5
CHECKPOINT_EVERY = 5
#: Paper Fig. 4: filter size 32, two conv layers of 32/64 channels,
#: a 512-wide fully connected layer, minibatches of 8.
FIG4 = dict(filter_size=32, channels=(32, 64), fc_size=512)
SCALING_CHANNELS = (2, 8, 16, 32, 64)


@dataclass
class Op:
    """One timed call: how long it took and what it produced."""

    seconds: float
    #: Work units completed: decks, or training epochs.
    items: int
    #: Operations attempted inside the call (decks, or training runs).
    attempted: int
    #: Failure descriptions; each one fails one attempted operation.
    problems: list[str] = field(default_factory=list)
    accuracy: float | None = None
    #: Per-deck hierarchy counters (``pa64_hier`` only).
    hier: dict[str, int] = field(default_factory=dict)


@dataclass
class DeckInputs:
    """Generated decks: SPICE text plus testbench port labels."""

    texts: list[str]
    port_labels: list[dict[str, str]]
    #: The generators' labelled circuits (ground truth), when they have one.
    systems: list = field(default_factory=list)

    def digest(self) -> str:
        digest = hashlib.sha256()
        for text, labels in zip(self.texts, self.port_labels):
            digest.update(text.encode())
            digest.update(json.dumps(labels, sort_keys=True).encode())
        return digest.hexdigest()


@dataclass
class TrainInputs:
    config: GCNConfig
    train_samples: list
    val_samples: list

    def digest(self) -> str:
        digest = hashlib.sha256(repr(self.config).encode())
        for sample in self.train_samples + self.val_samples:
            for array in (sample.features, sample.labels, sample.mask):
                digest.update(array.tobytes())
        return digest.hexdigest()


def pa64_flat_inputs(seed: int) -> DeckInputs:
    system = phased_array(n_channels=PA_CHANNELS, seed=seed)
    return DeckInputs(
        [write_circuit(system.circuit)], [dict(system.port_labels)], [system]
    )


def pa64_hier_inputs(seed: int) -> DeckInputs:
    netlist, port_labels = phased_array_hier(n_channels=PA_CHANNELS, seed=seed)
    return DeckInputs([write_netlist(netlist)], [port_labels])


def fleet_inputs(seed: int) -> DeckInputs:
    specs = ota_variants(FLEET_SIZE, seed=("perfbench-fleet", seed))
    systems = [
        generate_ota(spec, name=f"ota{index}")
        for index, spec in enumerate(specs)
    ]
    return DeckInputs(
        [write_circuit(s.circuit) for s in systems],
        [dict(s.port_labels) for s in systems],
        systems,
    )


def train_inputs(seed: int) -> TrainInputs:
    classes = task_classes("ota")
    config = GCNConfig(n_classes=len(classes), seed=0, **FIG4)
    dataset = generate_ota_bias_dataset(
        TRAIN_SAMPLES, seed=("perfbench-train", seed), workers=1
    )
    samples = build_samples(
        dataset, classes, levels=config.levels_needed or 2, workers=1
    )
    train_samples, val_samples = train_validation_split(
        samples, validation_fraction=0.2, seed=0
    )
    return TrainInputs(config, train_samples, val_samples)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


def class_digest(result) -> str:
    """Cheap digest of a result's class assignments (GCN and final)."""
    digest = hashlib.sha256()
    digest.update(result.gcn_annotation.vertex_classes.tobytes())
    digest.update(result.post1.annotation.vertex_classes.tobytes())
    digest.update(result.post2.annotation.vertex_classes.tobytes())
    return digest.hexdigest()


def _result_problems(result) -> list[str]:
    if isinstance(result, FailureReport):
        return [result.summary()]
    if result.degraded:
        return [f"degraded: {result.degraded_reason}"]
    return []


class Workload:
    """Shared shape: ``setup`` once, ``op`` repeatedly, ``checks`` once."""

    name = ""
    item = ""

    def __init__(self, seed: int, workers: int, workdir: Path) -> None:
        self.seed = seed
        self.workers = workers
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def checks(self) -> list[str]:
        """Reference checks run once after the timed window."""
        return []

    def reference(self) -> dict:
        """What ``goldens.json`` pins for this workload (if anything),
        with the digest of the inputs it was produced from."""
        return {}


class Pa64Flat(Workload):
    name = "pa64_flat"
    item = "deck"

    def setup(self) -> None:
        self.pipeline = GanaPipeline.pretrained("rf", quick=True)
        inputs = pa64_flat_inputs(self.seed)
        self.inputs_digest = inputs.digest()
        self.text, self.port_labels = inputs.texts[0], inputs.port_labels[0]
        self.first = self._run()
        self.truth = inputs.systems[0].truth(self.first.graph)
        self.first_digest = class_digest(self.first)

    def _run(self):
        return self.pipeline.run(self.text, port_labels=self.port_labels)

    def op(self) -> Op:
        start = time.perf_counter()
        result = self._run()
        seconds = time.perf_counter() - start
        problems = _result_problems(result)
        if class_digest(result) != self.first_digest:
            problems.append("classes differ from the first run of this deck")
        return Op(
            seconds, 1, 1, problems,
            accuracy=result.post2.annotation.accuracy(self.truth),
        )

    @functools.cached_property
    def fingerprint(self) -> str:
        """``pipeline_result_fingerprint`` of the first run (slow: ~1.5 s
        on a 64-channel deck, so once per run)."""
        return pipeline_result_fingerprint(self.first)

    def reference(self) -> dict:
        return {"inputs": self.inputs_digest, "fingerprint": self.fingerprint}


class Pa64Hier(Pa64Flat):
    name = "pa64_hier"

    def setup(self) -> None:
        self.pipeline = GanaPipeline.pretrained("rf", quick=True)
        inputs = pa64_hier_inputs(self.seed)
        self.inputs_digest = inputs.digest()
        self.text, self.port_labels = inputs.texts[0], inputs.port_labels[0]
        self.first = self._run()
        self.first_digest = class_digest(self.first)
        self.flat_classes = None

    def _run(self, hier: bool = True):
        return self.pipeline.run(
            self.text, port_labels=self.port_labels, hier=hier
        )

    def op(self) -> Op:
        start = time.perf_counter()
        result = self._run()
        seconds = time.perf_counter() - start
        problems = _result_problems(result)
        if class_digest(result) != self.first_digest:
            problems.append("classes differ from the first run of this deck")
        report = result.hier
        return Op(
            seconds, 1, 1, problems,
            accuracy=self._flat_agreement(result),
            hier={
                "interior": report.interior,
                "reused": report.reused,
                "replayed": report.replayed,
                "guard_failures": report.guard_failures,
            },
        )

    def _flat_agreement(self, result) -> float:
        """Share of vertices whose final class equals the flat path's
        (the deck has no generator ground truth; flat is the reference)."""
        if self.flat_classes is None:
            self.flat = self._run(hier=False)
            self.flat_classes = self.flat.post2.annotation.vertex_classes
        ours = result.post2.annotation.vertex_classes
        if ours.shape != self.flat_classes.shape:
            return 0.0
        return float(np.mean(ours == self.flat_classes))

    def checks(self) -> list[str]:
        self._flat_agreement(self.first)
        if self.fingerprint != pipeline_result_fingerprint(self.flat):
            return ["hier result fingerprint differs from the flat run"]
        return []


class FleetOta(Workload):
    name = "fleet_ota"
    item = "deck"

    def setup(self) -> None:
        self.pipeline = GanaPipeline.pretrained("ota", quick=True)
        inputs = fleet_inputs(self.seed)
        self.texts, self.port_labels = inputs.texts, inputs.port_labels
        # The first call starts the worker pool.
        self.first = self._run(self.workers)
        self.truths = [
            system.truth(result.graph)
            for system, result in zip(inputs.systems, self.first)
        ]
        self.first_digests = [class_digest(r) for r in self.first]

    def _run(self, workers: int):
        return self.pipeline.run_many(
            self.texts,
            port_labels=self.port_labels,
            workers=workers,
            on_error="report",
        )

    def op(self, workers: int | None = None) -> Op:
        start = time.perf_counter()
        results = self._run(workers or self.workers)
        seconds = time.perf_counter() - start
        problems: list[str] = []
        accuracies = []
        for index, result in enumerate(results):
            found = _result_problems(result)
            if not found and class_digest(result) != self.first_digests[index]:
                found = [f"deck {index}: classes differ from the first call"]
            problems.extend(found)
            if not isinstance(result, FailureReport):
                accuracies.append(
                    result.post2.annotation.accuracy(self.truths[index])
                )
        return Op(
            seconds, len(results), len(results), problems,
            accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
        )

    def checks(self) -> list[str]:
        problems = []
        for index, text in enumerate(self.texts):
            serial = self.pipeline.run(text, port_labels=self.port_labels[index])
            if class_digest(serial) != self.first_digests[index]:
                problems.append(
                    f"deck {index}: run_many classes differ from serial run()"
                )
        return problems


class TrainOta(Workload):
    name = "train_ota"
    item = "epoch"

    def setup(self) -> None:
        self.inputs = train_inputs(self.seed)
        self.runs = 0
        # One epoch fills every sample's first-layer Chebyshev memo.
        self._train(epochs=1)
        self.first_history = None

    def _train(self, epochs: int):
        self.runs += 1
        directory = Path(
            tempfile.mkdtemp(prefix=f"ckpt{self.runs}-", dir=self.workdir)
        )
        try:
            start = time.perf_counter()
            # Called through the module so a traced run's wrapper sees it.
            history = gcn.train(
                GCNModel(self.inputs.config),
                self.inputs.train_samples,
                self.inputs.val_samples,
                gcn.TrainConfig(
                    epochs=epochs, batch_size=8, patience=0, seed=0
                ),
                fault=FaultTolerance(
                    checkpoint_dir=directory,
                    checkpoint_every=CHECKPOINT_EVERY,
                ),
            )
            return time.perf_counter() - start, history
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def op(self) -> Op:
        seconds, history = self._train(TRAIN_EPOCHS)
        problems = []
        if history.degraded or history.rollbacks:
            problems.append(f"training diverged ({history.rollbacks} rollbacks)")
        if self.first_history is None:
            self.first_history = history
        elif history.train_loss != self.first_history.train_loss:
            problems.append("loss curve differs from the first training run")
        return Op(
            seconds, len(history.train_loss), 1, problems,
            accuracy=history.best_val_accuracy,
        )

    def reference(self) -> dict:
        history = self.first_history
        return {
            "inputs": self.inputs.digest(),
            "train_loss": history.train_loss,
            "val_accuracy": history.val_accuracy,
        }


WORKLOADS = {w.name: w for w in (Pa64Flat, Pa64Hier, FleetOta, TrainOta)}


def golden_problems(name: str, reference: dict, goldens: dict) -> list[str]:
    """Compare a workload's reference outputs with the committed goldens.

    A golden applies to the exact inputs it was recorded from, whatever
    seed produced them (the phased-array generators draw no seeded
    choices, so their decks are the same for every seed)."""
    expected = goldens.get(name)
    if not expected or expected["inputs"] != reference["inputs"]:
        return []
    if "fingerprint" in expected:
        if reference["fingerprint"] != expected["fingerprint"]:
            return [f"{name}: result fingerprint differs from the golden"]
        return []
    problems = []
    for key in ("train_loss", "val_accuracy"):
        got, want = np.asarray(reference[key]), np.asarray(expected[key])
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=LOSS_RTOL, atol=0.0
        ):
            problems.append(f"{name}: {key} differs from the golden curve")
    return problems


def scaling_table(pipeline, seed: int, reps: int = 3) -> list[dict]:
    """Median untraced deck seconds against graph vertices for flat
    phased arrays of :data:`SCALING_CHANNELS` channels."""
    rows = []
    for channels in SCALING_CHANNELS:
        system = phased_array(n_channels=channels, seed=seed)
        text = write_circuit(system.circuit)
        labels = dict(system.port_labels)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            result = pipeline.run(text, port_labels=labels)
            times.append(time.perf_counter() - start)
        rows.append(
            {
                "channels": channels,
                "vertices": result.graph.n_vertices,
                "deck_s": float(np.median(times)),
            }
        )
    return rows
