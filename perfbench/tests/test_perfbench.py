"""The benchmark's own tests: seeded inputs, golden checks, and a traced
run that leaves no wrapper behind."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import report
import run
import spans
import workloads
from repro import GanaPipeline
from repro.core.stages import pipeline_result_fingerprint

ROOT = Path(run.ROOT)


def _sample_bytes(samples) -> list[bytes]:
    return [
        s.features.tobytes() + s.labels.tobytes() + s.mask.tobytes()
        + b"".join(lap.toarray().tobytes() for lap in s.pyramid.laplacians)
        for s in samples
    ]


class TestSeededInputs:
    def test_decks_repeat_byte_for_byte(self):
        for make in (
            workloads.pa64_flat_inputs,
            workloads.pa64_hier_inputs,
            workloads.fleet_inputs,
        ):
            first, second = make(3), make(3)
            assert first.texts == second.texts
            assert first.port_labels == second.port_labels
            assert first.digest() == second.digest()
        # The phased-array generators draw no seeded choices; the fleet
        # is where the seed shows.
        assert workloads.fleet_inputs(3).texts != workloads.fleet_inputs(4).texts

    def test_training_samples_repeat_byte_for_byte(self):
        first, second = workloads.train_inputs(3), workloads.train_inputs(3)
        for split in ("train_samples", "val_samples"):
            assert _sample_bytes(getattr(first, split)) == _sample_bytes(
                getattr(second, split)
            )
        assert first.digest() == second.digest()
        assert first.digest() != workloads.train_inputs(4).digest()


class TestGoldens:
    def test_flipped_class_fails_the_golden(self, tmp_path):
        workload = workloads.Pa64Flat(workloads.GOLDEN_SEED, 1, tmp_path)
        workload.setup()
        goldens = workloads.load_goldens()
        assert workloads.golden_problems(
            workload.name, workload.reference(), goldens
        ) == []
        classes = workload.first.post2.annotation.vertex_classes
        classes[0] = (classes[0] + 1) % len(workload.pipeline.class_names)
        del workload.fingerprint  # recompute it for the perturbed result
        assert workloads.golden_problems(
            workload.name, workload.reference(), goldens
        )
        # The per-call check catches it too: the flipped result no
        # longer matches a fresh run of the same deck.
        assert workloads.class_digest(workload.first) != workloads.class_digest(
            workload._run()
        )

    def test_perturbed_loss_curve_fails_the_golden(self):
        expected = workloads.load_goldens()["train_ota"]
        assert expected["inputs"] == workloads.train_inputs(
            workloads.GOLDEN_SEED
        ).digest()
        reference = json.loads(json.dumps(expected))
        assert workloads.golden_problems("train_ota", reference,
                                         {"train_ota": expected}) == []
        reference["train_loss"][3] *= 1 + 1e-4
        assert workloads.golden_problems("train_ota", reference,
                                         {"train_ota": expected})


class TestTracer:
    @pytest.fixture(scope="class")
    def deck(self):
        inputs = workloads.fleet_inputs(0)
        return inputs.texts[0], inputs.port_labels[0]

    def _bindings(self):
        found = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("repro"):
                for attr, value in vars(module).items():
                    if callable(value):
                        found[(name, attr)] = value
                    if isinstance(value, type):
                        for key, member in vars(value).items():
                            found[(name, attr, key)] = member
        return found

    def test_wrappers_are_removed_after_a_traced_run(self, deck):
        text, labels = deck
        pipeline = GanaPipeline.pretrained("ota", quick=True)
        expected = pipeline_result_fingerprint(
            pipeline.run(text, port_labels=labels)
        )
        before = self._bindings()

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = pipeline.run(text, port_labels=labels)
        finally:
            tracer.remove()
        names = {span[0] for span in tracer.spans}
        assert {"core.run", "core.stage.post1", "primitives.match",
                "gcn.forward", "spice.parse"} <= names
        assert pipeline_result_fingerprint(traced) == expected
        assert tracer.missing == []

        after = self._bindings()
        changed = [key for key in before if after.get(key) is not before[key]]
        assert changed == []
        assert not any(
            hasattr(value, "__perfbench_original__") for value in after.values()
        )
        recorded = len(tracer.spans)
        untraced = pipeline.run(text, port_labels=labels)
        assert len(tracer.spans) == recorded
        assert pipeline_result_fingerprint(untraced) == expected

    def test_self_time_never_exceeds_total(self, deck):
        text, labels = deck
        pipeline = GanaPipeline.pretrained("ota", quick=True)
        tracer = spans.Tracer()
        tracer.install()
        try:
            pipeline.run(text, port_labels=labels)
        finally:
            tracer.remove()
        for calls, total, own in tracer.totals().values():
            assert calls >= 1 and 0 <= own <= total + 1e-9
        events = tracer.chrome_events()
        assert {e["ph"] for e in events} == {"X"}
        assert len(events) == len(tracer.spans)


class TestContract:
    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(
            run.WORKLOAD_NAMES
        )
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
            name: unit for name, (unit, _) in run.END_TO_END.items()
        }
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: unit for name, (unit, _) in report.PER_LAYER.items()
        }

    def test_without_the_program_it_fails_fast(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pa64_flat",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout

    def test_per_layer_values_cover_every_metric(self):
        tracer = spans.Tracer()
        values = report.per_item_layers("pa64_flat", tracer, 1, {})
        assert set(values) == set(report.PER_LAYER)
        assert all(np.isfinite(v) for v in values.values())
