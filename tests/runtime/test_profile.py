"""Direct coverage for :mod:`repro.runtime.profile`.

The profiler was previously exercised only transitively (through
``GanaPipeline.run(profile=True)``); these tests pin its accumulation
semantics — additive stage timing, max-vs-additive definition fields,
seconds-descending report ordering — and the JSON round-trip.
"""

from __future__ import annotations

import json

import pytest

from repro.core.stages import StageName
from repro.runtime.profile import PipelineProfiler, TemplateStats


class TestStageTiming:
    def test_record_stage_is_additive(self):
        profiler = PipelineProfiler()
        profiler.record_stage("post1", 0.25)
        profiler.record_stage("post1", 0.5)
        assert profiler.stages["post1"] == pytest.approx(0.75)

    def test_record_stage_accepts_enum_and_stores_value(self):
        profiler = PipelineProfiler()
        profiler.record_stage(StageName.GCN, 0.1)
        profiler.record_stage(StageName.GCN.value, 0.1)
        assert set(profiler.stages) == {"gcn"}
        assert profiler.stages["gcn"] == pytest.approx(0.2)

    def test_stage_contextmanager_times_block(self):
        profiler = PipelineProfiler()
        with profiler.stage("graph"):
            pass
        assert profiler.stages["graph"] >= 0.0
        # re-entry is additive, not replacing
        before = profiler.stages["graph"]
        with profiler.stage("graph"):
            pass
        assert profiler.stages["graph"] >= before

    def test_stage_records_on_exception(self):
        profiler = PipelineProfiler()
        with pytest.raises(RuntimeError):
            with profiler.stage("gcn"):
                raise RuntimeError("boom")
        assert "gcn" in profiler.stages


class TestTemplateStats:
    def test_launches_accumulate(self):
        profiler = PipelineProfiler()
        profiler.record_template("DP-N", 0.1, matches=2)
        profiler.record_template("DP-N", 0.3, matches=1)
        stats = profiler.templates["DP-N"]
        assert stats.launches == 2
        assert stats.matches == 3
        assert stats.seconds == pytest.approx(0.4)

    def test_skips_do_not_count_as_launches(self):
        profiler = PipelineProfiler()
        profiler.record_template_skip("CM-N")
        profiler.record_template_skip("CM-N")
        stats = profiler.templates["CM-N"]
        assert stats == TemplateStats(launches=0, matches=0, skips=2)

    def test_counters_accumulate(self):
        profiler = PipelineProfiler()
        profiler.count("cccs")
        profiler.count("cccs", 3)
        assert profiler.counters == {"cccs": 4}


class TestReporting:
    def test_templates_sorted_by_seconds_descending(self):
        profiler = PipelineProfiler()
        profiler.record_template("cheap", 0.01, matches=0)
        profiler.record_template("hot", 2.0, matches=5)
        profiler.record_template("mid", 0.5, matches=1)
        assert list(profiler.as_dict()["per_template"]) == [
            "hot",
            "mid",
            "cheap",
        ]

    def test_definitions_key_absent_when_flat_run(self):
        profiler = PipelineProfiler()
        profiler.record_stage("gcn", 0.1)
        assert set(profiler.as_dict()) == {"stages", "per_template", "counters"}

    def test_write_json_round_trips(self, tmp_path):
        profiler = PipelineProfiler()
        profiler.record_stage(StageName.POST1, 0.123456789)
        profiler.record_template("DP-N", 0.1, matches=2)
        profiler.count("components", 2)
        out = profiler.write_json(tmp_path / "profile.json")
        loaded = json.loads(out.read_text())
        assert loaded == profiler.as_dict()
        # rounding to microseconds happens at report time
        assert loaded["stages"]["post1"] == 0.123457


class TestPipelineIntegration:
    def test_profiled_run_exposes_stage_and_template_sections(
        self, quick_ota_annotator
    ):
        from repro.core.pipeline import GanaPipeline
        from tests.conftest import DIFF_OTA_DECK

        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        result = pipeline.run(DIFF_OTA_DECK, profile=True)
        assert result.profile is not None
        assert set(result.timings) <= set(result.profile["stages"])
        assert result.profile["per_template"]
