"""Hierarchy-scoped annotation (ISSUE 9).

Golden byte-identity: the ``--hier`` path must produce exactly the
annotation the flat path computes on every example netlist.  Plus: the
design-tree report, match entries shared with the flat path,
definition-keyed summary persistence and invalidation, advisory
per-definition GCN summaries, the instance-table hierarchy mode, and
rail conventions that never outlive a run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GanaPipeline
from repro.core.stages import StageName, pipeline_result_fingerprint
from repro.datasets.systems import phased_array_hier
from repro.runtime.cache import ArtifactCache
from repro.spice.flatten import flatten_hierarchical
from repro.spice.parser import parse_netlist
from tests.conftest import HIERARCHICAL_DECK
from tests.core.test_stages import (
    OTA_CASES,
    RF_CASES,
    _assert_results_equivalent,
)

#: Three identical OTA cells plus one glue mirror — small enough for
#: quick tests, repeated enough that the hier path actually reuses.
OTA_ARRAY_DECK = """
* three identical ota cells
.global vdd! gnd!
.subckt otacell vinp vinn voutp voutn
m0 n1 n1 gnd! gnd! nmos w=1u l=100n
m1 id n1 gnd! gnd! nmos w=1u l=100n
m2 voutn vinp id gnd! nmos w=2u l=100n
m3 voutp vinn id gnd! nmos w=2u l=100n
m4 voutn vbp vdd! vdd! pmos w=4u l=100n
m5 voutp vbp vdd! vdd! pmos w=4u l=100n
.ends
x0 a0 b0 c0 d0 otacell
x1 a1 b1 c1 d1 otacell
x2 a2 b2 c2 d2 otacell
mglue ng ng gnd! gnd! nmos w=1u l=100n
.end
"""


@pytest.fixture(scope="module")
def ota_pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def rf_pipeline(quick_rf_annotator):
    return GanaPipeline(annotator=quick_rf_annotator)


class TestGoldenIdentity:
    """``run(hier=True)`` ≡ ``run()`` on every example netlist."""

    @pytest.mark.parametrize("case", sorted(OTA_CASES))
    def test_ota_examples(self, ota_pipeline, case):
        netlist, kwargs = OTA_CASES[case]()
        hier = ota_pipeline.run(netlist, name=case, hier=True, **kwargs)
        flat = ota_pipeline.run(netlist, name=case, **kwargs)
        _assert_results_equivalent(hier, flat)

    @pytest.mark.parametrize("case", sorted(RF_CASES))
    def test_rf_examples(self, rf_pipeline, case):
        netlist, kwargs = RF_CASES[case]()
        hier = rf_pipeline.run(netlist, name=case, hier=True, **kwargs)
        flat = rf_pipeline.run(netlist, name=case, **kwargs)
        _assert_results_equivalent(hier, flat)

    def test_ota_array(self, ota_pipeline):
        hier = ota_pipeline.run(OTA_ARRAY_DECK, hier=True)
        flat = ota_pipeline.run(OTA_ARRAY_DECK)
        _assert_results_equivalent(hier, flat)

    def test_phased_array_hier(self, rf_pipeline):
        netlist, port_labels = phased_array_hier(n_channels=2)
        hier = rf_pipeline.run(
            netlist, port_labels=port_labels, hier=True, name="pa"
        )
        flat = rf_pipeline.run(netlist, port_labels=port_labels, name="pa")
        _assert_results_equivalent(hier, flat)

    def test_lenient_mode_identical(self, ota_pipeline):
        deck = OTA_ARRAY_DECK.replace(
            ".end\n", "xbad z1 z2 nosuchcell\n.end\n"
        )
        hier = ota_pipeline.run(deck, mode="lenient", hier=True)
        flat = ota_pipeline.run(deck, mode="lenient")
        _assert_results_equivalent(hier, flat)
        assert hier.diagnostics


class TestExampleNetlistIdentity:
    """Acceptance: hier ≡ flat on every deck under examples/netlists/."""

    def test_example_deck(self, ota_pipeline, example_deck_path):
        text = example_deck_path.read_text()
        hier = ota_pipeline.run(text, name=example_deck_path.stem, hier=True)
        flat = ota_pipeline.run(text, name=example_deck_path.stem)
        _assert_results_equivalent(hier, flat)


class TestHierReport:
    def test_flat_run_has_no_report(self, ota_pipeline):
        assert ota_pipeline.run(OTA_ARRAY_DECK).hier is None

    def test_reuse_on_repeated_instances(self, ota_pipeline):
        # Repeated instances share VF2 work through the flat matcher's
        # CCC shapes, reported by the profiler for hier and flat alike.
        hier = ota_pipeline.run(OTA_ARRAY_DECK, hier=True, profile=True)
        flat = ota_pipeline.run(OTA_ARRAY_DECK, profile=True)
        report = hier.hier
        assert report is not None
        assert report.n_definitions == 1
        assert report.n_instances == 3
        assert report.n_unique_groups == 1
        counters = hier.profile["counters"]
        assert counters["ccc_shape_hits"] > 0
        for key in ("ccc_matched", "ccc_shapes", "ccc_shape_hits"):
            assert counters[key] == flat.profile["counters"][key]
        # The retired replay counters are constants, always 0.
        assert (report.interior, report.reused, report.replayed) == (0, 0, 0)
        assert report.guard_failures == 0

    def test_as_dict_round_trips_counts(self, ota_pipeline):
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        data = report.as_dict()
        assert set(data) == {
            "n_definitions",
            "n_instances",
            "n_unique_groups",
            "definitions",
        }
        assert data["n_definitions"] == report.n_definitions
        assert data["n_instances"] == report.n_instances
        assert data["n_unique_groups"] == report.n_unique_groups
        (definition,) = data["definitions"]
        assert definition["definition"] == "otacell"
        assert definition["n_instances"] == 3

    def test_flat_deck_degrades_gracefully(self, ota_pipeline):
        # No instances → the hier flag is a no-op, not an error.
        from tests.conftest import DIFF_OTA_DECK

        hier = ota_pipeline.run(DIFF_OTA_DECK, hier=True)
        flat = ota_pipeline.run(DIFF_OTA_DECK)
        _assert_results_equivalent(hier, flat)


def _entry_names(cache: ArtifactCache, prefix: str) -> set[str]:
    return {path.name for path in cache.directory.glob(f"{prefix}*")}


class TestSharedMatchEntries:
    """``--hier`` persists and reuses the flat path's match entries."""

    def test_hier_run_writes_only_flat_match_entries(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        ota_pipeline.run_staged(OTA_ARRAY_DECK, hier=True, artifact_cache=cache)
        assert _entry_names(cache, "ccc-matches-")
        assert not _entry_names(cache, "hier-matches")

    def test_hier_after_flat_takes_every_template_from_cache(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        flat = ota_pipeline.run_staged(OTA_ARRAY_DECK, artifact_cache=cache)
        stored = _entry_names(cache, "ccc-matches-")
        assert stored
        hier = ota_pipeline.run_staged(
            OTA_ARRAY_DECK, hier=True, artifact_cache=cache, profile=True
        )
        # The post1 stage key includes ``hier``: post1 recomputes.
        assert StageName.POST1 not in hier.cache_hits
        counters = hier.profile()["counters"]
        n_templates = len(ota_pipeline.library.by_size_desc())
        assert counters["match_cache_hits"] == counters["ccc_matched"] * n_templates
        assert _entry_names(cache, "ccc-matches-") == stored
        hier_fp = pipeline_result_fingerprint(ota_pipeline.result_from_staged(hier))
        assert hier_fp == pipeline_result_fingerprint(ota_pipeline.result_from_staged(flat))


class TestDefinitionKeyedPersistence:
    """Definition summaries persist under definition-fingerprint keys."""

    @staticmethod
    def _summary_prefix(pipeline, deck: str) -> str:
        from repro.core.stages import annotator_fingerprint

        _flat, tree = flatten_hierarchical(parse_netlist(deck))
        ann_fp = annotator_fingerprint(pipeline.annotator)
        fp = tree.definitions["otacell"].fingerprint
        return f"hier-def-ann-{ann_fp[:12]}-{fp[:12]}"

    def test_warm_run_hits_persisted_entries(self, ota_pipeline, tmp_path, monkeypatch):
        import importlib

        from repro.core import hier_annotate as ha

        preprocess = importlib.import_module("repro.spice.preprocess")
        # An in-process memo hit would bypass the disk cache both ways.
        monkeypatch.setattr(ha, "_DEF_ANN_MEMO", {})
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(OTA_ARRAY_DECK, hier=True, artifact_cache=cache)
        # Force post1 to recompute while keeping the persisted entries:
        # drop everything except match lists and definition summaries
        # (stage-artifact keys are bare content hashes).
        removed = 0
        for path in cache.directory.glob("*.pkl"):
            if not path.name.startswith(("ccc-matches-", "hier-def-ann-")):
                path.unlink()
                removed += 1
        assert removed > 0
        monkeypatch.setattr(ha, "_DEF_ANN_MEMO", {})
        # The pipeline binds ``preprocess`` at import; only definition
        # bodies still look it up here, so this counts summary forwards.
        bodies = []
        real_preprocess = preprocess.preprocess
        monkeypatch.setattr(
            preprocess, "preprocess", lambda body: bodies.append(body) or real_preprocess(body)
        )
        warm = ota_pipeline.run_staged(
            OTA_ARRAY_DECK, hier=True, artifact_cache=cache, profile=True
        )
        assert not bodies, "definition summaries came from the cache"
        assert warm.profile()["counters"]["match_cache_hits"] > 0
        assert warm.final.hier.definition_annotations == cold.final.hier.definition_annotations
        warm_fp = pipeline_result_fingerprint(ota_pipeline.result_from_staged(warm))
        assert warm_fp == pipeline_result_fingerprint(ota_pipeline.result_from_staged(cold))

    def test_invalidate_one_definition(self, ota_pipeline, tmp_path, monkeypatch):
        from repro.core import hier_annotate as ha

        monkeypatch.setattr(ha, "_DEF_ANN_MEMO", {})
        cache = ArtifactCache(tmp_path / "cache")
        ota_pipeline.run_staged(OTA_ARRAY_DECK, hier=True, artifact_cache=cache)
        prefix = self._summary_prefix(ota_pipeline, OTA_ARRAY_DECK)
        entries = _entry_names(cache, prefix)
        assert entries, "definition-scoped entries were persisted"
        matches = _entry_names(cache, "ccc-matches-")
        removed = cache.invalidate_prefix(prefix)
        assert removed == len(entries)
        assert not _entry_names(cache, prefix)
        assert _entry_names(cache, "ccc-matches-") == matches

    def test_body_edit_changes_entry_keys(self, tmp_path):
        edited = OTA_ARRAY_DECK.replace("w=2u", "w=3u")
        _f1, tree1 = flatten_hierarchical(parse_netlist(OTA_ARRAY_DECK))
        _f2, tree2 = flatten_hierarchical(parse_netlist(edited))
        fp1 = tree1.definitions["otacell"].fingerprint
        fp2 = tree2.definitions["otacell"].fingerprint
        assert fp1 != fp2  # old entries become unreachable, sweepable


class TestDefinitionAnnotations:
    def test_summaries_cover_unique_groups(self, ota_pipeline):
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        assert len(report.definition_annotations) == 1
        summary = report.definition_annotations[0]
        assert summary.definition == "otacell"
        assert summary.n_instances == 3
        assert set(summary.instance_paths) == {"x0", "x1", "x2"}
        assert summary.n_devices > 0
        assert summary.majority_class
        assert dict(summary.class_counts)

    def test_in_process_memo_populated(self, quick_ota_annotator):
        from repro.core import hier_annotate as ha

        _flat, tree = flatten_hierarchical(parse_netlist(OTA_ARRAY_DECK))
        first = ha.annotate_definitions(tree, quick_ota_annotator)
        assert first
        key_count = len(ha._DEF_ANN_MEMO)
        assert key_count > 0
        again = ha.annotate_definitions(tree, quick_ota_annotator)
        assert len(ha._DEF_ANN_MEMO) == key_count
        assert [d.fingerprint for d in again] == [d.fingerprint for d in first]

    def test_in_process_memo_is_bounded(self, quick_ota_annotator, monkeypatch):
        from repro.core import hier_annotate as ha

        monkeypatch.setattr(ha, "_DEF_ANN_MEMO", {})
        _flat, tree = flatten_hierarchical(parse_netlist(OTA_ARRAY_DECK))
        (summary,) = ha.annotate_definitions(tree, quick_ota_annotator)
        for i in range(ha._DEF_ANN_MEMO_MAX + 10):
            ha._remember_definition(("annotator", f"definition{i}", 1.0), summary)
            assert len(ha._DEF_ANN_MEMO) <= ha._DEF_ANN_MEMO_MAX
        assert ha.annotate_definitions(tree, quick_ota_annotator) == (summary,)


class TestHierTreeMode:
    def test_instance_nesting_in_hierarchy(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier_tree=True)
        rendered = result.hierarchy.render()
        for path in ("x0", "x1", "x2"):
            node = result.hierarchy.child(path)
            assert node is not None, f"{path} missing from\n{rendered}"
            assert node.block_class == "otacell"
            assert node.children, "recognized blocks hang under the instance"
        # The glue mirror is not inside any instance: stays at the root.
        assert any("mglue" in n.all_devices() for n in result.hierarchy.children)

    def test_hier_tree_implies_hier(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier_tree=True)
        assert result.hier is not None

    def test_devices_preserved_under_nesting(self, ota_pipeline):
        flat = ota_pipeline.run(HIERARCHICAL_DECK)
        nested = ota_pipeline.run(HIERARCHICAL_DECK, hier_tree=True)
        assert nested.hierarchy.all_devices() == flat.hierarchy.all_devices()
        assert nested.annotation.element_classes == flat.annotation.element_classes


#: One cell instance powered from ``vdd!``, one from ``railx``: under
#: the default rail conventions their CCCs differ only in the rail's
#: port-predicate vector, so they must not share match lists.
RAILX_DECK = """
* one cell on vdd!, one on a rail named railx
.global vdd! gnd!
.subckt cell inp out rail
m0 out inp rail rail pmos w=2u l=100n
m1 out inp gnd! gnd! nmos w=1u l=100n
m2 o2 out rail rail pmos w=2u l=100n
m3 o2 out gnd! gnd! nmos w=1u l=100n
.ends
x0 a0 b0 railx cell
x1 a1 b1 vdd! cell
.end
"""


class TestRailConventionsPerRun:
    """Port predicates read the module-level rail regexes: a run under
    other rail conventions must leave nothing behind for the next run
    — no process-wide memo may keep rail vectors across runs."""

    @pytest.mark.parametrize("hier", [True, False], ids=["hier", "flat"])
    def test_patched_supply_regex_does_not_leak(self, ota_pipeline, monkeypatch, hier):
        import re

        from repro.spice import netlist

        def run() -> tuple[str, int]:
            result = ota_pipeline.run(RAILX_DECK, hier=hier, profile=True)
            return pipeline_result_fingerprint(result), result.profile["counters"]["ccc_shapes"]

        unpatched = run()
        # The default supply names plus ``railx``: all four inverters are
        # then one CCC shape, which a rail vector kept from the unpatched
        # run would split in two.
        railx_supply = re.compile(r"^(railx|vdd|vcc|avdd|dvdd|vddd|vdda)[!]?\d*$", re.IGNORECASE)
        monkeypatch.setattr(netlist, "SUPPLY_NET_RE", railx_supply)
        patched_fp, patched_shapes = run()
        assert patched_fp != unpatched[0], "railx as a supply changes the annotation"
        assert patched_shapes == 1
        monkeypatch.undo()
        assert run() == unpatched


def _mirror_cell_deck(n_instances: int, widths: tuple[int, ...], shared: bool):
    lines = [
        "* generated hierarchical deck",
        ".global vdd! gnd!",
        ".subckt cell a b",
    ]
    for i, w in enumerate(widths):
        ref = "a" if i == 0 else "nbias"
        lines.append(f"md{i} {'nbias' if i == 0 else 'b'} {ref} gnd! gnd! nmos w={w}u l=100n")
    lines.append("rload b vdd! 10k")
    lines.append(".ends")
    for i in range(n_instances):
        inp = "shared_in" if shared else f"in{i}"
        lines.append(f"x{i} {inp} out{i} cell")
    lines.append("mtop t1 t1 gnd! gnd! nmos w=1u l=100n")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@pytest.mark.property
class TestPropertyIdentity:
    """Property: hier ≡ flat on random small hierarchical decks."""

    @settings(max_examples=10, deadline=None)
    @given(
        n_instances=st.integers(min_value=1, max_value=4),
        widths=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
        shared=st.booleans(),
    )
    def test_random_decks(
        self, ota_pipeline_ref, n_instances, widths, shared
    ):
        deck = _mirror_cell_deck(n_instances, widths, shared)
        hier = ota_pipeline_ref.run(deck, hier=True)
        flat = ota_pipeline_ref.run(deck)
        _assert_results_equivalent(hier, flat)


@pytest.fixture(scope="module")
def ota_pipeline_ref(quick_ota_annotator):
    # hypothesis forbids function-scoped fixtures; module scope is fine
    # (the pipeline is stateless across runs).
    return GanaPipeline(annotator=quick_ota_annotator)
