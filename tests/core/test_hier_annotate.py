"""Hierarchy-scoped annotation (ISSUE 9).

Golden byte-identity: the ``--hier`` path must produce exactly the
annotation the flat path computes on every example netlist — repeated
instances only make it faster, never different.  Plus: the
HierMatchCache reuse/replay machinery, definition-keyed persistence
and invalidation, advisory per-definition GCN summaries, and the
instance-table hierarchy mode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GanaPipeline
from repro.core.stages import pipeline_result_fingerprint
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
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        assert report is not None
        assert report.n_instances == 3
        assert report.n_unique_groups == 1
        assert report.reused > 0
        assert report.replayed > 0
        assert report.guard_failures == 0
        assert report.interior + report.boundary == report.cccs

    def test_per_definition_attribution(self, ota_pipeline):
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        assert "otacell" in report.per_definition
        stats = report.per_definition["otacell"]
        assert stats["instances"] == 3
        assert stats["reused"] > 0

    def test_as_dict_round_trips_counts(self, ota_pipeline):
        report = ota_pipeline.run(OTA_ARRAY_DECK, hier=True).hier
        data = report.as_dict()
        assert data["reused"] == report.reused
        assert data["replayed"] == report.replayed
        assert data["per_definition"]["otacell"]["instances"] == 3

    def test_flat_deck_degrades_gracefully(self, ota_pipeline):
        # No instances → the hier flag is a no-op, not an error.
        from tests.conftest import DIFF_OTA_DECK

        hier = ota_pipeline.run(DIFF_OTA_DECK, hier=True)
        flat = ota_pipeline.run(DIFF_OTA_DECK)
        _assert_results_equivalent(hier, flat)


class TestDefinitionKeyedPersistence:
    def test_warm_run_hits_persisted_entries(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = ota_pipeline.run_staged(
            OTA_ARRAY_DECK, hier=True, artifact_cache=cache
        )
        # Force post1 to recompute while keeping the persisted match
        # entries: drop everything except the hier-matches entries
        # (stage-artifact keys are bare content hashes).
        removed = 0
        for path in cache.directory.glob("*.pkl"):
            if not path.name.startswith("hier-matches"):
                path.unlink()
                removed += 1
        assert removed > 0
        warm = ota_pipeline.run_staged(
            OTA_ARRAY_DECK, hier=True, artifact_cache=cache
        )
        report = warm.final.hier
        assert report.persisted_hits > 0
        assert pipeline_result_fingerprint(
            ota_pipeline.result_from_staged(warm)
        ) == pipeline_result_fingerprint(ota_pipeline.result_from_staged(cold))

    def test_invalidate_one_definition(self, ota_pipeline, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        ota_pipeline.run_staged(OTA_ARRAY_DECK, hier=True, artifact_cache=cache)
        _flat, tree = flatten_hierarchical(parse_netlist(OTA_ARRAY_DECK))
        fp = tree.definitions["otacell"].fingerprint
        prefix = f"hier-matches-def-{fp[:12]}"
        entries = list(cache.directory.glob(f"{prefix}*"))
        assert entries, "definition-scoped entries were persisted"
        removed = cache.invalidate_prefix(prefix)
        assert removed == len(entries)
        assert not list(cache.directory.glob(f"{prefix}*"))

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
        assert any(
            "mglue" in n.all_devices() for n in result.hierarchy.children
        )

    def test_hier_tree_implies_hier(self, ota_pipeline):
        result = ota_pipeline.run(OTA_ARRAY_DECK, hier_tree=True)
        assert result.hier is not None

    def test_devices_preserved_under_nesting(self, ota_pipeline):
        flat = ota_pipeline.run(HIERARCHICAL_DECK)
        nested = ota_pipeline.run(HIERARCHICAL_DECK, hier_tree=True)
        assert nested.hierarchy.all_devices() == flat.hierarchy.all_devices()
        assert (
            nested.annotation.element_classes == flat.annotation.element_classes
        )


class TestPredicateProfileMemo:
    """The port-predicate memo reads the rail regexes, so every run
    resets it together with the ``is_power_net`` memo: a vector
    computed under other rail conventions must not outlive them."""

    def test_run_drops_vectors_of_old_conventions(self, ota_pipeline, monkeypatch):
        import re

        from repro.core import hier_annotate
        from repro.spice import netlist

        # Predicates in sorted order: bias, ground, power, signal, supply.
        as_supply = (False, False, True, False, True)
        as_signal = (False, False, False, True, False)
        hier_annotate._PRED_PROFILE_MEMO.pop("railx", None)
        netlist.reset_power_net_memo()
        monkeypatch.setattr(netlist, "SUPPLY_NET_RE", re.compile(r"^railx$", re.IGNORECASE))
        assert hier_annotate._predicate_profile("railx") == as_supply
        monkeypatch.undo()
        ota_pipeline.run(OTA_ARRAY_DECK, hier=True)
        assert hier_annotate._predicate_profile("railx") == as_signal


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
