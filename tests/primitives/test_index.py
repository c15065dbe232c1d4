"""Property tests: the signature-indexed matcher is exact.

The indexed hot path (template profiles, shared target context,
symmetry breaking, per-depth search plans — ``primitives/index.py``)
must return the *exact same* matches as the naive full-setup VF2 path
for every template of the library on every example netlist.  These
tests assert list equality, not set equality: downstream overlap
resolution claims devices in match order, so order preservation is
part of the bit-identical-annotations contract.
"""

from __future__ import annotations

import pytest

from repro.graph.ccc import channel_connected_components
from repro.primitives.index import (
    TargetContext,
    canonical_mapping,
    template_profile,
)
from repro.primitives.library import default_library
from repro.primitives.matcher import (
    _kinds_coverable,
    annotate_components,
    annotate_primitives,
    find_primitive_matches,
)
from repro.testing.reference import (
    naive_annotate_primitives,
    naive_find_primitive_matches,
)
from tests.conftest import CANONICAL_GRAPH_NAMES, build_canonical_graphs

LIBRARY = default_library()

# The shared canonical menagerie (tests/conftest.py) — built once at
# module import; the session fixture is not usable at collect time.
GRAPHS = build_canonical_graphs()


@pytest.mark.parametrize("graph_name", sorted(CANONICAL_GRAPH_NAMES))
class TestIndexedEqualsNaive:
    def test_every_template_matches_identically(self, graph_name):
        graph = GRAPHS[graph_name]
        context = TargetContext.build(graph)
        for template in LIBRARY.templates:
            naive = naive_find_primitive_matches(template, graph)
            indexed = find_primitive_matches(template, graph, context=context)
            assert indexed == naive, template.name

    def test_annotation_identical(self, graph_name):
        graph = GRAPHS[graph_name]
        naive = naive_annotate_primitives(graph, LIBRARY)
        indexed = annotate_primitives(graph, LIBRARY)
        assert indexed.matches == naive.matches
        assert indexed.unclaimed == naive.unclaimed

    def test_overlapping_annotation_identical(self, graph_name):
        graph = GRAPHS[graph_name]
        naive = naive_annotate_primitives(graph, LIBRARY, allow_overlap=True)
        indexed = annotate_primitives(graph, LIBRARY, allow_overlap=True)
        assert indexed.matches == naive.matches

    def test_kind_rejected_templates_have_no_naive_matches(self, graph_name):
        """The histogram skip is sound: on the graph and on each of its
        CCC subgraphs, a template it rejects has no match at all."""
        graph = GRAPHS[graph_name]
        partition = channel_connected_components(graph)
        targets = [graph] + [
            graph.subgraph_of_elements(members)
            for members in partition.components
        ]
        for target in targets:
            context = TargetContext.build(target)
            for template in LIBRARY.templates:
                if not _kinds_coverable(template_profile(template), context):
                    assert not naive_find_primitive_matches(
                        template, target
                    ), template.name


class TestComponentScopedAnnotation:
    def test_matches_per_component_subgraph(self):
        graph = GRAPHS["phased_array_2ch"]
        partition = channel_connected_components(graph)
        scoped = annotate_components(graph, partition, LIBRARY)
        assert set(scoped) == set(range(partition.n_components))
        for cid, members in enumerate(partition.components):
            subgraph = graph.subgraph_of_elements(members)
            direct = naive_annotate_primitives(subgraph, LIBRARY)
            assert scoped[cid].matches == direct.matches

    def test_every_match_stays_inside_its_component(self):
        graph = GRAPHS["switched_cap_filter"]
        partition = channel_connected_components(graph)
        scoped = annotate_components(graph, partition, LIBRARY)
        for cid, result in scoped.items():
            member_names = {
                graph.elements[v].name for v in partition.components[cid]
            }
            for match in result.matches:
                assert match.elements <= member_names


class TestTemplateProfiles:
    def test_memoized_per_template_object(self):
        template = LIBRARY.templates[0]
        assert template_profile(template) is template_profile(template)

    def test_profile_invariants(self):
        for template in LIBRARY.templates:
            profile = template_profile(template)
            graph = template.graph
            assert profile.n_elements == graph.n_elements
            assert len(profile.order) == graph.n_vertices
            assert sorted(profile.order) == list(range(graph.n_vertices))
            assert len(profile.depth_plan) == graph.n_vertices
            assert profile.element_names == tuple(
                el.name for el in graph.elements
            )
            # Automorphisms are bijections fixing element/net split.
            for sigma in profile.automorphisms:
                assert sorted(sigma) == list(range(graph.n_vertices))
                assert all(
                    (v < graph.n_elements) == (sigma[v] < graph.n_elements)
                    for v in range(graph.n_vertices)
                )

    def test_differential_pair_has_arm_swap_symmetry(self):
        dp = LIBRARY.get("DP-N")
        assert template_profile(dp).automorphisms


class TestCanonicalMapping:
    def test_identity_when_no_automorphisms(self):
        mapping = {0: 5, 1: 3, 2: 9}
        assert canonical_mapping(mapping, ()) == mapping

    def test_picks_lex_minimal_orbit_member(self):
        # One automorphism swapping pattern vertices 0 and 1.
        sigma = (1, 0, 2)
        mapping = {0: 7, 1: 4, 2: 2}
        canonical = canonical_mapping(mapping, (sigma,))
        assert canonical == {0: 4, 1: 7, 2: 2}
        # Canonicalizing is idempotent across the whole orbit.
        assert canonical_mapping(canonical, (sigma,)) == canonical
