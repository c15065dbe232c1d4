"""CCC shape sharing in ``annotate_components`` is exact.

The first channel-connected component of each structural shape is
matched; every later one renames those matches onto its own devices and
nets.  These tests pick decks where a key that ignored port predicates,
or a rename that followed name order instead of position, would change
the annotation.
"""

from __future__ import annotations

from collections import Counter

from repro.core.stages import PrimitiveMatchCache
from repro.datasets.systems import phased_array
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives import matcher
from repro.primitives.library import (
    default_library,
    port_predicate_vector,
    template_fingerprint,
)
from repro.primitives.matcher import annotate_components, annotate_primitives
from repro.runtime.profile import PipelineProfiler
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from repro.testing.reference import (
    naive_annotate_components,
    per_ccc_annotate_components,
)

LIBRARY = default_library()

#: Two single-transistor CCCs of one structure; only the first has its
#: source on a rail, so only it is a common-source stage (``s`` on
#: power) and only the second a switch (SW-N needs signal nets).
RAIL_VS_SIGNAL_DECK = """* rail versus signal source
ma da ga gnd! gnd! nmos
mb db gb sb gnd! nmos
.end
"""

#: Two three-way shared-tail CCCs: DP-N matches every pair, and the
#: first pair in name order claims.  Device names follow element order
#: in the first CCC and run against it in the second.
OPPOSITE_NAME_ORDER_DECK = """* shared tails, names in opposite orders
ma1 da1 ga1 ta gnd! nmos
ma2 da2 ga2 ta gnd! nmos
ma3 da3 ga3 ta gnd! nmos
mz3 dz1 gz1 tz gnd! nmos
mz2 dz2 gz2 tz gnd! nmos
mz1 dz3 gz3 tz gnd! nmos
.end
"""


def _annotate(graph: CircuitGraph):
    partition = channel_connected_components(graph)
    profiler = PipelineProfiler()
    shared = annotate_components(graph, partition, LIBRARY, profiler=profiler)
    naive = naive_annotate_components(graph, partition, LIBRARY)
    assert set(shared) == set(naive)
    for cid, result in naive.items():
        assert shared[cid].matches == result.matches, cid
        assert shared[cid].unclaimed == result.unclaimed, cid
    return shared, profiler.counters


def _deck_graph(text: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(text)))


def _shape(subgraph: CircuitGraph) -> tuple:
    """Name-free structure of a rebuilt CCC subgraph."""
    return (
        tuple(device.kind for device in subgraph.elements),
        tuple((e.element, e.net, e.label) for e in subgraph.edges),
        tuple(port_predicate_vector(net) for net in subgraph.nets),
    )


def test_rail_port_net_splits_the_shape():
    shared, counters = _annotate(_deck_graph(RAIL_VS_SIGNAL_DECK))
    assert counters["ccc_shapes"] == 2
    assert counters.get("ccc_shape_hits", 0) == 0
    assert [m.primitive for m in shared[0].matches] == ["CS-Amp-N"]
    assert [m.primitive for m in shared[1].matches] == ["SW-N"]


def test_replay_renames_by_position_and_resorts_by_name():
    shared, counters = _annotate(_deck_graph(OPPOSITE_NAME_ORDER_DECK))
    assert counters["ccc_shapes"] == 1
    assert counters["ccc_shape_hits"] == 1
    # The pair first in name order claims: positions 0-1 in the first
    # CCC, positions 1-2 in the second.
    assert [m.describe() for m in shared[0].matches] == [
        "DP-N(ma1, ma2)",
        "SW-N(ma3)",
    ]
    assert [m.describe() for m in shared[1].matches] == [
        "DP-N(mz1, mz2)",
        "SW-N(mz3)",
    ]


def test_one_subgraph_and_one_library_pass_per_shape(monkeypatch):
    graph = CircuitGraph.from_circuit(phased_array(n_channels=4).circuit)
    partition = channel_connected_components(graph)
    representatives: dict[tuple, CircuitGraph] = {}
    for members in partition.components:
        subgraph = graph.subgraph_of_elements(members)
        representatives.setdefault(_shape(subgraph), subgraph)

    calls: Counter = Counter()
    find = matcher.find_primitive_matches
    build = CircuitGraph.from_circuit.__func__

    def counted_find(*args, **kwargs):
        calls["find_primitive_matches"] += 1
        return find(*args, **kwargs)

    def counted_build(cls, *args, **kwargs):
        calls["from_circuit"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(matcher, "find_primitive_matches", counted_find)
    for subgraph in representatives.values():
        annotate_primitives(subgraph, LIBRARY)
    one_pass_each = calls["find_primitive_matches"]
    calls.clear()

    monkeypatch.setattr(CircuitGraph, "from_circuit", classmethod(counted_build))
    annotate_components(graph, partition, LIBRARY)
    assert len(representatives) < partition.n_components
    assert calls["from_circuit"] == len(representatives)
    assert calls["find_primitive_matches"] == one_pass_each


class _DictCache:
    """In-memory ``match_cache`` with the production key."""

    ccc_key = staticmethod(PrimitiveMatchCache.ccc_key)

    def __init__(self, entries: dict):
        self.entries = {key: dict(memo) for key, memo in entries.items()}

    def load(self, key):
        return dict(self.entries.get(key, {}))

    def store(self, key, memo):
        self.entries[key] = dict(memo)


def test_match_cache_answers_before_the_shape_memo():
    """Cached lists win over shared ones, and what is stored back
    equals what per-CCC matching stores."""
    graph = CircuitGraph.from_circuit(phased_array(n_channels=2).circuit)
    partition = channel_connected_components(graph)
    seeded = _DictCache({})
    per_ccc_annotate_components(graph, partition, LIBRARY, match_cache=seeded)
    # Blank the cached DP-N list of the last CCC that has one (a repeat
    # of an earlier shape) and drop every other cached DP-N list: the
    # shape memo fills the gaps, the blank list must still be obeyed.
    dp = template_fingerprint(next(t for t in LIBRARY if t.name == "DP-N"))
    blanked = [key for key, memo in seeded.entries.items() if memo[dp]][-1]
    for key, memo in seeded.entries.items():
        if key == blanked:
            memo[dp] = []
        else:
            del memo[dp]
    shared_cache, reference_cache = _DictCache(seeded.entries), _DictCache(seeded.entries)
    shared = annotate_components(graph, partition, LIBRARY, match_cache=shared_cache)
    reference = per_ccc_annotate_components(
        graph, partition, LIBRARY, match_cache=reference_cache
    )
    assert shared == reference
    assert shared_cache.entries == reference_cache.entries
    profiler = PipelineProfiler()
    annotate_components(
        graph, partition, LIBRARY, profiler=profiler,
        match_cache=_DictCache(seeded.entries),
    )
    assert profiler.counters["ccc_shape_hits"] > 0
