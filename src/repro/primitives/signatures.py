"""SubGemini-style vertex signatures (the paper's ref [12]).

SubGemini (Ohlrich et al., DAC'93) — the source of GANA's bipartite
graph representation — prunes subgraph matching with neighborhood
labels before any backtracking.  This module implements that idea as a
sound prefilter for our VF2: each vertex gets a *signature*, the
multiset of ``(edge label, neighbor kind)`` pairs on its incident
edges, and a pattern vertex can only map to a target vertex whose
signature **covers** it (count-wise ≥ for boundary nets, = for
elements and internal nets, since those may gain no extra edges).

Soundness (never discarding a true match) is what the property tests
check; the payoff is measured by ``bench_vf2_scaling.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.graph.bipartite import CircuitGraph
from repro.primitives.isomorphism import PatternGraph

#: Signature: (edge_label, neighbor_kind_token) → count.
Signature = Counter


def _kind_token(graph: CircuitGraph, vertex: int) -> object:
    if vertex < graph.n_elements:
        return graph.elements[vertex].kind
    return "net"


def vertex_signatures(graph: CircuitGraph) -> list[Signature]:
    """Per-vertex incident-edge signatures, O(E) total."""
    signatures: list[Signature] = [Counter() for _ in range(graph.n_vertices)]
    for edge in graph.edges:
        u = edge.element
        v = graph.n_elements + edge.net
        signatures[u][(edge.label, "net")] += 1
        signatures[v][(edge.label, graph.elements[u].kind)] += 1
    return signatures


def vertex_degrees(signatures: list[Signature]) -> list[int]:
    """Degree invariant: total incident-edge count per vertex."""
    return [sum(sig.values()) for sig in signatures]


def frozen_signatures(
    signatures: list[Signature],
) -> list[tuple]:
    """Hashable canonical form (repr-sorted item tuples) for O(1)
    equality.  Keys mix ints with :class:`DeviceKind`, which are not
    mutually orderable, so the sort key is the item's repr."""
    return [
        tuple(sorted(sig.items(), key=repr)) for sig in signatures
    ]


def signature_covers(
    pattern_sig: Signature, target_sig: Signature, exact: bool
) -> bool:
    """Can a vertex with ``target_sig`` host one with ``pattern_sig``?

    ``exact`` requires equal counts (elements and internal nets);
    otherwise the target may have extra edges of any kind.
    """
    if exact:
        return pattern_sig == target_sig
    for key, needed in pattern_sig.items():
        if target_sig[key] < needed:
            return False
    return True


@dataclass
class CompatibilityFilter:
    """Precomputed pattern-vertex → allowed-target-vertices sets."""

    allowed: list[set[int]]

    def ok(self, pv: int, tv: int) -> bool:
        return tv in self.allowed[pv]

    @property
    def is_feasible(self) -> bool:
        """False when some pattern vertex has no candidate at all —
        the whole match can be rejected without any search."""
        return all(self.allowed)


@dataclass
class TargetIndex:
    """Reusable per-target signature tables.

    Building this once per circuit (``TargetIndex.build``) and passing
    it to :func:`build_filter` for every template amortizes the O(E)
    signature computation across the whole library.
    """

    signatures: list[Signature]
    frozen: list[tuple]
    by_kind: dict[object, list[int]]
    by_exact: dict[tuple, list[int]]  # (kind, frozen signature) buckets
    degrees: list[int]
    #: Lazy caches filled by :func:`build_filter`; keyed by the pattern
    #: vertex's (kind, frozen sig) / frozen sig, so templates sharing a
    #: vertex signature share one candidate set.  The sets are treated
    #: as immutable by every consumer.
    exact_sets: dict[tuple, set[int]] = field(default_factory=dict)
    cover_sets: dict[tuple, set[int]] = field(default_factory=dict)

    @classmethod
    def build(cls, target: CircuitGraph) -> "TargetIndex":
        signatures = vertex_signatures(target)
        frozen = frozen_signatures(signatures)
        by_kind: dict[object, list[int]] = {}
        by_exact: dict[tuple, list[int]] = {}
        for tv in range(target.n_vertices):
            kind = _kind_token(target, tv)
            by_kind.setdefault(kind, []).append(tv)
            by_exact.setdefault((kind, frozen[tv]), []).append(tv)
        return cls(
            signatures=signatures,
            frozen=frozen,
            by_kind=by_kind,
            by_exact=by_exact,
            degrees=vertex_degrees(signatures),
        )


def build_filter(
    pattern: PatternGraph,
    target: CircuitGraph,
    index: TargetIndex | None = None,
    pattern_signatures: tuple[list[Signature], list[tuple]] | None = None,
) -> CompatibilityFilter:
    """Signature compatibility for every (pattern, target) vertex pair.

    Exact-signature pattern vertices (elements, internal nets) resolve
    through a hash bucket in O(1); boundary nets scan their kind bucket
    with O(1) work per candidate — linear in the target overall.

    ``pattern_signatures`` — ``(signatures, frozen)`` precomputed once
    per template (see :func:`repro.primitives.index.template_profile`)
    — skips the per-call pattern signature recomputation that dominated
    matcher setup before the index layer existed.
    """
    p_graph = pattern.graph
    if pattern_signatures is not None:
        p_sigs, p_frozen = pattern_signatures
    else:
        p_sigs = vertex_signatures(p_graph)
        p_frozen = frozen_signatures(p_sigs)
    index = index or TargetIndex.build(target)
    n_el = p_graph.n_elements
    n = p_graph.n_vertices

    # Exact rows first: they are O(1) hash-bucket lookups, and an empty
    # one proves the whole template infeasible here — bail before the
    # (comparatively expensive) boundary-net cover scans.  Candidate
    # sets are cached on the index and shared across templates; every
    # consumer treats them as immutable.
    allowed: list[set[int] | None] = [None] * n
    boundary: list[int] = []
    for pv in range(n):
        if pv >= n_el and (pv - n_el) in pattern.boundary_nets:
            boundary.append(pv)
            continue
        key = (_kind_token(p_graph, pv), p_frozen[pv])
        ok = index.exact_sets.get(key)
        if ok is None:
            ok = set(index.by_exact.get(key, ()))
            index.exact_sets[key] = ok
        allowed[pv] = ok
        if not ok:
            return CompatibilityFilter(
                allowed=[s if s is not None else set() for s in allowed]
            )

    for pv in boundary:
        ok = index.cover_sets.get(p_frozen[pv])
        if ok is None:
            sig = p_sigs[pv]
            need = sum(sig.values())
            ok = {
                tv
                for tv in index.by_kind.get("net", ())
                # Degree invariant first: a host with fewer incident
                # edges than the pattern needs can never cover it.
                if index.degrees[tv] >= need
                and signature_covers(sig, index.signatures[tv], exact=False)
            }
            index.cover_sets[p_frozen[pv]] = ok
        allowed[pv] = ok
    return CompatibilityFilter(allowed=allowed)
