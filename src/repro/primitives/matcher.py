"""Primitive annotation: match the template library into a circuit
graph (Sec. IV-A).

For every library template the matcher runs VF2 against the target,
filters matches through the template's port-role predicates, collapses
automorphic duplicates (a differential pair matches twice under its own
symmetry), and resolves overlaps largest-template-first so that, e.g.,
a cascode current mirror is not also reported as two simple mirrors.

The hot path uses per-template profiles and a shared per-target
context (:mod:`repro.primitives.index`) to amortize matcher setup, a
kind-histogram test that rejects impossible (template, target) pairs
before any VF2 launch, and symmetry breaking that skips automorphic
duplicate branches.  The naive matcher (per-call setup, no kind
rejection, no symmetry breaking) is a reference in
:mod:`repro.testing.reference`; the property tests in
``tests/primitives/test_index.py`` assert exact equality.

:func:`annotate_components` scopes matching per channel-connected
component and matches each distinct CCC shape once: later CCCs of a
shape rename the first one's matches instead of running VF2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.constraints import Constraint
from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.primitives.isomorphism import Isomorphism, VF2Matcher
from repro.primitives.library import (
    PrimitiveLibrary,
    PrimitiveTemplate,
    port_predicate_vector,
    template_fingerprint,
)
from repro.runtime.resilience import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.ccc import CCCPartition
    from repro.primitives.index import TargetContext, TemplateProfile
    from repro.runtime.profile import PipelineProfiler
    from repro.spice.netlist import Device


@dataclass(frozen=True)
class PrimitiveMatch:
    """One recognized primitive instance in the target circuit."""

    primitive: str
    element_map: tuple[tuple[str, str], ...]  # template device → target device
    net_map: tuple[tuple[str, str], ...]  # template net → target net
    constraints: tuple[Constraint, ...]  # already renamed to target devices

    @cached_property
    def elements(self) -> frozenset[str]:
        """Target device names claimed by this match (built once)."""
        return frozenset([name for _, name in self.element_map])

    def __getstate__(self) -> dict:
        # Fields only: pickles never depend on whether ``elements`` was read.
        return {k: v for k, v in self.__dict__.items() if k != "elements"}

    @property
    def net_dict(self) -> dict[str, str]:
        return dict(self.net_map)

    def describe(self) -> str:
        devices = ", ".join(sorted(self.elements))
        return f"{self.primitive}({devices})"


def _match_from_isomorphism(
    profile: "TemplateProfile",
    target: CircuitGraph,
    iso: Isomorphism,
) -> PrimitiveMatch | None:
    """Translate a raw vertex mapping into named maps; apply predicates.

    The mapping is first rewritten to its orbit-canonical
    representative (under the profile's automorphism group), so the
    reported match does not depend on which orbit member the search
    happened to reach first — the naive and symmetry-broken paths
    report byte-identical matches.  Predicate outcomes are orbit
    invariants (semantic automorphisms preserve port predicate
    profiles), so canonicalizing before the predicate check is sound.
    Port predicates, template-side names, and constraint templates all
    come precomputed from the profile.
    """
    from repro.primitives.index import canonical_mapping

    template = profile.template
    mapping = iso.as_dict
    if profile.automorphisms:
        mapping = canonical_mapping(mapping, profile.automorphisms)
    p_n_el = profile.n_elements
    t_n_el = target.n_elements
    p_el_names = profile.element_names
    p_net_names = profile.net_names
    port_checks = profile.port_checks
    t_elements, t_nets = target.elements, target.nets
    element_map: list[tuple[str, str]] = []
    net_map: list[tuple[str, str]] = []
    for pv, tv in mapping.items():
        if pv < p_n_el:
            element_map.append((p_el_names[pv], t_elements[tv].name))
        else:
            target_net = t_nets[tv - t_n_el]
            net_map.append((p_net_names[pv - p_n_el], target_net))
            predicates = port_checks.get(pv)
            if predicates is not None:
                for predicate in predicates:
                    if not predicate(target_net):
                        return None
    return _named_match(
        template, tuple(sorted(element_map)), tuple(sorted(net_map))
    )


def _named_match(
    template: PrimitiveTemplate,
    element_map: tuple[tuple[str, str], ...],
    net_map: tuple[tuple[str, str], ...],
) -> PrimitiveMatch:
    """A match of ``template`` with its constraints renamed onto the
    target devices of ``element_map`` (both maps already sorted)."""
    if template.constraints:
        rename = dict(element_map)
        constraints = tuple(
            c.renamed(rename).with_source(template.name)
            for c in template.constraints
        )
    else:
        constraints = ()
    return PrimitiveMatch(
        primitive=template.name,
        element_map=element_map,
        net_map=net_map,
        constraints=constraints,
    )


def _match_order(match: PrimitiveMatch) -> tuple:
    return (match.element_map, match.net_map)


def _translate(
    profile: "TemplateProfile",
    target: CircuitGraph,
    isos: list[Isomorphism],
) -> list[PrimitiveMatch]:
    """Named, predicate-filtered, deduplicated matches in canonical order."""
    matches: list[PrimitiveMatch] = []
    seen: set[frozenset[str]] = set()
    for iso in isos:
        match = _match_from_isomorphism(profile, target, iso)
        if match is None:
            continue
        key = match.elements
        if key in seen:
            continue  # automorphic duplicate (e.g. DP arm swap)
        seen.add(key)
        matches.append(match)
    # Canonical order: the search enumerates candidate pools (hash
    # sets) in an order that depends on how they were built, and
    # downstream overlap resolution claims devices in match order —
    # sort so every matcher hands identical lists to the claimer.
    matches.sort(key=_match_order)
    return matches


def collect_matches(
    matcher: VF2Matcher,
    profile: "TemplateProfile",
    target: CircuitGraph,
    budget: Budget | None = None,
) -> list[PrimitiveMatch]:
    """Run ``matcher`` to completion and translate what it finds.

    On budget exhaustion the raised
    :class:`~repro.exceptions.BudgetExceeded` carries the matches
    translated so far as ``exc.partial``.
    """
    try:
        isos = matcher.find_all(budget=budget)
    except BudgetExceeded as exc:
        exc.partial = _translate(profile, target, exc.partial or [])
        raise
    return _translate(profile, target, isos)


def find_primitive_matches(
    template: PrimitiveTemplate,
    target: CircuitGraph,
    budget: Budget | None = None,
    *,
    profile: "TemplateProfile | None" = None,
    context: "TargetContext | None" = None,
) -> list[PrimitiveMatch]:
    """All predicate-respecting, deduplicated matches of one template.

    Uses the template's memoized
    :func:`~repro.primitives.index.template_profile` (or an explicit
    ``profile``) plus an optional shared ``context`` for the target,
    with symmetry breaking on.  ``budget`` bounds the underlying VF2
    search (see :func:`collect_matches`).
    """
    from repro.primitives.index import template_profile

    profile = profile or template_profile(template)
    matcher = VF2Matcher(
        template.pattern, target, profile=profile, target_context=context
    )
    return collect_matches(matcher, profile, target, budget)


@dataclass
class AnnotationResult:
    """Outcome of annotating a circuit with the primitive library."""

    matches: list[PrimitiveMatch] = field(default_factory=list)
    unclaimed: list[str] = field(default_factory=list)  # device names

    @property
    def claimed(self) -> set[str]:
        out: set[str] = set()
        for match in self.matches:
            out |= match.elements
        return out

    def constraints(self) -> list[Constraint]:
        out: list[Constraint] = []
        for match in self.matches:
            out.extend(match.constraints)
        return out

    def by_primitive(self) -> dict[str, list[PrimitiveMatch]]:
        grouped: dict[str, list[PrimitiveMatch]] = {}
        for match in self.matches:
            grouped.setdefault(match.primitive, []).append(match)
        return grouped


def claim_matches(
    devices: "list[Device]",
    match_lists: list[list[PrimitiveMatch]],
    allow_overlap: bool = False,
) -> AnnotationResult:
    """Resolve overlaps: visit the lists in order, first claim wins.

    With ``allow_overlap`` every match is reported.  ``unclaimed``
    lists the target ``devices`` no reported match covers.
    """
    result = AnnotationResult()
    covered: set[str] = set()
    for matches in match_lists:
        for match in matches:
            elements = match.elements
            if not allow_overlap and elements & covered:
                continue
            result.matches.append(match)
            covered |= elements
    result.unclaimed = [
        dev.name for dev in devices if dev.name not in covered
    ]
    return result


def annotate_primitives(
    target: CircuitGraph,
    library: PrimitiveLibrary,
    allow_overlap: bool = False,
    budget: Budget | None = None,
    *,
    context: "TargetContext | None" = None,
    profiler: "PipelineProfiler | None" = None,
    match_memo: dict[str, list[PrimitiveMatch]] | None = None,
) -> AnnotationResult:
    """Recognize every primitive in ``target``.

    Default behaviour claims each device for at most one primitive,
    visiting templates largest-first; ``allow_overlap=True`` reports
    every match regardless (useful for analysis/tests).

    ``budget`` is shared across all templates, bounding the *total*
    matching work for the circuit; on exhaustion the raised
    :class:`~repro.exceptions.BudgetExceeded` carries the partial
    :class:`AnnotationResult` (matches accepted before the cutoff, plus
    the partial matches of the interrupted template) as ``exc.partial``.

    A shared ``context`` (built here when not given) serves every
    template, and a template whose element-kind histogram cannot be
    covered by the target's is skipped without launching VF2 — on small
    CCC subgraphs this rejects most of the library in O(1) each.
    ``profiler`` (a :class:`~repro.runtime.profile.PipelineProfiler`)
    collects per-template wall-clock, launch, match, and skip counts.

    ``match_memo`` is the sub-stage incremental-recompute hook: a
    mutable ``{template_fingerprint: [PrimitiveMatch, ...]}`` dict of
    *raw* per-template match lists for this exact target.  Templates
    present in the memo skip VF2 entirely (their matches feed straight
    into overlap resolution, which stays order- and claim-identical);
    templates this call does compute are written back so the caller can
    persist the memo (see
    :class:`repro.core.stages.PrimitiveMatchCache`).  Raw match lists
    are independent of library composition — claiming happens
    afterwards — which is what makes them safely reusable across
    library changes.
    """
    from repro.primitives.index import TargetContext, template_profile

    found: list[list[PrimitiveMatch]] = []
    try:
        for template in library.by_size_desc():
            # Memo first: a fully warm memo answers every template
            # without ever paying for the target context below.
            memo_key = None
            if match_memo is not None:
                memo_key = template_fingerprint(template)
                cached = match_memo.get(memo_key)
                if cached is not None:
                    if profiler is not None:
                        profiler.count("match_cache_hits")
                    found.append(cached)
                    continue
            profile = template_profile(template)
            if context is None:
                context = TargetContext.build(target)
            if not _kinds_coverable(profile, context):
                if profiler is not None:
                    profiler.record_template_skip(template.name)
                if match_memo is not None:
                    # A kind-rejected template's raw match list is the
                    # empty list — memoize it so warm runs skip the
                    # histogram test (and the context) too.
                    match_memo[memo_key] = []
                continue
            started = time.perf_counter()
            matches = find_primitive_matches(
                template, target, budget, profile=profile, context=context
            )
            if profiler is not None:
                profiler.record_template(
                    template.name,
                    seconds=time.perf_counter() - started,
                    matches=len(matches),
                )
            if match_memo is not None:
                match_memo[memo_key] = list(matches)
            found.append(matches)
    except BudgetExceeded as exc:
        found.append(exc.partial or [])
        exc.partial = claim_matches(target.elements, found, allow_overlap)
        raise
    return claim_matches(target.elements, found, allow_overlap)


def _kinds_coverable(
    profile: "TemplateProfile", context: "TargetContext"
) -> bool:
    """Can the target host the template's element-kind histogram?

    A monomorphism maps elements injectively onto same-kind elements,
    so a template needing more devices of some kind than the target
    owns can never match.  O(#kinds in template).
    """
    target_counts = context.kind_counts
    for kind, needed in profile.kind_counts.items():
        if target_counts.get(kind, 0) < needed:
            return False
    return True


@dataclass
class _Shape:
    """The first CCC of one structural shape: its device and net names
    by local position, and its raw per-template match lists."""

    element_names: list[str]
    net_names: list[str]
    raw: dict[str, list[PrimitiveMatch]]


def _ccc_view(
    graph: CircuitGraph,
    members: set[int],
    incidence: tuple[list[int], list[int], list[int]],
    net_vectors: list[tuple[bool, ...]],
) -> tuple["list[Device]", list[str], tuple]:
    """One CCC read off the parent graph: devices, nets, structural key.

    Devices come in element order and nets in first-appearance order
    over their edges (``incidence``: ``element_offsets()`` and the net
    and label edge columns as lists), so local positions are exactly
    the vertex numbering :meth:`CircuitGraph.subgraph_of_elements` would
    give the CCC (sources are dropped there too).  The key holds no names: the
    element kinds, the labelled edges between local positions (so net
    degrees are CCC-local) and each net's port-predicate vector.
    """
    offsets, edge_nets, edge_labels = incidence
    devices = []
    kinds = []
    local_nets: dict[int, int] = {}
    edges = []
    for index in sorted(members):
        device = graph.elements[index]
        if device.kind.is_source:
            continue
        position = len(devices)
        devices.append(device)
        kinds.append(device.kind)
        for edge in range(offsets[index], offsets[index + 1]):
            local = local_nets.setdefault(edge_nets[edge], len(local_nets))
            edges.append((position, local, edge_labels[edge]))
    key = (
        tuple(kinds),
        tuple(edges),
        tuple(net_vectors[net] for net in local_nets),
    )
    return devices, [graph.nets[net] for net in local_nets], key


def _replay_shape(
    shape: _Shape,
    devices: "list[Device]",
    nets: list[str],
    templates: list[PrimitiveTemplate],
    fingerprints: list[str],
    memo: dict[str, list[PrimitiveMatch]] | None,
    profiler: "PipelineProfiler | None",
) -> AnnotationResult:
    """Annotate a CCC from the match lists of an earlier one of its shape.

    Equal keys give equal VF2 searches over local positions, so each
    raw list renames position by position; only the name-dependent
    ``(element_map, net_map)`` order is recomputed before claiming.
    Templates present in ``memo`` are taken from it, and the renamed
    lists are written back to it.
    """
    element_rename = dict(
        zip(shape.element_names, (device.name for device in devices))
    )
    net_rename = dict(zip(shape.net_names, nets))
    found: list[list[PrimitiveMatch]] = []
    for template, fingerprint in zip(templates, fingerprints):
        if memo is not None:
            cached = memo.get(fingerprint)
            if cached is not None:
                if profiler is not None:
                    profiler.count("match_cache_hits")
                found.append(cached)
                continue
        elif not shape.raw[fingerprint]:
            continue  # an empty list claims nothing
        matches = [
            _named_match(
                template,
                tuple((p, element_rename[t]) for p, t in match.element_map),
                tuple((p, net_rename[t]) for p, t in match.net_map),
            )
            for match in shape.raw[fingerprint]
        ]
        matches.sort(key=_match_order)
        if memo is not None:
            memo[fingerprint] = list(matches)
        found.append(matches)
    return claim_matches(devices, found)


def annotate_components(
    graph: CircuitGraph,
    partition: "CCCPartition",
    library: PrimitiveLibrary,
    budget: Budget | None = None,
    profiler: "PipelineProfiler | None" = None,
    match_cache=None,
) -> dict[int, AnnotationResult]:
    """Per-CCC primitive annotation: component id → its matches.

    Matching is scoped to each channel-connected component (the unit
    Postprocessing I reasons about), which both bounds every VF2 launch
    to a handful of vertices and lets the kind-histogram test reject
    most templates per component outright.

    Each CCC is first read as a view of the parent graph
    (:func:`_ccc_view`).  The first CCC of each structural shape pays
    for one subgraph, one :class:`TargetContext` and
    :func:`annotate_primitives`; every later CCC of that shape renames
    those raw match lists onto its own devices and nets
    (:func:`_replay_shape`) with no VF2 at all.  The shape memo lives
    for this call only.

    ``match_cache`` (a
    :class:`repro.core.stages.PrimitiveMatchCache`-shaped object) makes
    matching incremental across runs: each CCC's per-template raw
    match lists are loaded by ``match_cache.ccc_key(devices)``,
    templates already present are taken as they are (the shape memo
    fills only the others), and any newly added lists are stored back —
    but only when the component finished cleanly (a budget blow-up
    must not persist a partial memo).
    """
    templates = library.by_size_desc()
    fingerprints = [template_fingerprint(t) for t in templates]
    _element, edge_nets, edge_labels = graph.edge_arrays()
    incidence = (graph.element_offsets(), edge_nets.tolist(), edge_labels.tolist())
    net_vectors = [port_predicate_vector(net) for net in graph.nets]
    shapes: dict[tuple, _Shape] = {}
    results: dict[int, AnnotationResult] = {}
    for cid, members in enumerate(partition.components):
        if profiler is not None:
            profiler.count("ccc_matched")
        devices, nets, key = _ccc_view(graph, members, incidence, net_vectors)
        memo = None
        cache_key = None
        known = 0
        if match_cache is not None:
            cache_key = match_cache.ccc_key(devices)
            memo = match_cache.load(cache_key)
            known = len(memo)
        shape = shapes.get(key)
        if shape is None:
            raw = memo if memo is not None else {}
            results[cid] = annotate_primitives(
                graph.subgraph_of_elements(members),
                library,
                budget=budget,
                profiler=profiler,
                match_memo=raw,
            )
            shapes[key] = _Shape(
                [device.name for device in devices], nets, dict(raw)
            )
            if profiler is not None:
                profiler.count("ccc_shapes")
        else:
            results[cid] = _replay_shape(
                shape, devices, nets, templates, fingerprints, memo, profiler
            )
            if profiler is not None:
                profiler.count("ccc_shape_hits")
        if match_cache is not None and len(memo) > known:
            match_cache.store(cache_key, memo)
    return results
