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
component: one shared context per CCC-induced subgraph, with the
template profiles shared across all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.constraints import Constraint
from repro.exceptions import BudgetExceeded
from repro.graph.bipartite import CircuitGraph
from repro.primitives.isomorphism import Isomorphism, VF2Matcher
from repro.primitives.library import (
    PrimitiveLibrary,
    PrimitiveTemplate,
    template_fingerprint,
)
from repro.runtime.resilience import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.ccc import CCCPartition
    from repro.primitives.index import TargetContext, TemplateProfile
    from repro.runtime.profile import PipelineProfiler


@dataclass(frozen=True)
class PrimitiveMatch:
    """One recognized primitive instance in the target circuit."""

    primitive: str
    element_map: tuple[tuple[str, str], ...]  # template device → target device
    net_map: tuple[tuple[str, str], ...]  # template net → target net
    constraints: tuple[Constraint, ...]  # already renamed to target devices

    @property
    def elements(self) -> frozenset[str]:
        """Target device names claimed by this match."""
        return frozenset(name for _, name in self.element_map)

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
        element_map=tuple(sorted(element_map)),
        net_map=tuple(sorted(net_map)),
        constraints=constraints,
    )


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
    matches.sort(key=lambda m: (m.element_map, m.net_map))
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
    target: CircuitGraph,
    match_lists: list[list[PrimitiveMatch]],
    allow_overlap: bool = False,
) -> AnnotationResult:
    """Resolve overlaps: visit the lists in order, first claim wins.

    With ``allow_overlap`` every match is reported.  ``unclaimed``
    lists the target devices no reported match covers.
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
        dev.name for dev in target.elements if dev.name not in covered
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
        exc.partial = claim_matches(target, found, allow_overlap)
        raise
    return claim_matches(target, found, allow_overlap)


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


def annotate_components(
    graph: CircuitGraph,
    partition: "CCCPartition",
    library: PrimitiveLibrary,
    budget: Budget | None = None,
    profiler: "PipelineProfiler | None" = None,
    match_cache=None,
) -> dict[int, AnnotationResult]:
    """Per-CCC primitive annotation: component id → its matches.

    Matching is scoped to each channel-connected component's induced
    subgraph (the unit Postprocessing I reasons about), which both
    bounds every VF2 launch to a handful of vertices and lets the
    kind-histogram test reject most templates per component outright.
    Template profiles are shared across every component; each component
    pays for one subgraph + one :class:`TargetContext`.

    ``match_cache`` (a
    :class:`repro.core.stages.PrimitiveMatchCache`-shaped object) makes
    matching incremental across runs: each subgraph's per-template raw
    match lists are loaded by subgraph content key, templates already
    present skip VF2, and any newly computed lists are stored back —
    but only when the component finished cleanly (a budget blow-up
    must not persist a partial memo).
    """
    results: dict[int, AnnotationResult] = {}
    for cid, members in enumerate(partition.components):
        if profiler is not None:
            profiler.count("ccc_matched")
        subgraph = graph.subgraph_of_elements(members)
        memo = None
        cache_key = None
        known = 0
        if match_cache is not None:
            cache_key = match_cache.subgraph_key(subgraph)
            memo = match_cache.load(cache_key)
            known = len(memo)
        results[cid] = annotate_primitives(
            subgraph,
            library,
            budget=budget,
            profiler=profiler,
            match_memo=memo,
        )
        if match_cache is not None and len(memo) > known:
            match_cache.store(cache_key, memo)
    return results
