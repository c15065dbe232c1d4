"""Hierarchy-scoped annotation: match each unique definition once.

The flat pipeline (``repro.core.pipeline``) annotates every deck as one
flat graph — a phased array with 8 identical receiver chains pays for 8
identical VF2 passes.  This module exploits the
:class:`~repro.spice.flatten.DesignTree` sidecar to do that work once
per *unique subcircuit definition* and replicate it per call site,
while staying byte-identical to the flat path:

* :class:`HierMatchCache` plugs into the untouched
  :func:`repro.primitives.matcher.annotate_components` through its
  ``match_cache`` protocol (``subgraph_key`` / ``load`` / ``store``).
  A channel-connected component whose devices all live inside one
  instance is *canonicalized* against that instance's definition —
  prefix-stripped device names, port-binding-resolved net names,
  per-net port-predicate profiles — and its raw per-template VF2 match
  lists are shared across every instance with the same canonical key,
  renamed into each instance's namespace under a strict
  order-preservation guard.  CCCs that cross an instance boundary (or
  whose rename would not preserve name order) fall back to direct
  matching — the "narrow re-match band" — so the final annotation is
  the one the flat path computes, byte for byte.

* :func:`annotate_definitions` runs one packed GCN forward
  (:meth:`~repro.core.annotator.GcnAnnotator.annotate_batch`) over the
  standalone bodies of all unique ``(fingerprint, multiplier)`` groups.
  Its :class:`DefinitionAnnotation` summaries are advisory — per
  definition class statistics for reporting, caching, and profiling —
  and never touch the byte-identical output path.

Definition-keyed persistence: with a backing
:class:`~repro.runtime.cache.ArtifactCache`, shared entries are stored
under keys embedding the definition fingerprint, so editing one subckt
invalidates exactly that definition's entries (content-addressed: the
new body produces new fingerprints, old entries simply stop matching
and can be swept with ``ArtifactCache.invalidate_prefix``).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.stages import MATCH_CACHE_VERSION
from repro.primitives.matcher import PrimitiveMatch
from repro.spice.flatten import SEP, DesignTree, InstanceRecord
from repro.spice.netlist import is_power_net

#: Versioned prefix shared by every hierarchy-scoped cache entry.
HIER_MATCH_PREFIX = "hier-matches"


#: net name → predicate truth vector.  The ``power``/``supply``/
#: ``ground``/``signal`` predicates read the module-level rail regexes
#: (``SUPPLY_NET_RE``/``GROUND_NET_RE``), so the memo is cleared at the
#: start of every run (:func:`reset_predicate_profile_memo`), together
#: with the ``is_power_net`` memo.
_PRED_PROFILE_MEMO: dict[str, tuple[bool, ...]] = {}


def reset_predicate_profile_memo() -> None:
    """Drop every memoized :func:`_predicate_profile` vector."""
    _PRED_PROFILE_MEMO.clear()


def _predicate_profile(net: str) -> tuple[bool, ...]:
    """Port-predicate truth vector of a real net name.

    Template port checks (:data:`repro.primitives.library.PORT_PREDICATES`)
    evaluate *real* target net names — ``vdd!`` passes ``supply`` where
    ``sig3`` does not — so two instances may only share match lists
    when every net agrees on every predicate.
    """
    profile = _PRED_PROFILE_MEMO.get(net)
    if profile is None:
        from repro.primitives.library import PORT_PREDICATES

        profile = _PRED_PROFILE_MEMO[net] = tuple(
            bool(PORT_PREDICATES[key](net)) for key in sorted(PORT_PREDICATES)
        )
    return profile


def _order_preserving(rename: dict[str, str]) -> bool:
    """True when ``rename`` maps sorted sources onto strictly
    increasing targets.

    Every name-dependent ordering downstream of matching — the sorted
    ``element_map`` / ``net_map`` tuples, the ``(element_map, net_map)``
    match sort, claim order, ``min(match.elements)`` hierarchy names —
    is invariant under an order-preserving rename, which is what makes
    replaying a representative's match lists byte-identical to
    recomputing them.
    """
    previous = None
    for source in sorted(rename):
        target = rename[source]
        if previous is not None and target <= previous:
            return False
        previous = target
    return True


@dataclass
class _CccPlan:
    """Everything :meth:`HierMatchCache.subgraph_key` learned about one
    CCC, consumed by the immediately following ``load``/``store``."""

    key: str
    eligible: bool
    definition: str
    def_fingerprint: str = ""
    scope: str = ""
    dev_canon: dict[str, str] = field(default_factory=dict)
    net_canon: dict[str, str] = field(default_factory=dict)
    reused: bool = False
    started: float = 0.0


@dataclass(frozen=True)
class DefinitionAnnotation:
    """Advisory per-definition GCN summary (one packed forward)."""

    definition: str
    fingerprint: str
    multiplier: float
    n_instances: int
    instance_paths: tuple[str, ...]
    n_devices: int
    class_counts: tuple[tuple[str, int], ...]
    majority_class: str


@dataclass
class HierReport:
    """What the hierarchy-scoped path did for one run."""

    n_definitions: int = 0
    n_instances: int = 0
    n_unique_groups: int = 0
    cccs: int = 0
    interior: int = 0
    boundary: int = 0
    reused: int = 0
    guard_failures: int = 0
    persisted_hits: int = 0
    replayed: int = 0
    #: ``definition → {"instances", "cccs", "reused", "seconds"}``.
    per_definition: dict[str, dict] = field(default_factory=dict)
    definition_annotations: tuple[DefinitionAnnotation, ...] = ()

    def as_dict(self) -> dict:
        return {
            "n_definitions": self.n_definitions,
            "n_instances": self.n_instances,
            "n_unique_groups": self.n_unique_groups,
            "cccs": self.cccs,
            "interior": self.interior,
            "boundary": self.boundary,
            "reused": self.reused,
            "guard_failures": self.guard_failures,
            "persisted_hits": self.persisted_hits,
            "replayed": self.replayed,
            "per_definition": {
                name: dict(stats) for name, stats in self.per_definition.items()
            },
            "definitions": [
                {
                    "definition": d.definition,
                    "fingerprint": d.fingerprint[:12],
                    "multiplier": d.multiplier,
                    "n_instances": d.n_instances,
                    "n_devices": d.n_devices,
                    "majority_class": d.majority_class,
                }
                for d in self.definition_annotations
            ],
        }


class HierMatchCache:
    """Definition-scoped VF2 dedup behind the ``match_cache`` protocol.

    Stateful adapter: :func:`~repro.primitives.matcher.annotate_components`
    calls ``subgraph_key(subgraph)`` then ``load``/``store`` strictly in
    sequence for each CCC, so the plan computed by ``subgraph_key`` is
    stashed and consumed by the very next ``load``/``store`` pair.

    ``artifact_cache`` (optional) persists shared entries across runs
    under definition-fingerprint-keyed entries, and gives boundary CCCs
    the exact flat-path
    :class:`~repro.core.stages.PrimitiveMatchCache` persistence.
    """

    def __init__(
        self,
        tree: DesignTree,
        artifact_cache=None,
        profiler=None,
    ):
        self._tree = tree
        self._cache = artifact_cache
        self._profiler = profiler
        self._records: dict[str, InstanceRecord] = {
            rec.path: rec for rec in tree.instances
        }
        self._globals = set(tree.globals_)
        #: canonical key → {"devices": {canon: rep}, "nets": …, "memo": …}.
        self._entries: dict[str, dict] = {}
        #: (def fingerprint, multiplier, stripped device names) →
        #: canonical plan template (dev_parts + canon-net list), or
        #: None when the representative CCC was ambiguous and every
        #: sibling must take the full walk.
        self._templates: dict[tuple, dict | None] = {}
        self._plan: _CccPlan | None = None
        self._seq = 0
        self.stats = Counter()
        self.per_definition: dict[str, dict] = {}

    # -- plan construction -------------------------------------------------

    def _scope_of(self, devices) -> InstanceRecord | None:
        """Deepest instance whose path prefixes every member device."""
        name = devices[0].name
        if SEP not in name:
            return None
        parts = name.split(SEP)[:-1]
        for depth in range(len(parts), 0, -1):
            path = SEP.join(parts[:depth])
            rec = self._records.get(path)
            if rec is None:
                continue
            prefix = path + SEP
            if all(dev.name.startswith(prefix) for dev in devices):
                return rec
        return None

    def _boundary_plan(self, subgraph) -> _CccPlan:
        if self._cache is not None:
            # With a backing store, boundary CCCs keep the flat path's
            # content-addressed persistence, byte for byte.
            from repro.core.stages import PrimitiveMatchCache

            key = PrimitiveMatchCache.subgraph_key(subgraph)
        else:
            self._seq += 1
            key = f"hier-boundary-{self._seq}"
        return _CccPlan(key=key, eligible=False, definition="(boundary)")

    def _plan_for(self, subgraph) -> _CccPlan:
        devices = subgraph.elements
        if not devices:
            return self._boundary_plan(subgraph)
        rec = self._scope_of(devices)
        if rec is None:
            return self._boundary_plan(subgraph)
        prefix = rec.path + SEP
        dev_names = tuple(dev.name[len(prefix):] for dev in devices)
        template_key = (rec.fingerprint, rec.multiplier, dev_names)
        template = self._templates.get(template_key, False)
        if template is not False:
            if template is not None:
                plan = self._replay_plan(template, rec, prefix)
                if plan is not None:
                    self.stats["replayed"] += 1
                    return plan
            return self._walk_plan(subgraph, rec, prefix, None)
        return self._walk_plan(subgraph, rec, prefix, template_key)

    def _walk_plan(
        self, subgraph, rec: InstanceRecord, prefix: str, template_key
    ) -> _CccPlan:
        """Full canonicalization walk over the CCC's devices and nets.

        When ``template_key`` is given and the walk succeeds, an
        instance-independent plan template is recorded so sibling
        instances can :meth:`_replay_plan` instead of re-walking —
        unless the representative was *ambiguous* (some net belongs to
        more than one canonical class: an interior name that looks like
        a power rail, a port bound to a global, ...), in which case the
        template slot is poisoned with ``None``.
        """
        devices = subgraph.elements
        bound_ports: dict[str, list[str]] = {}
        for port, net in rec.bindings:
            bound_ports.setdefault(net, []).append(port)

        net_canon: dict[str, str] = {}
        real_of: dict[str, str] = {}

        def canon_net(net: str) -> str | None:
            cached = net_canon.get(net)
            if cached is not None:
                return cached
            if net.startswith(prefix):
                canon = f"i:{net[len(prefix):]}"
            elif net in bound_ports:
                canon = "p:" + ",".join(sorted(bound_ports[net]))
            elif net in self._globals or is_power_net(net):
                canon = f"g:{net}"
            else:
                return None  # reaches outside the instance: boundary band
            if real_of.setdefault(canon, net) != net:
                return None  # two real nets collapsed — never share
            net_canon[net] = canon
            return canon

        dev_canon: dict[str, str] = {}
        dev_parts = []
        for dev in devices:
            canon_name = dev.name[len(prefix):]
            pins = []
            for term, net in dev.pins:
                canon = canon_net(net)
                if canon is None:
                    return self._boundary_plan(subgraph)
                pins.append((term, canon))
            dev_canon[canon_name] = dev.name
            dev_parts.append(
                (canon_name, dev.kind.value, tuple(pins), dev.value, dev.model, dev.params)
            )
        net_parts = sorted(
            (canon, _predicate_profile(net)) for net, canon in net_canon.items()
        )
        dev_parts = tuple(dev_parts)
        dev_repr = repr(dev_parts)
        raw = f"({dev_repr}, {tuple(net_parts)!r})"
        digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]
        if template_key is not None:
            # Unambiguous ⇔ every net belongs to exactly one canonical
            # class; only then does replaying the template reproduce
            # this walk on every sibling instance.
            unambiguous = all(
                (
                    net.startswith(prefix)
                    + (net in bound_ports)
                    + (net in self._globals or is_power_net(net))
                )
                == 1
                for net in net_canon
            )
            self._templates[template_key] = (
                {
                    "dev_parts": dev_parts,
                    "dev_repr": dev_repr,
                    "canons": tuple(net_canon.values()),
                }
                if unambiguous
                else None
            )
        return _CccPlan(
            key=f"{HIER_MATCH_PREFIX}-v{MATCH_CACHE_VERSION}-{digest}",
            eligible=True,
            definition=rec.definition,
            def_fingerprint=rec.fingerprint,
            scope=rec.path,
            dev_canon=dev_canon,
            net_canon={canon: net for net, canon in net_canon.items()},
        )

    def _replay_plan(
        self, template: dict, rec: InstanceRecord, prefix: str
    ) -> _CccPlan | None:
        """Rebuild a sibling instance's plan from a definition template.

        The canonical device parts are instance-independent; only the
        canon → real net map (and with it the content digest, via the
        per-net predicate profiles) must be re-derived.  Every step
        that could make this instance classify nets differently from
        the template's representative returns ``None`` — the caller
        falls back to the full walk, so replay can narrow coverage but
        never change a key.
        """
        bound_ports: dict[str, list[str]] = {}
        binding_of: dict[str, str] = {}
        for port, net in rec.bindings:
            bound_ports.setdefault(net, []).append(port)
            binding_of[port] = net
        net_canon: dict[str, str] = {}
        seen: set[str] = set()
        for canon in template["canons"]:
            kind, payload = canon[0], canon[2:]
            if kind == "i":
                real = prefix + payload
                if (
                    real in bound_ports
                    or real in self._globals
                    or is_power_net(real)
                ):
                    return None
            elif kind == "g":
                real = payload
                if real in bound_ports:
                    return None
            else:  # "p": a group of ports bound to one parent net
                group = payload.split(",")
                real = binding_of.get(group[0], "")
                if not real or sorted(bound_ports.get(real, ())) != group:
                    return None
                if (
                    real.startswith(prefix)
                    or real in self._globals
                    or is_power_net(real)
                ):
                    return None
            if real in seen:
                return None
            seen.add(real)
            net_canon[canon] = real
        net_parts = sorted(
            (canon, _predicate_profile(real))
            for canon, real in net_canon.items()
        )
        # Compose the digest input from the precomputed device repr —
        # byte-identical to ``repr((dev_parts, net_parts))`` on the
        # full-walk path.
        raw = f"({template['dev_repr']}, {tuple(net_parts)!r})"
        digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]
        return _CccPlan(
            key=f"{HIER_MATCH_PREFIX}-v{MATCH_CACHE_VERSION}-{digest}",
            eligible=True,
            definition=rec.definition,
            def_fingerprint=rec.fingerprint,
            scope=rec.path,
            dev_canon={
                part[0]: prefix + part[0] for part in template["dev_parts"]
            },
            net_canon=net_canon,
        )

    # -- match_cache protocol ----------------------------------------------

    def subgraph_key(self, subgraph) -> str:
        now = time.perf_counter()
        self._flush(now)
        plan = self._plan_for(subgraph)
        plan.started = now
        self._plan = plan
        self.stats["cccs"] += 1
        self.stats["interior" if plan.eligible else "boundary"] += 1
        return plan.key

    def load(self, key: str) -> dict[str, list[PrimitiveMatch]]:
        plan = self._plan
        if plan is None or plan.key != key or not plan.eligible:
            if self._cache is not None and not key.startswith("hier-boundary-"):
                value = self._cache.load(key)
                if isinstance(value, dict):
                    return value
            return {}
        entry = self._entries.get(key)
        if entry is None and self._cache is not None:
            stored = self._cache.load(self._persist_key(plan))
            if (
                isinstance(stored, dict)
                and {"devices", "nets", "memo"} <= stored.keys()
            ):
                entry = self._entries[key] = stored
                self.stats["persisted_hits"] += 1
        if entry is None:
            return {}
        memo = self._rename_memo(entry, plan)
        if memo is None:
            self.stats["guard_failures"] += 1
            return {}
        plan.reused = True
        self.stats["reused"] += 1
        return memo

    def store(self, key: str, memo: dict[str, list[PrimitiveMatch]]) -> None:
        plan = self._plan
        if plan is None or plan.key != key or not plan.eligible:
            if self._cache is not None and not key.startswith("hier-boundary-"):
                self._cache.store(key, dict(memo))
            return
        entry = {
            "devices": {canon: real for canon, real in plan.dev_canon.items()},
            "nets": {canon: real for canon, real in plan.net_canon.items()},
            "memo": {fp: list(matches) for fp, matches in memo.items()},
        }
        self._entries[key] = entry
        if self._cache is not None:
            self._cache.store(self._persist_key(plan), entry)

    # -- replay -------------------------------------------------------------

    @staticmethod
    def _persist_key(plan: _CccPlan) -> str:
        # The definition fingerprint rides in the key so one subckt
        # edit leaves every other definition's entries untouched (and
        # makes them sweepable by prefix).
        digest = plan.key.rsplit("-", 1)[-1]
        return (
            f"{HIER_MATCH_PREFIX}-def-{plan.def_fingerprint[:12]}-{digest}"
        )

    def _rename_memo(
        self, entry: dict, plan: _CccPlan
    ) -> dict[str, list[PrimitiveMatch]] | None:
        rep_devices: dict[str, str] = entry["devices"]
        rep_nets: dict[str, str] = entry["nets"]
        if len(rep_devices) != len(plan.dev_canon) or len(rep_nets) != len(
            plan.net_canon
        ):
            return None
        dev_rename: dict[str, str] = {}
        for canon, rep_name in rep_devices.items():
            current = plan.dev_canon.get(canon)
            if current is None:
                return None
            dev_rename[rep_name] = current
        net_rename: dict[str, str] = {}
        for canon, rep_net in rep_nets.items():
            current = plan.net_canon.get(canon)
            if current is None:
                return None
            net_rename[rep_net] = current
        if not _order_preserving(dev_rename) or not _order_preserving(net_rename):
            return None
        try:
            memo: dict[str, list[PrimitiveMatch]] = {}
            for template_fp, matches in entry["memo"].items():
                memo[template_fp] = [
                    PrimitiveMatch(
                        primitive=m.primitive,
                        # Stored maps are sorted by template name, and
                        # template names are unique within a map, so an
                        # order-preserving rename leaves the sort order
                        # untouched — no re-sort needed.
                        element_map=tuple(
                            (t, dev_rename[x]) for t, x in m.element_map
                        ),
                        net_map=tuple(
                            (t, net_rename[x]) for t, x in m.net_map
                        ),
                        constraints=tuple(
                            c.renamed(dev_rename) for c in m.constraints
                        ),
                    )
                    for m in matches
                ]
            return memo
        except KeyError:
            return None

    # -- per-definition attribution ------------------------------------------

    def _flush(self, now: float) -> None:
        plan = self._plan
        if plan is None:
            return
        stats = self.per_definition.setdefault(
            plan.definition,
            {"instances": set(), "cccs": 0, "reused": 0, "seconds": 0.0},
        )
        stats["cccs"] += 1
        stats["seconds"] += now - plan.started
        if plan.scope:
            stats["instances"].add(plan.scope)
        if plan.reused:
            stats["reused"] += 1
        self._plan = None

    def finalize(
        self,
        definition_annotations: tuple[DefinitionAnnotation, ...] = (),
    ) -> HierReport:
        """Flush attribution, feed the profiler, and build the report."""
        self._flush(time.perf_counter())
        per_definition = {
            name: {
                "instances": len(stats["instances"]),
                "cccs": stats["cccs"],
                "reused": stats["reused"],
                "seconds": stats["seconds"],
            }
            for name, stats in self.per_definition.items()
        }
        if self._profiler is not None:
            for name, stats in per_definition.items():
                self._profiler.record_definition(
                    name,
                    instances=stats["instances"],
                    cccs=stats["cccs"],
                    reused=stats["reused"],
                    seconds=stats["seconds"],
                )
        return HierReport(
            n_definitions=len(self._tree.definitions),
            n_instances=len(self._tree.instances),
            n_unique_groups=self._tree.n_unique(),
            cccs=self.stats["cccs"],
            interior=self.stats["interior"],
            boundary=self.stats["boundary"],
            reused=self.stats["reused"],
            guard_failures=self.stats["guard_failures"],
            persisted_hits=self.stats["persisted_hits"],
            replayed=self.stats["replayed"],
            per_definition=per_definition,
            definition_annotations=definition_annotations,
        )


# ---------------------------------------------------------------------------
# Per-definition packed GCN summaries (advisory)
# ---------------------------------------------------------------------------

#: (annotator fp, definition fp, multiplier) → summary.  Content-keyed,
#: so it is safe to share process-wide and is never reset per run:
#: repeat runs in one process (fleets, benchmarks) skip the
#: per-definition forward without needing a disk cache.  Cleared when
#: full, so a long-lived process over many decks stays bounded.
_DEF_ANN_MEMO: dict[tuple[str, str, float], DefinitionAnnotation] = {}
_DEF_ANN_MEMO_MAX = 1024


def _remember_definition(key: tuple[str, str, float], summary: DefinitionAnnotation) -> None:
    if len(_DEF_ANN_MEMO) >= _DEF_ANN_MEMO_MAX:
        _DEF_ANN_MEMO.clear()
    _DEF_ANN_MEMO[key] = summary


def annotate_definitions(
    tree: DesignTree, annotator, cache=None
) -> tuple[DefinitionAnnotation, ...]:
    """One packed GCN forward over every unique definition body.

    Classifies each unique ``(fingerprint, multiplier)`` group's
    standalone body through
    :meth:`~repro.core.annotator.GcnAnnotator.annotate_batch` and
    summarizes per-definition class statistics.  Advisory only: the
    byte-identical annotation path never consumes these.  Summaries are
    memoized in-process per (annotator, definition, multiplier); with a
    backing ``cache`` (an :class:`~repro.runtime.cache.ArtifactCache`)
    they also persist across processes.
    """
    from repro.core.stages import annotator_fingerprint
    from repro.graph.bipartite import CircuitGraph
    from repro.spice.preprocess import preprocess

    groups = tree.groups()
    try:
        ann_fp = annotator_fingerprint(annotator)
    except Exception:
        ann_fp = ""
        cache = None
    items = []
    for (fingerprint, multiplier), paths in sorted(groups.items()):
        body = tree.bodies.get((fingerprint, multiplier))
        if body is None:
            continue
        if not any(not d.kind.is_source for d in body.devices):
            continue
        items.append((fingerprint, multiplier, paths, body))

    def rescoped(stored: DefinitionAnnotation, paths) -> DefinitionAnnotation:
        return DefinitionAnnotation(
            definition=stored.definition,
            fingerprint=stored.fingerprint,
            multiplier=stored.multiplier,
            n_instances=len(paths),
            instance_paths=tuple(paths),
            n_devices=stored.n_devices,
            class_counts=stored.class_counts,
            majority_class=stored.majority_class,
        )

    summaries: dict[int, DefinitionAnnotation] = {}
    pending: list[int] = []
    keys: dict[int, str] = {}
    memo_keys: dict[int, tuple[str, str, float]] = {}
    for index, (fingerprint, multiplier, paths, body) in enumerate(items):
        if ann_fp:
            memo_key = (ann_fp, fingerprint, multiplier)
            memo_keys[index] = memo_key
            memoized = _DEF_ANN_MEMO.get(memo_key)
            if memoized is not None:
                summaries[index] = rescoped(memoized, paths)
                continue
        if cache is not None:
            key = (
                f"hier-def-ann-{ann_fp[:12]}-{fingerprint[:12]}-{multiplier!r}"
            )
            keys[index] = key
            stored = cache.load(key)
            if isinstance(stored, DefinitionAnnotation):
                summary = rescoped(stored, paths)
                summaries[index] = summary
                if index in memo_keys:
                    _remember_definition(memo_keys[index], summary)
                continue
        pending.append(index)

    if pending:
        graphs = []
        for index in pending:
            body = items[index][3]
            reduced, _report = preprocess(body)
            graphs.append(CircuitGraph.from_circuit(reduced))
        if len(graphs) > 1 and callable(getattr(annotator, "annotate_batch", None)):
            annotations = annotator.annotate_batch(graphs)
        else:
            annotations = [annotator.annotate(graph) for graph in graphs]
        for index, annotation in zip(pending, annotations):
            fingerprint, multiplier, paths, body = items[index]
            counts = Counter(annotation.element_classes.values())
            majority = counts.most_common(1)[0][0] if counts else "?"
            summary = DefinitionAnnotation(
                definition=_definition_name_of(tree, fingerprint),
                fingerprint=fingerprint,
                multiplier=multiplier,
                n_instances=len(paths),
                instance_paths=tuple(paths),
                n_devices=annotation.graph.n_elements,
                class_counts=tuple(sorted(counts.items())),
                majority_class=majority,
            )
            summaries[index] = summary
            if index in memo_keys:
                _remember_definition(memo_keys[index], summary)
            if cache is not None:
                cache.store(keys[index], summary)
    return tuple(summaries[i] for i in range(len(items)) if i in summaries)


def _definition_name_of(tree: DesignTree, fingerprint: str) -> str:
    for key, definition in tree.definitions.items():
        if definition.fingerprint == fingerprint:
            return definition.name
    return fingerprint[:12]
