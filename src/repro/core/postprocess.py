"""Postprocessing I and II (Sec. V-A).

The GCN is deliberately not asked to be perfect; two classes of cheap
heuristics lift its output to 100 % on all test sets:

**Postprocessing I** (design-independent, graph-based)

* vote: every element of a channel-connected component (CCC) takes the
  component's probability-weighted majority class;
* primitive annotation inside each CCC (Sec. IV);
* stand-alone separation: a CCC fully covered by auxiliary primitives
  (inverters, buffers, switches, references) is pulled out of the
  sub-block and re-labeled with the primitive's own class — the paper's
  "input buffer for an oscillator" case;
* BPF detection: a CCC that looks like an oscillator (cross-coupled
  pair) but has input transistors driven from another block is a
  band-pass filter, "a combination of an oscillator with two input
  transistors".

**Postprocessing II** (class-specific port rules)

* the CCC touching an ``antenna``-labeled net is an LNA;
* the CCC *driving* an ``oscillating``-labeled net (drain/source
  contact) is an oscillator; CCCs *receiving* it (gate contact) are
  mixers.

Port labels "can be provided by the designer as a separate label on the
port, or can be inferred from the test bench in the input SPICE
netlist" — here they arrive as an explicit ``{net: label}`` mapping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.annotator import Annotation
from repro.graph.bipartite import DRAIN_BIT, GATE_BIT, SOURCE_BIT, CircuitGraph
from repro.graph.ccc import CCCPartition, channel_connected_components
from repro.primitives.library import PrimitiveLibrary
from repro.primitives.matcher import PrimitiveMatch, annotate_components
from repro.spice.netlist import is_power_net

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.profile import PipelineProfiler

#: Primitives that may stand alone outside any sub-block (Post-I).
#: Deliberately small: auxiliary digital-ish cells only.  Structures
#: like current references are *integral* to a bias network in the
#: OTA task and must not be separated; callers with other vocabularies
#: can pass their own set to :func:`postprocess_ccc`.
STANDALONE_PRIMITIVES = frozenset({"INV", "BUF"})

#: The RF vocabulary Postprocessing II's port rules apply to.
RF_CLASSES = ("lna", "mixer", "osc")


@dataclass
class PostprocessResult:
    """Annotation after a postprocessing stage, plus what it found."""

    annotation: Annotation
    partition: CCCPartition
    ccc_classes: dict[int, int] = field(default_factory=dict)
    standalone: list[tuple[int, PrimitiveMatch]] = field(default_factory=list)
    ccc_matches: dict[int, list[PrimitiveMatch]] = field(default_factory=dict)


def _ccc_tallies(
    annotation: Annotation, partition: CCCPartition
) -> dict[int, np.ndarray]:
    """Per-CCC probability tallies over the GCN classes.

    One vectorized scatter-add over all elements (``np.add.at``), not a
    Python loop per component member.
    """
    n_gcn_classes = len(annotation.class_names)
    n_components = partition.n_components
    tallies = np.zeros((n_components, n_gcn_classes))
    if partition.of_element:
        n = len(partition.of_element)
        elements = np.fromiter(
            partition.of_element.keys(), dtype=np.int64, count=n
        )
        cids = np.fromiter(
            partition.of_element.values(), dtype=np.int64, count=n
        )
        if annotation.probabilities is not None:
            np.add.at(tallies, cids, annotation.probabilities[elements])
        else:
            classes = annotation.vertex_classes[elements].astype(np.int64)
            valid = (classes >= 0) & (classes < n_gcn_classes)
            np.add.at(tallies, (cids[valid], classes[valid]), 1.0)
    return {cid: tallies[cid] for cid in range(n_components)}


def _ccc_vote(
    annotation: Annotation, partition: CCCPartition
) -> dict[int, int]:
    """Probability-weighted majority class per CCC (GCN classes only)."""
    tallies = _ccc_tallies(annotation, partition)
    return {
        cid: int(t.argmax()) if t.sum() > 0 else -1 for cid, t in tallies.items()
    }


def _relabel(
    annotation: Annotation,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
) -> None:
    """Write CCC classes back onto element and net vertices.

    Each element takes its CCC's class.  A net takes the class of its
    adjacent CCCs when they agree; when they disagree the net is on a
    block boundary and keeps the class of the CCC it touches most
    (the paper lets such vertices belong to multiple blocks).
    """
    graph = annotation.graph
    for cid, members in enumerate(partition.components):
        cls = ccc_classes.get(cid, -1)
        if cls < 0:
            continue
        for element in members:
            annotation.vertex_classes[element] = cls

    # Net vertices: tally adjacent element classes, weighted by edges.
    net_tally: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for edge in graph.edges:
        cls = int(annotation.vertex_classes[edge.element])
        if cls >= 0:
            net_tally[edge.net][cls] += 1
    offset = graph.n_elements
    for net_local, tally in net_tally.items():
        best = max(tally.items(), key=lambda kv: kv[1])[0]
        annotation.vertex_classes[offset + net_local] = best


def _element_owners(
    graph: CircuitGraph, partition: CCCPartition
) -> np.ndarray:
    """Element index → component id array (−1 when unassigned)."""
    owners = np.full(graph.n_elements, -1, dtype=np.int64)
    for element, cid in partition.of_element.items():
        owners[element] = cid
    return owners


def _power_net_mask(graph: CircuitGraph) -> np.ndarray:
    """Boolean mask over local net indices: is this a power net?"""
    return np.fromiter(
        (is_power_net(net) for net in graph.nets),
        dtype=bool,
        count=graph.n_nets,
    )


def _ds_drivers(
    graph: CircuitGraph, partition: CCCPartition
) -> dict[int, set[int]]:
    """Net (local index) → CCCs touching it via a drain/source edge.

    Computed once per circuit and shared by every
    :func:`_ccc_boundary_inputs` call — the old per-call O(E) rebuild
    was one of the Postprocessing I hot spots.
    """
    element, net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    drivers: dict[int, set[int]] = defaultdict(set)
    mask = (label & (DRAIN_BIT | SOURCE_BIT)).astype(bool) & (
        owners[element] >= 0
    )
    for n, owner in zip(net[mask], owners[element[mask]]):
        drivers[int(n)].add(int(owner))
    return dict(drivers)


def _ccc_boundary_inputs(
    graph: CircuitGraph,
    partition: CCCPartition,
    cid: int,
    drivers: dict[int, set[int]] | None = None,
) -> list[int]:
    """Transistors of CCC ``cid`` whose gate net is driven from outside.

    "Driven from outside" = the gate net touches another CCC through a
    drain/source edge and is not a power net.  These are the "input
    transistors" of the BPF rule.  Pass a precomputed ``drivers`` map
    (:func:`_ds_drivers`) when calling for more than one component.
    """
    inputs: list[int] = []
    members = partition.components[cid]
    if drivers is None:
        drivers = _ds_drivers(graph, partition)
    by_element = graph.element_edge_lists()
    member_edges = (edge for m in members for edge in by_element[m])
    for edge in member_edges:
        if not (edge.label & GATE_BIT):
            continue
        net_name = graph.nets[edge.net]
        if is_power_net(net_name):
            continue
        outside = drivers.get(edge.net, set()) - {cid}
        if not outside:
            continue
        # A true *input* transistor injects from a rail into the tank
        # (common-source).  A device whose drain AND source both sit on
        # internal circuit nets is an injection/coupling device of an
        # injection-locked oscillator, not a filter input.
        dev = graph.elements[edge.element]
        pins = dev.pin_map
        if is_power_net(pins["s"]) or is_power_net(pins["d"]):
            inputs.append(edge.element)
    return sorted(set(inputs))


def _mirror_clusters(
    graph: CircuitGraph, partition: CCCPartition
) -> list[set[int]]:
    """Group CCCs that form one current-mirror tree.

    The paper motivates flattening with exactly this structure: bias
    mirrors "split current mirror functionality across blocks".  A
    component whose *every* externally-driven transistor gate is tied
    to the gate/drain net of a diode-connected transistor of a single
    other component is a mirror branch of that component; branch and
    owner belong to one functional unit and should be voted jointly.
    """
    # Edge predicates as numpy masks over the cached edge arrays; only
    # matching edges fall back to Python (dict/set insertion).
    element, net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    edge_owner = owners[element]
    is_gate = (label & GATE_BIT).astype(bool)
    is_drain = (label & DRAIN_BIT).astype(bool)

    # Diode-connected transistors: a single edge carrying both the gate
    # and drain bits.  Map their net to the owning CCC (edge order, so
    # the last diode edge on a net wins — same as the scalar loop).
    diode_net_owner: dict[int, int] = {}
    diode_mask = is_gate & is_drain & (edge_owner >= 0)
    for n, owner in zip(net[diode_mask], edge_owner[diode_mask]):
        diode_net_owner[int(n)] = int(owner)

    # Per-CCC: gate nets of transistors that are not self-diode.
    external_gates: dict[int, set[int]] = defaultdict(set)
    gate_mask = (
        is_gate
        & ~is_drain
        & (edge_owner >= 0)
        & ~_power_net_mask(graph)[net]
    )
    for n, owner in zip(net[gate_mask], edge_owner[gate_mask]):
        external_gates[int(owner)].add(int(n))

    parent = list(range(partition.n_components))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cid in range(partition.n_components):
        gates = external_gates.get(cid, set())
        if not gates:
            continue
        owners = {diode_net_owner.get(net) for net in gates}
        if None in owners:
            continue  # some gate is not mirror-driven
        owners.discard(cid)
        if len(owners) != 1:
            continue
        (owner,) = owners
        parent[find(cid)] = find(owner)

    clusters: dict[int, set[int]] = defaultdict(set)
    for cid in range(partition.n_components):
        clusters[find(cid)].add(cid)
    return [members for members in clusters.values() if len(members) > 1]


def _joint_mirror_vote(
    graph: CircuitGraph,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
    tallies: dict[int, np.ndarray],
    protected: set[int],
) -> None:
    """Re-vote mirror-linked CCC clusters jointly.

    Summing the member tallies makes the vote robust both ways: a
    misclassified two-device reference is outvoted by its correctly
    classified branches, and a misclassified branch is outvoted by the
    rest of its tree.  ``protected`` CCCs (stand-alone primitives,
    detected BPFs) keep their classes.
    """
    for cluster in _mirror_clusters(graph, partition):
        votable = [cid for cid in cluster if cid not in protected]
        if len(votable) < 2:
            continue
        total = sum(tallies[cid] for cid in votable)
        if total.sum() <= 0:
            continue
        winner = int(total.argmax())
        for cid in votable:
            ccc_classes[cid] = winner


def _absorb_orphans(
    graph: CircuitGraph,
    partition: CCCPartition,
    ccc_classes: dict[int, int],
    protected: set[int],
    max_size: int = 2,
) -> None:
    """Fold tiny single-neighbor CCCs into their host sub-block.

    An input buffer (a lone source follower between a primary input and
    a differential pair) is channel-connected to nothing, so it forms
    its own one-device component; the paper's Post-I treats such
    auxiliary primitives as part of the unit they serve.  A component
    of ≤ ``max_size`` elements whose non-power nets reach exactly one
    other component inherits that component's class.

    Components containing a diode-connected transistor are exempt: they
    are mirror roots (e.g. a bias current reference whose only fanout
    is the tail gate of one OTA) and stay their own functional unit.
    """
    element, _net, label = graph.edge_arrays()
    owners = _element_owners(graph, partition)
    diode_mask = (
        (label & GATE_BIT).astype(bool)
        & (label & DRAIN_BIT).astype(bool)
        & (owners[element] >= 0)
    )
    diode_owners = {int(o) for o in owners[element[diode_mask]]}

    by_element = graph.element_edge_lists()
    for cid, members in enumerate(partition.components):
        if cid in protected or len(members) > max_size or cid in diode_owners:
            continue
        neighbors: set[int] = set()
        for edge in (e for m in members for e in by_element[m]):
            if is_power_net(graph.nets[edge.net]):
                continue
            neighbors |= partition.of_net.get(edge.net, set())
        neighbors.discard(cid)
        neighbors -= protected
        if len(neighbors) != 1:
            continue
        (host,) = neighbors
        if len(partition.components[host]) <= len(members):
            continue  # only absorb into a larger host
        target = ccc_classes.get(host, -1)
        if target >= 0:
            ccc_classes[cid] = target


def postprocess_ccc(
    annotation: Annotation,
    library: PrimitiveLibrary,
    partition: CCCPartition | None = None,
    detect_bpf: bool = True,
    standalone_primitives: frozenset[str] | None = None,
    mirror_vote: bool = True,
    absorb_orphans: bool = True,
    profiler: "PipelineProfiler | None" = None,
    match_cache=None,
) -> PostprocessResult:
    """Postprocessing I: CCC vote, primitive annotation, stand-alone
    separation, BPF detection.  Returns a new annotation.

    ``standalone_primitives`` overrides which templates may be pulled
    out as stand-alone units; by default the auxiliary INV/BUF cells
    are separated only when the annotation uses the RF vocabulary.
    ``mirror_vote`` and ``absorb_orphans`` toggle the two vote-repair
    heuristics (exposed for the ablation benchmark).  ``profiler``
    collects per-template matching statistics.  ``match_cache`` (a
    :class:`repro.core.stages.PrimitiveMatchCache`) reuses per-CCC,
    per-template VF2 results across runs — the annotation is identical
    with or without it.
    """
    annotation = annotation.copy()
    graph = annotation.graph
    partition = partition or channel_connected_components(graph)
    ccc_classes = _ccc_vote(annotation, partition)
    rf_vocab_early = all(c in annotation.class_names for c in RF_CLASSES)
    if standalone_primitives is None:
        standalone_primitives = (
            STANDALONE_PRIMITIVES if rf_vocab_early else frozenset()
        )

    result = PostprocessResult(
        annotation=annotation, partition=partition, ccc_classes=ccc_classes
    )

    rf_vocab = rf_vocab_early

    component_matches = annotate_components(
        graph,
        partition,
        library,
        profiler=profiler,
        match_cache=match_cache,
    )
    ds_drivers = (
        _ds_drivers(graph, partition) if detect_bpf and rf_vocab else None
    )

    for cid, members in enumerate(partition.components):
        matches = component_matches[cid]
        result.ccc_matches[cid] = matches.matches

        member_names = {graph.elements[i].name for i in members}

        standalone_here = [
            m
            for m in matches.matches
            if m.primitive in standalone_primitives
        ]
        fully_standalone = (
            standalone_here
            and {n for m in standalone_here for n in m.elements} == member_names
        )
        if fully_standalone:
            # The whole CCC is auxiliary circuitry: re-label it by its
            # dominant primitive and list it separately in the tree.
            dominant = max(standalone_here, key=lambda m: len(m.elements))
            cls_id = annotation.class_id(dominant.primitive.lower(), create=True)
            ccc_classes[cid] = cls_id
            for match in standalone_here:
                result.standalone.append((cid, match))
            continue

        if detect_bpf and rf_vocab:
            # Purely structural, independent of the GCN vote: "the BPF
            # is identified as a combination of an oscillator with two
            # input transistors".  A cross-coupled pair plus input
            # transistors injecting from a rail is a Q-enhanced filter;
            # injection-locked oscillators (whose injection device sits
            # *across* the tank) are excluded by the rail condition.
            has_cc_pair = any(
                m.primitive in ("CC-N", "CC-P") for m in matches.matches
            )
            inputs = _ccc_boundary_inputs(
                graph, partition, cid, drivers=ds_drivers
            )
            if has_cc_pair and inputs:
                ccc_classes[cid] = annotation.class_id("bpf", create=True)

    protected = {cid for cid, _match in result.standalone}
    protected |= {
        cid
        for cid, cls in ccc_classes.items()
        if cls >= len(annotation.class_names)  # extra classes (bpf, …)
    }
    tallies = _ccc_tallies(annotation, partition)
    if mirror_vote:
        _joint_mirror_vote(graph, partition, ccc_classes, tallies, protected)
    if absorb_orphans:
        _absorb_orphans(graph, partition, ccc_classes, protected)
    result.ccc_classes = ccc_classes
    _relabel(annotation, partition, ccc_classes)
    return result


def apply_port_rules(
    result: PostprocessResult,
    port_labels: dict[str, str],
) -> PostprocessResult:
    """Postprocessing II: antenna/oscillating port rules.

    Only CCCs currently holding a GCN-vocabulary RF class are
    re-labeled; stand-alone primitives and BPFs found in Post-I keep
    their classes.
    """
    annotation = result.annotation.copy()
    partition = result.partition
    graph = annotation.graph
    ccc_classes = dict(result.ccc_classes)

    rf_ids = {
        name: annotation.class_names.index(name)
        for name in RF_CLASSES
        if name in annotation.class_names
    }
    if not rf_ids:
        return PostprocessResult(
            annotation=annotation,
            partition=partition,
            ccc_classes=ccc_classes,
            standalone=list(result.standalone),
            ccc_matches=dict(result.ccc_matches),
        )
    mutable = set(rf_ids.values())

    edges_by_net: dict[int, list] = defaultdict(list)
    for edge in graph.edges:
        edges_by_net[edge.net].append(edge)

    def touching(net_local: int, bits: int) -> set[int]:
        out: set[int] = set()
        for edge in edges_by_net.get(net_local, ()):
            if bits and not (edge.label & bits):
                continue
            owner = partition.of_element.get(edge.element)
            if owner is not None:
                out.add(owner)
        return out

    for net, label in port_labels.items():
        if net not in graph.net_index:
            continue
        net_local = graph.net_index[net]
        if label == "antenna":
            for cid in touching(net_local, bits=0):
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("lna", ccc_classes[cid])
        elif label == "oscillating":
            drive = touching(net_local, bits=DRAIN_BIT | SOURCE_BIT)
            receive = touching(net_local, bits=GATE_BIT) - drive
            for cid in drive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("osc", ccc_classes[cid])
            for cid in receive:
                if ccc_classes.get(cid) in mutable:
                    ccc_classes[cid] = rf_ids.get("mixer", ccc_classes[cid])

    _relabel(annotation, partition, ccc_classes)
    return PostprocessResult(
        annotation=annotation,
        partition=partition,
        ccc_classes=ccc_classes,
        standalone=list(result.standalone),
        ccc_matches=dict(result.ccc_matches),
    )
