"""Channel-connected components (Postprocessing I, Sec. V-A).

The paper (footnote 1): *"A channel-connected component is a cluster of
transistors connected at the sources and drains (not counting
connections to supply and ground nodes). It can be identified using
simple linear-time graph traversal schemes."*

:func:`channel_connected_components` implements exactly that with a
union–find over transistor elements, read off the graph's edge arrays;
passives and nets are then assigned to the CCC they touch, which is
what the postprocessing vote operates on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import DRAIN_BIT, SOURCE_BIT, CircuitGraph


@dataclass
class CCCPartition:
    """The channel-connected decomposition of a circuit graph.

    ``components`` lists element-index sets (transistors plus absorbed
    passives); ``of_element`` maps element index → component id;
    ``of_net`` maps local net index → set of component ids touching it
    (a net can border several CCCs).
    """

    components: list[set[int]]
    of_element: dict[int, int]
    of_net: dict[int, set[int]]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_of(self, element: int) -> int | None:
        return self.of_element.get(element)


def channel_connected_components(graph: CircuitGraph) -> CCCPartition:
    """Partition elements into channel-connected components.

    Two transistors are channel-connected when a source or drain of one
    shares a non-power net with a source or drain of the other.
    Passives join the component their nets touch (ties broken toward
    the lowest component id); a passive touching no transistor CCC
    becomes its own singleton component — that is how stand-alone
    passive structures (e.g. input-buffer RC) separate out.

    Edge predicates are numpy masks over the graph's edge arrays; only
    the union–find and the output containers are Python.  Component ids
    follow the lowest transistor index, then passives in index order.
    """
    element, net, label = graph.edge_arrays()
    n_elements = graph.n_elements
    transistor = graph.transistor_mask()
    power = graph.power_net_mask()

    # Union–find (path halving): each channel edge joins its transistor
    # to the first transistor seen on the same net.
    parent = list(range(n_elements))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    channel = transistor[element] & ~power[net] & (label & (SOURCE_BIT | DRAIN_BIT) != 0)
    first_on_net: dict[int, int] = {}
    for member, net_local in zip(element[channel].tolist(), net[channel].tolist()):
        root_a, root_b = find(first_on_net.setdefault(net_local, member)), find(member)
        if root_a != root_b:
            parent[root_a] = root_b

    root_to_id: dict[int, int] = {}
    components: list[set[int]] = []
    of_element: dict[int, int] = {}
    transistors = np.flatnonzero(transistor).tolist()
    for idx in transistors:
        cid = root_to_id.setdefault(find(idx), len(components))
        if cid == len(components):
            components.append(set())
        components[cid].add(idx)
        of_element[idx] = cid

    # Passives: join the lowest transistor component on any of their
    # non-power nets (all terminals count, gates included), else become
    # singletons.  Power nets never bind a passive to a component — a
    # load cap to ground must not join whichever component also touches
    # ground.
    n_bound = len(components)
    owner = np.full(n_elements, n_bound, dtype=np.int64)
    owner[transistors] = list(of_element.values())
    lowest_on_net = np.full(graph.n_nets, n_bound, dtype=np.int64)
    np.minimum.at(lowest_on_net, net, owner[element])
    binding = ~transistor[element] & ~power[net]
    lowest = np.full(n_elements, n_bound, dtype=np.int64)
    np.minimum.at(lowest, element[binding], lowest_on_net[net[binding]])
    for idx in np.flatnonzero(~transistor).tolist():
        cid = int(lowest[idx])
        if cid == n_bound:
            cid = len(components)
            components.append(set())
        components[cid].add(idx)
        of_element[idx] = owner[idx] = cid

    # Net -> component adjacency over every terminal, including gates:
    # a gate net inside one CCC driven by another is exactly the
    # boundary case the paper allows to belong to multiple sub-blocks.
    # ``of_element``'s int objects go into the sets: one per element,
    # not one per edge.
    of_net: dict[int, set[int]] = defaultdict(set)
    for net_local, idx in zip(net.tolist(), element.tolist()):
        of_net[net_local].add(of_element[idx])
    return CCCPartition(components=components, of_element=of_element, of_net=dict(of_net))
