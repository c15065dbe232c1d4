"""Bipartite circuit-graph representation (Sec. II-C).

A flat circuit becomes an undirected bipartite graph ``G(V, E)`` with
``V = Ve ∪ Vn``: element vertices (transistors and passives) and net
vertices.  Each transistor edge carries the paper's 3-bit label
``lg ls ld`` — bit set when the transistor touches that net through its
gate / source / drain.  A transistor that touches one net through two
terminals gets the OR of the bits on a single edge (e.g. a
diode-connected device has a ``101`` edge).  Passive edges are
unlabeled (label 0).

Body terminals are excluded from the edge set, matching the paper's
figures ("body connections are not shown"); bulk nets are almost always
power rails and would only blur the spectral filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphConstructionError
from repro.graph.laplacian import csr_from_rows
from repro.spice.netlist import Circuit, Device, is_power_net

#: Bit positions of the 3-bit edge label ``lg ls ld`` (gate is the MSB).
GATE_BIT = 0b100
SOURCE_BIT = 0b010
DRAIN_BIT = 0b001

_TERMINAL_BITS = {"g": GATE_BIT, "s": SOURCE_BIT, "d": DRAIN_BIT}


@dataclass(frozen=True)
class Edge:
    """An undirected element–net edge with its 3-bit label."""

    element: int  # element vertex index (0-based within elements)
    net: int  # net vertex index (0-based within nets)
    label: int  # 0..7; 0 for passives

    def __post_init__(self) -> None:
        if not 0 <= self.label <= 7:
            raise GraphConstructionError(f"edge label out of range: {self.label}")


@dataclass
class CircuitGraph:
    """The bipartite element/net graph of a flat circuit.

    Vertex numbering: elements occupy indices ``0 .. n_elements-1`` and
    nets occupy ``n_elements .. n_vertices-1``.  This global numbering
    is what the Laplacian, features, and GCN all use.
    """

    circuit: Circuit
    elements: list[Device]
    nets: list[str]
    edges: list[Edge]
    net_index: dict[str, int] = field(default_factory=dict)
    element_index: dict[str, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------

    @classmethod
    def from_circuit(
        cls, circuit: Circuit, include_sources: bool = False
    ) -> "CircuitGraph":
        """Build the bipartite graph of a flat circuit.

        ``include_sources`` controls whether V/I source cards become
        element vertices; by default they are treated as testbench and
        skipped (their nets still appear if other devices touch them).
        """
        if not circuit.is_flat():
            raise GraphConstructionError(
                f"circuit {circuit.name!r} still has subcircuit instances; "
                "flatten() it first"
            )
        elements = [
            d
            for d in circuit.devices
            if include_sources or not d.kind.is_source
        ]
        transistor = [dev.kind.is_transistor for dev in elements]
        nets: list[str] = []
        net_index: dict[str, int] = {}
        edges: list[Edge] = []
        # The edge columns, built once here for every later graph pass.
        degree: list[int] = []
        edge_net: list[int] = []
        edge_label: list[int] = []
        for idx, dev in enumerate(elements):
            labels: dict[int, int] = {}
            for term, net in dev.pins:
                if transistor[idx]:
                    if term == "b":
                        continue
                    bit = _TERMINAL_BITS[term]
                else:
                    bit = 0
                nid = net_index.setdefault(net, len(nets))
                if nid == len(nets):
                    nets.append(net)
                labels[nid] = labels.get(nid, 0) | bit
            edges.extend(Edge(idx, nid, label) for nid, label in labels.items())
            degree.append(len(labels))
            edge_net.extend(labels)
            edge_label.extend(labels.values())
        # Ports with no device connection still deserve vertices so that
        # annotation covers every declared net.
        for port in circuit.ports:
            if port not in net_index:
                net_index[port] = len(nets)
                nets.append(port)

        element_index = {d.name: i for i, d in enumerate(elements)}
        if len(element_index) != len(elements):
            raise GraphConstructionError("duplicate device names in circuit")
        graph = cls(
            circuit=circuit,
            elements=elements,
            nets=nets,
            edges=edges,
            net_index=net_index,
            element_index=element_index,
        )
        # Not fields: fingerprints and equality walk ``edges`` only.
        graph._edge_arrays = (
            np.repeat(np.arange(len(elements)), degree),
            np.array(edge_net, dtype=np.int64),
            np.array(edge_label, dtype=np.int64),
        )
        graph._transistor_mask = np.array(transistor, dtype=bool)
        return graph

    # -- sizes and vertex bookkeeping ---------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    @property
    def n_vertices(self) -> int:
        return self.n_elements + self.n_nets

    def net_vertex(self, net: str) -> int:
        """Global vertex index of a net name."""
        return self.n_elements + self.net_index[net]

    def element_vertex(self, name: str) -> int:
        """Global vertex index of a device name."""
        return self.element_index[name]

    def vertex_name(self, vertex: int) -> str:
        """Device or net name of a global vertex index."""
        if vertex < self.n_elements:
            return self.elements[vertex].name
        return self.nets[vertex - self.n_elements]

    def is_element_vertex(self, vertex: int) -> bool:
        return vertex < self.n_elements

    def element_of(self, vertex: int) -> Device:
        """The device behind an element vertex."""
        if not self.is_element_vertex(vertex):
            raise IndexError(f"vertex {vertex} is a net vertex")
        return self.elements[vertex]

    # -- matrices ------------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """Unweighted symmetric adjacency over all vertices (canonical CSR)."""
        n = self.n_vertices
        element, net, _label = self._edge_arrays
        net = net + self.n_elements
        rows = np.concatenate((element, net))
        cols = np.concatenate((net, element))
        order = np.argsort(rows * n + cols)
        return csr_from_rows(rows[order], cols[order], np.ones(len(rows)), n)

    def edge_label(self, element: int, net: int) -> int | None:
        """3-bit label between an element vertex and a net (local index).

        Returns None when there is no such edge.
        """
        elements, nets, labels = self._edge_arrays
        hit = np.flatnonzero((elements == element) & (nets == net))
        return int(labels[hit[0]]) if hit.size else None

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Adjacency list over global indices: vertex -> [(other, label)]."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        element, net, label = (a.tolist() for a in self._edge_arrays)
        for u, v, bits in zip(element, net, label):
            v += self.n_elements
            adj[u].append((v, bits))
            adj[v].append((u, bits))
        return adj

    def degrees(self) -> np.ndarray:
        """Vertex degrees (global numbering)."""
        element, net, _label = self._edge_arrays
        ends = np.concatenate((element, net + self.n_elements))
        return np.bincount(ends, minlength=self.n_vertices)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(element, net, label)`` int64 arrays over all edges.

        Built once by :meth:`from_circuit`, in edge order (element-major,
        so ``element`` is non-decreasing).  Every per-deck graph pass —
        adjacency, CCC partition, postprocessing scans — reads these
        instead of walking the :class:`Edge` list.
        """
        return self._edge_arrays

    def element_offsets(self) -> list[int]:
        """Element ``i``'s edges are ``offsets[i]:offsets[i + 1]`` of every
        :meth:`edge_arrays` column (the edges are element-major)."""
        element = self._edge_arrays[0]
        return np.searchsorted(element, np.arange(self.n_elements + 1)).tolist()

    # -- derived views -------------------------------------------------

    def transistor_mask(self) -> np.ndarray:
        """Boolean mask over element indices: is this an NMOS/PMOS?"""
        return self._transistor_mask

    def power_net_mask(self) -> np.ndarray:
        """Boolean mask over local net indices: is this a power net?"""
        return np.fromiter(
            map(is_power_net, self.nets), dtype=bool, count=self.n_nets
        )

    def power_net_vertices(self) -> set[int]:
        """Global vertex indices of supply/ground nets."""
        return set((np.flatnonzero(self.power_net_mask()) + self.n_elements).tolist())

    def transistor_vertices(self) -> list[int]:
        """Global indices of NMOS/PMOS element vertices."""
        return np.flatnonzero(self._transistor_mask).tolist()

    def subgraph_of_elements(self, element_indices: set[int]) -> "CircuitGraph":
        """Graph induced by a subset of elements (nets pruned to touched)."""
        devices = [self.elements[i] for i in sorted(element_indices)]
        sub = Circuit(name=f"{self.circuit.name}_sub", devices=devices)
        return CircuitGraph.from_circuit(sub)

    def summary(self) -> str:
        """One-line description, e.g. for logging."""
        return (
            f"CircuitGraph({self.circuit.name}: {self.n_elements} elements, "
            f"{self.n_nets} nets, {len(self.edges)} edges)"
        )
