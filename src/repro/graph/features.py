"""The 18 vertex features of Sec. V-A.

Per the paper, every graph vertex carries 18 features:

* **12 element features** — element-kind one-hot over {NMOS, PMOS,
  resistor, capacitor, inductor, voltage reference, current reference,
  hierarchical block} (8 slots), the hierarchy level of the vertex
  (1 slot, normalized), and a {low, medium, high} value bucket one-hot
  (3 slots).  The value bucket is what lets the GCN tell, e.g., a DC-DC
  converter's big flying caps from a filter's small ones.
* **5 net features** — net-type one-hot over {input, output, bias,
  supply, ground}.
* **1 edge feature** — a scalar summarizing the 3-bit terminal labels
  incident on a transistor vertex (diode-connected and cross-coupled
  devices get distinctive values).

Element vertices carry zeros in the net slots and vice versa.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import instance_path
from repro.spice.netlist import Device, DeviceKind, is_ground_net, is_supply_net

N_FEATURES = 18

# Element-kind slots (8).
_KIND_SLOT: dict[DeviceKind, int] = {
    DeviceKind.NMOS: 0,
    DeviceKind.PMOS: 1,
    DeviceKind.RESISTOR: 2,
    DeviceKind.CAPACITOR: 3,
    DeviceKind.INDUCTOR: 4,
    DeviceKind.VSOURCE: 5,  # voltage reference
    DeviceKind.ISOURCE: 6,  # current reference
}
_HIER_SLOT = 7  # hierarchical-block kind (unused for leaf devices)
_LEVEL_SLOT = 8
_VALUE_SLOTS = (9, 10, 11)  # low / medium / high

# Net-type slots (5), offset from the element block.
_NET_BASE = 12


class NetRole(enum.Enum):
    """Net types the paper distinguishes."""

    INPUT = 0
    OUTPUT = 1
    BIAS = 2
    SUPPLY = 3
    GROUND = 4
    INTERNAL = None  # internal nets carry no net-type one-hot

    @property
    def slot(self) -> int | None:
        return None if self.value is None else _NET_BASE + self.value


_EDGE_SLOT = 17


@dataclass(frozen=True)
class ValueBuckets:
    """(low, high) thresholds per device kind; between them is medium."""

    mos_w: tuple[float, float] = (1e-6, 10e-6)
    resistor: tuple[float, float] = (1e3, 100e3)
    capacitor: tuple[float, float] = (100e-15, 10e-12)
    inductor: tuple[float, float] = (1e-9, 10e-9)

    def bucket(self, dev: Device) -> int:
        """0 = low, 1 = medium, 2 = high."""
        if dev.kind.is_transistor:
            value = dev.param("w", 1e-6) or 1e-6
            low, high = self.mos_w
        elif dev.kind is DeviceKind.RESISTOR:
            value, (low, high) = dev.value or 0.0, self.resistor
        elif dev.kind is DeviceKind.CAPACITOR:
            value, (low, high) = dev.value or 0.0, self.capacitor
        elif dev.kind is DeviceKind.INDUCTOR:
            value, (low, high) = dev.value or 0.0, self.inductor
        else:
            return 1
        if value < low:
            return 0
        if value >= high:
            return 2
        return 1


_INPUT_NAMES = ("vin", "inp", "inn", "in", "rfin", "ant", "lo", "clk", "vi")
_OUTPUT_NAMES = ("vout", "out", "outp", "outn", "ifout", "vo")
_BIAS_NAMES = ("vb", "bias", "ib", "vbn", "vbp", "vref", "iref", "vcm")


def infer_net_role(
    net: str, ports: tuple[str, ...], overrides: dict[str, NetRole] | None = None
) -> NetRole:
    """Classify a net as input/output/bias/supply/ground/internal.

    ``overrides`` lets testbench/designer annotations win (this is the
    hook Postprocessing II uses for antenna/oscillating port labels).
    Otherwise supply/ground are recognized by name anywhere, while
    input/output/bias classification applies to ports only, by common
    naming conventions.
    """
    if overrides and net in overrides:
        return overrides[net]
    if is_supply_net(net):
        return NetRole.SUPPLY
    if is_ground_net(net):
        return NetRole.GROUND
    if net not in ports:
        # Heuristic: internal bias-distribution nets named like bias nets
        # still count as bias; everything else is internal.
        leaf = instance_path(net)[-1]
        if any(leaf.startswith(p) for p in _BIAS_NAMES):
            return NetRole.BIAS
        return NetRole.INTERNAL
    leaf = instance_path(net)[-1]
    if any(leaf.startswith(p) for p in _BIAS_NAMES):
        return NetRole.BIAS
    if any(leaf.startswith(p) for p in _INPUT_NAMES):
        return NetRole.INPUT
    if any(leaf.startswith(p) for p in _OUTPUT_NAMES):
        return NetRole.OUTPUT
    return NetRole.INTERNAL


def feature_matrix(
    graph: CircuitGraph,
    net_roles: dict[str, NetRole] | None = None,
    buckets: ValueBuckets | None = None,
) -> np.ndarray:
    """Build the (n_vertices, 18) feature matrix for a circuit graph.

    ``net_roles`` optionally overrides the inferred role of specific
    nets.  Hierarchy level is derived from the flattened instance path
    depth, normalized by the deepest path in the circuit.
    """
    buckets = buckets or ValueBuckets()
    n = graph.n_vertices
    features = np.zeros((n, N_FEATURES), dtype=np.float64)

    max_depth = 1
    for dev in graph.elements:
        max_depth = max(max_depth, len(instance_path(dev.name)))

    # Pre-index incident labels once (avoids O(V*E) rescans).
    incident: list[list[int]] = [[] for _ in range(graph.n_elements)]
    for edge in graph.edges:
        incident[edge.element].append(edge.label)

    for i, dev in enumerate(graph.elements):
        slot = _KIND_SLOT.get(dev.kind)
        if slot is not None:
            features[i, slot] = 1.0
        depth = len(instance_path(dev.name))
        if depth > 1:
            features[i, _HIER_SLOT] = 1.0
        features[i, _LEVEL_SLOT] = depth / max_depth
        features[i, _VALUE_SLOTS[buckets.bucket(dev)]] = 1.0
        if dev.kind.is_transistor and incident[i]:
            features[i, _EDGE_SLOT] = max(incident[i]) / 7.0

    ports = graph.circuit.ports
    for j, net in enumerate(graph.nets):
        vertex = graph.n_elements + j
        role = infer_net_role(net, ports, net_roles)
        if role.slot is not None:
            features[vertex, role.slot] = 1.0

    return features


def feature_names() -> list[str]:
    """Human-readable names of the 18 feature slots, in order."""
    return [
        "elem:nmos",
        "elem:pmos",
        "elem:resistor",
        "elem:capacitor",
        "elem:inductor",
        "elem:vref",
        "elem:iref",
        "elem:hier_block",
        "elem:hier_level",
        "elem:value_low",
        "elem:value_med",
        "elem:value_high",
        "net:input",
        "net:output",
        "net:bias",
        "net:supply",
        "net:ground",
        "elem:edge_pattern",
    ]
