"""The 18-feature vertex embedding (Sec. V-A)."""

import numpy as np
import pytest

from repro.graph.bipartite import CircuitGraph
from repro.graph.features import (
    N_FEATURES,
    NetRole,
    ValueBuckets,
    feature_matrix,
    feature_names,
    infer_net_role,
)
from repro.spice.flatten import flatten
from repro.spice.netlist import Circuit, DeviceKind, make_mos, make_passive
from repro.spice.parser import parse_netlist


def _graph(deck: str) -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(deck)))


class TestShape:
    def test_feature_count_is_18(self, diff_ota_graph):
        X = feature_matrix(diff_ota_graph)
        assert X.shape == (diff_ota_graph.n_vertices, 18)
        assert N_FEATURES == 18

    def test_feature_names_length(self):
        assert len(feature_names()) == N_FEATURES


class TestElementFeatures:
    def test_kind_one_hot(self):
        deck = "m1 d g s gnd! nmos\nm2 d g s vdd! pmos\nr1 a b 1k\nc1 a b 1p\nl1 a b 1n\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g)
        names = feature_names()
        for dev_name, slot_name in [
            ("m1", "elem:nmos"),
            ("m2", "elem:pmos"),
            ("r1", "elem:resistor"),
            ("c1", "elem:capacitor"),
            ("l1", "elem:inductor"),
        ]:
            v = g.element_vertex(dev_name)
            assert X[v, names.index(slot_name)] == 1.0
            # Exactly one kind slot set.
            assert X[v, :8].sum() == 1.0

    def test_element_has_no_net_features(self, diff_ota_graph):
        X = feature_matrix(diff_ota_graph)
        for v in range(diff_ota_graph.n_elements):
            assert X[v, 12:17].sum() == 0.0

    def test_value_buckets(self):
        deck = "c1 a b 10f\nc2 a b 1p\nc3 a b 100p\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g)
        names = feature_names()
        low, med, high = (
            names.index("elem:value_low"),
            names.index("elem:value_med"),
            names.index("elem:value_high"),
        )
        assert X[g.element_vertex("c1"), low] == 1.0
        assert X[g.element_vertex("c2"), med] == 1.0
        assert X[g.element_vertex("c3"), high] == 1.0

    def test_hierarchy_level_feature(self):
        deck = """
.subckt cell a
r1 a gnd! 1k
.ends
x1 n cell
r0 n gnd! 1k
.end
"""
        g = _graph(deck)
        X = feature_matrix(g)
        names = feature_names()
        level = names.index("elem:hier_level")
        hier = names.index("elem:hier_block")
        assert X[g.element_vertex("x1/r1"), level] == 1.0  # depth 2 / max 2
        assert X[g.element_vertex("r0"), level] == 0.5
        assert X[g.element_vertex("x1/r1"), hier] == 1.0
        assert X[g.element_vertex("r0"), hier] == 0.0

    def test_diode_sets_no_kind_slot(self):
        # A diode has no kind slot; only its depth sets the block slot.
        deck = ".subckt cell a b\nd1 a b dmod\n.ends\nd0 p q dmod\nx1 p q cell\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g)
        hier = feature_names().index("elem:hier_block")
        kind_slots = list(range(hier + 1))
        assert X[g.element_vertex("d0"), kind_slots].tolist() == [0.0] * len(kind_slots)
        inner = X[g.element_vertex("x1/d1"), kind_slots].tolist()
        assert inner == [0.0] * hier + [1.0]

    def test_diode_connected_edge_feature(self, current_mirror_graph):
        X = feature_matrix(current_mirror_graph)
        names = feature_names()
        edge = names.index("elem:edge_pattern")
        m0 = current_mirror_graph.element_vertex("m0")  # diode: 101 = 5
        m1 = current_mirror_graph.element_vertex("m1")  # plain: max 100 = 4
        assert X[m0, edge] == pytest.approx(5 / 7)
        assert X[m1, edge] == pytest.approx(4 / 7)


class TestNetFeatures:
    def test_supply_ground(self, diff_ota_graph):
        X = feature_matrix(diff_ota_graph)
        names = feature_names()
        assert X[diff_ota_graph.net_vertex("vdd!"), names.index("net:supply")] == 1.0
        assert X[diff_ota_graph.net_vertex("gnd!"), names.index("net:ground")] == 1.0

    def test_port_roles_by_name(self):
        deck = "m1 vout vinp gnd! gnd! nmos\n.end\n"
        flat = flatten(parse_netlist(deck))
        flat.ports = ("vinp", "vout")
        g = CircuitGraph.from_circuit(flat)
        X = feature_matrix(g)
        names = feature_names()
        assert X[g.net_vertex("vinp"), names.index("net:input")] == 1.0
        assert X[g.net_vertex("vout"), names.index("net:output")] == 1.0

    def test_bias_nets_detected_internally(self):
        deck = "m1 out vbn gnd! gnd! nmos\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g)
        names = feature_names()
        assert X[g.net_vertex("vbn"), names.index("net:bias")] == 1.0

    def test_overrides_win(self):
        deck = "m1 out inx gnd! gnd! nmos\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g, net_roles={"inx": NetRole.INPUT})
        names = feature_names()
        assert X[g.net_vertex("inx"), names.index("net:input")] == 1.0

    def test_internal_net_has_no_role(self):
        deck = "m1 n1 g gnd! gnd! nmos\nm2 out n1 gnd! gnd! nmos\n.end\n"
        g = _graph(deck)
        X = feature_matrix(g)
        assert X[g.net_vertex("n1"), 12:17].sum() == 0.0

    def test_net_has_no_element_features(self, diff_ota_graph):
        X = feature_matrix(diff_ota_graph)
        for j in range(diff_ota_graph.n_nets):
            v = diff_ota_graph.n_elements + j
            assert X[v, :12].sum() == 0.0
            assert X[v, 17] == 0.0


class TestInferNetRole:
    @pytest.mark.parametrize(
        "net, role",
        [
            ("vdd!", NetRole.SUPPLY),
            ("gnd!", NetRole.GROUND),
            ("vb1", NetRole.BIAS),
            ("plain", NetRole.INTERNAL),
        ],
    )
    def test_non_port_roles(self, net, role):
        assert infer_net_role(net, ports=()) is role

    @pytest.mark.parametrize(
        "net, role",
        [
            ("vinp", NetRole.INPUT),
            ("rfin", NetRole.INPUT),
            ("vout", NetRole.OUTPUT),
            ("ifout", NetRole.OUTPUT),
            ("vbias", NetRole.BIAS),
        ],
    )
    def test_port_roles(self, net, role):
        assert infer_net_role(net, ports=(net,)) is role


class TestValueBuckets:
    def test_mos_by_width(self):
        buckets = ValueBuckets()
        small = make_mos("m1", DeviceKind.NMOS, "d", "g", "s", w=0.5e-6)
        mid = make_mos("m2", DeviceKind.NMOS, "d", "g", "s", w=2e-6)
        big = make_mos("m3", DeviceKind.NMOS, "d", "g", "s", w=20e-6)
        assert buckets.bucket(small) == 0
        assert buckets.bucket(mid) == 1
        assert buckets.bucket(big) == 2

    def test_boundary_is_high(self):
        buckets = ValueBuckets()
        dev = make_passive("r1", DeviceKind.RESISTOR, "a", "b", 100e3)
        assert buckets.bucket(dev) == 2
