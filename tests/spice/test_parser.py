"""Parser behaviour: device cards, subckts, models, error reporting."""

import pytest

from repro.exceptions import SpiceSyntaxError
from repro.spice.netlist import DeviceKind
from repro.spice.parser import parse_netlist


class TestMosCards:
    def test_basic_nmos(self):
        netlist = parse_netlist("m1 d g s b nmos w=1u l=100n\n.end\n")
        (dev,) = netlist.top.devices
        assert dev.kind is DeviceKind.NMOS
        assert dev.pin_map == {"d": "d", "g": "g", "s": "s", "b": "b"}
        assert dev.param("w") == pytest.approx(1e-6)
        assert dev.param("l") == pytest.approx(100e-9)

    def test_pmos_by_model_name(self):
        netlist = parse_netlist("m1 d g s b pch w=1u\n.end\n")
        assert netlist.top.devices[0].kind is DeviceKind.PMOS

    @pytest.mark.parametrize("model", ["pmos", "pfet", "pch", "p33"])
    def test_pmos_name_patterns(self, model):
        netlist = parse_netlist(f"m1 d g s b {model}\n.end\n")
        assert netlist.top.devices[0].kind is DeviceKind.PMOS

    def test_model_card_overrides_name_heuristic(self):
        deck = ".model weird pmos\nm1 d g s b weird\n.end\n"
        netlist = parse_netlist(deck)
        assert netlist.top.devices[0].kind is DeviceKind.PMOS

    def test_model_card_after_device(self):
        deck = "m1 d g s b mymodel\n.model mymodel nmos\n.end\n"
        netlist = parse_netlist(deck)
        assert netlist.top.devices[0].kind is DeviceKind.NMOS

    def test_unresolvable_polarity_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist("m1 d g s b qqq17\n.end\n")

    def test_too_few_nets_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist("m1 d g s\n.end\n")


class TestTwoTerminal:
    def test_resistor_value(self):
        netlist = parse_netlist("r1 a b 4.7k\n.end\n")
        dev = netlist.top.devices[0]
        assert dev.kind is DeviceKind.RESISTOR
        assert dev.value == pytest.approx(4700.0)

    def test_capacitor_inductor(self):
        netlist = parse_netlist("c1 a b 2p\nl1 b c 3n\n.end\n")
        kinds = [d.kind for d in netlist.top.devices]
        assert kinds == [DeviceKind.CAPACITOR, DeviceKind.INDUCTOR]

    def test_vsource_dc_spec(self):
        netlist = parse_netlist("vdd vdd! 0 dc 1.8\n.end\n")
        assert netlist.top.devices[0].value == pytest.approx(1.8)

    def test_isource(self):
        netlist = parse_netlist("ib vdd! nb 10u\n.end\n")
        dev = netlist.top.devices[0]
        assert dev.kind is DeviceKind.ISOURCE
        assert dev.value == pytest.approx(10e-6)

    def test_passive_with_model_name(self):
        netlist = parse_netlist("r1 a b rpoly r=2k\n.end\n")
        dev = netlist.top.devices[0]
        assert dev.model == "rpoly"
        assert dev.value == pytest.approx(2000.0)


class TestSubckts:
    def test_definition_and_instance(self):
        deck = """
.subckt inv in out
mn out in gnd! gnd! nmos
mp out in vdd! vdd! pmos
.ends
x1 a b inv
.end
"""
        netlist = parse_netlist(deck)
        assert "inv" in netlist.subckts
        inv = netlist.subckt("inv")
        assert inv.ports == ("in", "out")
        assert len(inv.devices) == 2
        (inst,) = netlist.top.instances
        assert inst.subckt == "inv"
        assert inst.nets == ("a", "b")

    def test_nested_subckts(self):
        deck = """
.subckt outer a
.subckt inner b
r1 b gnd! 1k
.ends
x1 a inner
.ends
x2 n outer
.end
"""
        netlist = parse_netlist(deck)
        assert set(netlist.subckts) == {"outer", "inner"}

    def test_unterminated_subckt_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist(".subckt foo a\nr1 a gnd! 1k\n.end\n")

    def test_ends_without_subckt_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist(".ends\n.end\n")

    def test_case_insensitive_lookup(self):
        deck = ".subckt INV a b\nr1 a b 1k\n.ends\n.end\n"
        netlist = parse_netlist(deck)
        assert netlist.subckt("inv").name == "inv"


class TestDirectives:
    def test_title(self):
        netlist = parse_netlist(".title my amplifier\nr1 a b 1k\n.end\n")
        assert netlist.title == "my amplifier"

    def test_global(self):
        netlist = parse_netlist(".global vdd! gnd!\nr1 a b 1k\n.end\n")
        assert netlist.globals_ == ("vdd!", "gnd!")

    def test_ignored_analysis_cards(self):
        deck = ".tran 1n 1u\n.op\n.options reltol=1e-4\nr1 a b 1k\n.end\n"
        netlist = parse_netlist(deck)
        assert len(netlist.top.devices) == 1

    def test_unknown_dot_card_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist(".frobnicate\n.end\n")

    def test_unknown_device_letter_fails(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist("q1 c b e npn\n.end\n")

    def test_error_carries_line_number(self):
        with pytest.raises(SpiceSyntaxError, match="line 3"):
            parse_netlist("* t\nr1 a b 1k\nq1 c b e npn\n.end\n")


class TestInstances:
    def test_instance_params(self):
        deck = ".subckt s a\nr1 a gnd! 1k\n.ends\nx1 n s m=2\n.end\n"
        netlist = parse_netlist(deck)
        (inst,) = netlist.top.instances
        assert dict(inst.params) == {"m": 2.0}

    def test_instance_needs_subckt_name(self):
        with pytest.raises(SpiceSyntaxError):
            parse_netlist("x1\n.end\n")


class TestParams:
    def test_reference_to_earlier_assignment_on_same_card(self):
        deck = ".param a=2u b={a}\nm1 d g s b nmos w={b}\n.end\n"
        (dev,) = parse_netlist(deck).top.devices
        assert dev.param("w") == pytest.approx(2e-6)

    def test_references_across_cards(self):
        deck = ".param a=2u\n.param b={a}\nm1 d g s b nmos w={b}\n.end\n"
        (dev,) = parse_netlist(deck).top.devices
        assert dev.param("w") == pytest.approx(2e-6)

    def test_later_assignment_on_a_card_overrides_an_earlier_card(self):
        deck = ".param a=1u\n.param a=3u b={a}\nm1 d g s b nmos w={b} l=a\n.end\n"
        (dev,) = parse_netlist(deck).top.devices
        assert dev.param("w") == pytest.approx(3e-6)
        assert dev.param("l") == pytest.approx(3e-6)

    def test_unresolved_reference_drops_the_parameter(self):
        deck = ".param b={nosuch}\nm1 d g s b nmos w={b} l=1u\n.end\n"
        (dev,) = parse_netlist(deck).top.devices
        assert dev.param("w") is None
        assert dev.param("l") == pytest.approx(1e-6)


class TestLiteralTable:
    """Each literal is parsed once per deck; ``.param`` names never are."""

    @staticmethod
    def _widths(deck: str) -> list[float | None]:
        return [d.param("w") for d in parse_netlist(deck).top.devices]

    def test_same_token_takes_each_decks_own_param_value(self):
        cards = "m1 d g s b nmos w=wbig\nm2 d g s b nmos w={wbig}\n.end\n"
        small = ".param wbig=1u\n" + cards
        large = ".param wbig=5u\n" + cards
        assert self._widths(small) == pytest.approx([1e-6, 1e-6])
        assert self._widths(large) == pytest.approx([5e-6, 5e-6])
        assert self._widths(small) == pytest.approx([1e-6, 1e-6])

    def test_reference_resolved_before_a_redefinition_does_not_stick(self):
        deck = (
            ".param wbig=1u\n"
            ".param wref=wbig\n"
            ".param wbig=2u\n"
            "m1 d g s b nmos w=wbig l=wref\n"
            ".end\n"
        )
        (dev,) = parse_netlist(deck).top.devices
        assert dev.param("w") == pytest.approx(2e-6)
        assert dev.param("l") == pytest.approx(1e-6)

    def test_literal_values_unchanged(self):
        deck = (
            "v1 vdd! 0 dc 1.8\n"
            "v2 vdd! 0 dc 1.8\n"
            "c1 a 0 10uF\n"
            "r1 a b 1meg\n"
            "r2 b 0 5M\n"
            "r3 b c 1meg\n"
            "m1 d g s b nmos w=5M l=10uF\n"
            ".end\n"
        )
        devices = parse_netlist(deck).top.devices
        values = [d.value for d in devices]
        assert values == pytest.approx([1.8, 1.8, 10e-6, 1e6, 5e-3, 1e6, None])
        assert devices[-1].param("w") == pytest.approx(5e-3)
        assert devices[-1].param("l") == pytest.approx(10e-6)
