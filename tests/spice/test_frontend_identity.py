"""Front-end identity: pinned digests of parse → flatten → preprocess.

For every deck below, the parsed devices, the flattened devices, the
reduced devices, the preprocess report and the diagnostics are hashed
through their ``repr``.  Any change to the SPICE front end that moves
one output byte fails here.  Re-record a digest only for an intended
output change, and say so in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets.systems import phased_array, phased_array_hier
from repro.spice.flatten import flatten, flatten_hierarchical
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import preprocess
from repro.spice.writer import write_circuit, write_netlist
from tests.conftest import EXAMPLE_DECK_PATHS

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_DECK_PATHS = tuple(sorted(CORPUS_DIR.glob("*.sp")))

#: Strict-mode trouble in one deck: a lexer error, a malformed card, an
#: unsupported card and an undefined subckt.  It also exercises
#: ``.param`` references, ``dc`` values, unit suffixes, a multiplier,
#: merges, a dummy and a decap.
LENIENT_DECK = """* lenient front-end deck
.param wbig=2u
.param lbig={wbig}
.global vdd! gnd!
.subckt cell a b
m1 a b gnd! gnd! nmos w=wbig l=100n
r1 a b 1meg
c1 a b 2p
.ends
x1 n1 n2 cell m=2
x2 n1 n3 nosuchcell
v1 vdd! 0 dc 1.8
c1 n1 0 10uF
c2 vdd! gnd! 1p
r2 n2 0 5M
m2 n2 n2 n3 gnd! nmos w={wbig} l=lbig
m3 n2 n2 n3 gnd! nmos w='wbig'
+ l=lbig
m4 q q q gnd! nmos
m5 n4 n2 n5 gnd! nmos w=
r7
.bogus card
.end
"""


def _corpus_mode(path: Path) -> str:
    return json.loads(path.with_suffix(".json").read_text())["mode"]


def _decks() -> dict[str, tuple[str, str]]:
    """Deck id → (SPICE text, parse mode)."""
    decks = {f"example/{p.stem}": (p.read_text(), "strict") for p in EXAMPLE_DECK_PATHS}
    decks.update({f"corpus/{p.stem}": (p.read_text(), _corpus_mode(p)) for p in CORPUS_DECK_PATHS})
    decks["phased_array8"] = (write_circuit(phased_array(8).circuit), "strict")
    decks["phased_array_hier4"] = (write_netlist(phased_array_hier(4)[0]), "strict")
    decks["lenient"] = (LENIENT_DECK, "lenient")
    return decks


DECKS = _decks()

#: sha256 of the repr of every front-end output, per deck.
DIGESTS = {
    "corpus/flat_minimal": "035151578c3a6c75aa87c72a7199777e671f28aceecee374ef15cba211176bae",
    "corpus/flat_multiccc_a": "1f5baa4556355eff4fdb57efa1695dd8e2a87fde9e1fc18211d5506be4ef1546",
    "corpus/flat_multiccc_b": "5cedcc875edd3a8c3368d6da34960e80a580a91c15a23b737a749f2ed36df539",
    "corpus/flat_single_ccc": "ec92d3346d15c85b1b9634d2710437d8b8be767383d2f327ce307a43d8ddcdaf",
    "corpus/hier_mfactor_a": "65d1e26f5ceab48bb89a79f795f3be314a9eb4574700341a1a9f3bc467aed38f",
    "corpus/hier_mfactor_b": "1ccc9ece28e20c21f03bd5e3b671bff652a41b22621e5603d69d9c1d663b692b",
    "corpus/hier_nested": "80b4d3bcf80bf4c6c564364c3f7bcc0ded10ddafbf2abc1ef4fb911c0f84e249",
    "corpus/lenient_flat": "dcec5b8f17009899640b80b938e2b0d2eec0165d72242a3babee8f60ba568d38",
    "corpus/lenient_hier": "27967a7356c7ec64d77a08c0a664e828f270c47aef101398b1e2e562cc815f37",
    "corpus/lenient_minimal": "9f39ec670bed8a7cd52536f500f3a59d48c94a42b5ecec4289203033667f67b0",
    "example/current_mirror": "fa12b773b5e87531d5acabc6f5ff1e3c57fb7577a270fcb8d60480c04900037a",
    "example/diff_ota": "7a181eef755d4f21e53f1473a3329ad2290ca0e28acbe73690afa3666fd0f270",
    "example/inverter_buffer": "8b63a25af27c5d5f8f174c8c7907865d2bf27d6a717b37fef05a19b92a0f205e",
    "example/mirror_bank": "8220f75c25624446e965fafaac32755eb46a004c7fede4b1d9ee46215c3e9e37",
    "example/ota_array": "40423e68db4402d1908a48b6d99b720a55f63ca47e57f43727115a8125b3382f",
    "example/sc_branch": "61cad6d41e2d0fa4df5671c408625ecc1fe7a2794213209736e5761cdb95822f",
    "lenient": "799ae0e700943b743b08ebc184a75822df02d1318712c41ce45feb5efc46a554",
    "phased_array8": "e9065d6d49cb31bc9c24a65c80a138354f00b03e4c647123db6013396f51fffd",
    "phased_array_hier4": "bac636a166e92bda5eacec887da678f88c23595c6919dcd20189cff7f2123d83",
}


def _frontend(text: str, mode: str):
    netlist = parse_netlist(text, mode=mode)
    diagnostics = list(netlist.diagnostics)
    flat = flatten(netlist, diagnostics=diagnostics if mode == "lenient" else None)
    reduced, report = preprocess(flat)
    return netlist, flat, reduced, report, diagnostics


def _digest(text: str, mode: str) -> str:
    netlist, flat, reduced, report, diagnostics = _frontend(text, mode)
    sided, tree = flatten_hierarchical(netlist, diagnostics=[] if mode == "lenient" else None)
    assert sided.devices == flat.devices
    parts = (
        netlist.top.devices,
        sorted((name, c.devices, c.instances) for name, c in netlist.subckts.items()),
        flat.devices,
        reduced.devices,
        report.absorbed,
        report.removed,
        diagnostics,
        tree.instances,
        sorted(tree.bodies.items()),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def test_every_deck_has_a_digest():
    assert set(DIGESTS) == set(DECKS)
    assert len(DECKS) == len(EXAMPLE_DECK_PATHS) + len(CORPUS_DECK_PATHS) + 3


@pytest.mark.parametrize("deck_id", sorted(DECKS))
def test_frontend_digest(deck_id):
    text, mode = DECKS[deck_id]
    assert _digest(text, mode) == DIGESTS[deck_id]


def test_lenient_deck_reports_diagnostics():
    *_, diagnostics = _frontend(LENIENT_DECK, "lenient")
    messages = " | ".join(d.message for d in diagnostics)
    assert "dangling '='" in messages
    assert "unsupported card '.bogus'" in messages
    assert "nosuchcell" in messages


@pytest.mark.parametrize("deck_id", ["phased_array8", "corpus/flat_minimal"])
def test_flat_deck_flattens_to_its_parsed_devices(deck_id):
    text, mode = DECKS[deck_id]
    netlist, flat, *_ = _frontend(text, mode)
    assert not netlist.top.instances
    assert flat.devices == netlist.top.devices
