"""Sample-build and CCC identity: pinned digests of the graph passes.

For every deck below, the GCN sample (features, the coarsening
pyramid's adjacencies, Graclus assignments and rescaled Laplacians,
each as dtype + shape + raw ``data``/``indices``/``indptr`` bytes), the
CCC partition (components, ``of_element`` in insertion order,
``of_net``) and the Postprocessing I and II vertex classes are hashed.
Post-I/II run on a seeded synthetic annotation, so the digests need no
trained model.  Any change that moves one output byte or bit fails
here.  Re-record a digest only for an intended output change, and say
so in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.annotator import Annotation
from repro.core.postprocess import apply_port_rules, postprocess_ccc
from repro.datasets.ota import OTA_CLASSES, generate_ota, ota_variants
from repro.datasets.rf import RF_CLASSES
from repro.datasets.systems import phased_array
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.primitives.library import default_library
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import preprocess
from repro.utils.rng import seeded_rng
from tests.conftest import EXAMPLE_DECK_PATHS

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_DECK_PATHS = tuple(sorted(CORPUS_DIR.glob("*.sp")))
N_OTA_VARIANTS = 16
LEVELS = 3


def _corpus_mode(path: Path) -> str:
    return json.loads(path.with_suffix(".json").read_text())["mode"]


def _reduced_from_text(text: str, mode: str):
    netlist = parse_netlist(text, mode=mode)
    flat = flatten(netlist, diagnostics=[] if mode == "lenient" else None)
    return preprocess(flat)[0]


def _decks() -> dict[str, object]:
    """Deck id → zero-argument builder of the reduced flat circuit."""
    decks: dict[str, object] = {
        f"example/{p.stem}": (lambda p=p: _reduced_from_text(p.read_text(), "strict"))
        for p in EXAMPLE_DECK_PATHS
    }
    decks.update(
        {
            f"corpus/{p.stem}": (lambda p=p: _reduced_from_text(p.read_text(), _corpus_mode(p)))
            for p in CORPUS_DECK_PATHS
        }
    )
    decks["phased_array8"] = lambda: preprocess(phased_array(8).circuit)[0]
    for i, spec in enumerate(ota_variants(N_OTA_VARIANTS)):
        decks[f"ota/{i:02d}"] = lambda spec=spec: preprocess(generate_ota(spec).circuit)[0]
    return decks


DECKS = _decks()

#: sha256 of every sample-build, CCC and post-I/II output, per deck.
DIGESTS = {
    "corpus/flat_minimal": "4f7128e9f3e920297791e7883ad4ec7893d2d72171ecc1ded796ae57a5662d3a",
    "corpus/flat_multiccc_a": "99fa15265aa2faa6ff1943e5cbdbeda3ffffc6c734f897dcd7b00dbac8f3cc56",
    "corpus/flat_multiccc_b": "6f52f8424d9c4353fa258289c7943a6c71d06c1b4ed3abbe0252822f62fa9de3",
    "corpus/flat_single_ccc": "d636b76ccf317a80c48179749a108fd0f4520b46bfa3f46123b8caa120c958f5",
    "corpus/hier_mfactor_a": "201734ba082715d2fe68b48aae84628504f04b6c15782489230c66e5c0c238b1",
    "corpus/hier_mfactor_b": "5e06a6a9029e73d20bb1a93e3ec8923d94ca11738bf39f9ecd3243eed550c902",
    "corpus/hier_nested": "87d6756863d3b55c78fc80743ccbfa67f307741eca366a3f6e7e3b9eb93f89c5",
    "corpus/lenient_flat": "cafe5b1e330cc767cb1df64fac6a35bb2389b3b15dd4e3e18e0ce1a68b64eb49",
    "corpus/lenient_hier": "87d6756863d3b55c78fc80743ccbfa67f307741eca366a3f6e7e3b9eb93f89c5",
    "corpus/lenient_minimal": "1848188181601b5548466aa6bb1531c550b55e668867f4a4518018255999c3ee",
    "example/current_mirror": "fa90b6324b8de6f30a378fa347e44893bcb6f4f6fa714369145958cddc0ca11a",
    "example/diff_ota": "18641ffc893152a45663c5a7d7672a5d312867312a8779d5efcd9b55c30e27fc",
    "example/inverter_buffer": "f45ec432620e158beb86a6a4b3bce0cfc88815e35831c08e5446dad2214a1791",
    "example/mirror_bank": "ce2f3769d4d5846aed3bc2556fefe94f534184958d7f44d2bf098b845c84a491",
    "example/ota_array": "51ef0db99aa8959191c4a18739d61892d3af893539cf1f3f2434a41993a5ca43",
    "example/sc_branch": "ee8db7c94863bcdcff04c18ce30fa17cea9c391fd5e966f6a83c5980e183e9a1",
    "ota/00": "0d59bb68b9cd758ab33eb5209e9b3e7f891061c661d99e05fc093d47a675909f",
    "ota/01": "89118f7b7c53d34f21d05b3fce060229241efa76f7e14dbfe3eb9777440a52c1",
    "ota/02": "890f0359df40cda892898a5cdcdf78e7bd7b4fe160758e675e33d42fb9fb2f4a",
    "ota/03": "e842bdefb2455bed81563b2f41664efeaa04844009789150a6e5fd485979b9fe",
    "ota/04": "c48d46c5baa716ae2a7286a11748222133b64383633a3913a7d6adb843a01989",
    "ota/05": "48afa68950b26e730fa8d319d54593e1412ff9fdb7a28983fd747e30f549f89d",
    "ota/06": "3dffa5c3c09f375efde96a19ae2623d811eb9f253180e6f74b0a4d34b8ea1f1a",
    "ota/07": "90ff1190e42c7fb60f2dac520da21393d6130fd84f51f7ac3fabffbf57ea5c33",
    "ota/08": "4d09946a676e5dad497948066678787b176afaa36f96aebb6440d8d00ef035f6",
    "ota/09": "1dae91cdd5ee7b958c1388b1bb5d6d2eaa42280a14c7f870beee6a033f1466f9",
    "ota/10": "2dc975982a75334b2c9970a44f6fde37bfda6066a0440f32d766ea2bb3c9eb29",
    "ota/11": "c3416e8b890fd7e557756feb10666cf1eb3d8695e58f94d36491fb84262acbef",
    "ota/12": "1de08a01ba840ba5d296d4eb7b3beefc16396f4506b6cbcd4ccb5e4754e4dc90",
    "ota/13": "8ce7ae58aec77f9030c0cab06b7b9ca1df8b37b45bc98e340b78ed3a149682a1",
    "ota/14": "2e13f40e9a1d55ae0354dc3180a930724d174141e1aacfce0390afe1c9e662b8",
    "ota/15": "e2c169028d888ceb9bdf494e4f35745590d3244debd8b1aa842c2f36d29a6fdf",
    "phased_array8": "f6b554b959dd318f9118584607cf90faded513f3d0e59fa7e87545df6e90a5f3",
}


def _matrix_parts(matrix: sp.csr_matrix) -> tuple:
    return (
        type(matrix).__name__,
        matrix.shape,
        *((arr.dtype.str, arr.tobytes()) for arr in (matrix.data, matrix.indices, matrix.indptr)),
    )


def _array_parts(arr: np.ndarray) -> tuple:
    return (arr.dtype.str, arr.shape, arr.tobytes())


def _synthetic_annotation(graph: CircuitGraph, class_names: tuple[str, ...]) -> Annotation:
    rng = seeded_rng(("sample-identity", graph.circuit.name, class_names))
    probabilities = rng.dirichlet(np.ones(len(class_names)), size=graph.n_vertices)
    return Annotation(
        graph=graph,
        class_names=class_names,
        vertex_classes=probabilities.argmax(axis=1).astype(np.int64),
        probabilities=probabilities,
    )


def _port_labels(graph: CircuitGraph) -> dict[str, str]:
    if not graph.nets:
        return {}
    return {graph.nets[0]: "antenna", graph.nets[len(graph.nets) // 2]: "oscillating"}


def _post_parts(graph: CircuitGraph, partition, class_names) -> tuple:
    annotation = _synthetic_annotation(graph, class_names)
    post1 = postprocess_ccc(annotation, default_library(), partition=partition)
    post2 = apply_port_rules(post1, _port_labels(graph))
    return (
        _array_parts(post1.annotation.vertex_classes),
        sorted(post1.ccc_classes.items()),
        [(cid, m.primitive, sorted(m.elements)) for cid, m in post1.standalone],
        post1.annotation.extra_classes,
        _array_parts(post2.annotation.vertex_classes),
        sorted(post2.ccc_classes.items()),
    )


def _digest(circuit) -> str:
    graph = CircuitGraph.from_circuit(circuit)
    sample = GraphSample.from_graph(graph, labels={}, levels=LEVELS, seed=0)
    pyramid = sample.pyramid
    partition = channel_connected_components(graph)
    parts = (
        _array_parts(sample.features),
        [_matrix_parts(a) for a in pyramid.adjacencies],
        [_array_parts(a) for a in pyramid.assignments],
        [_matrix_parts(lap) for lap in pyramid.laplacians],
        [sorted(c) for c in partition.components],
        list(partition.of_element.items()),
        sorted((net, sorted(cids)) for net, cids in partition.of_net.items()),
        _post_parts(graph, partition, OTA_CLASSES),
        _post_parts(graph, partition, RF_CLASSES),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def test_every_deck_has_a_digest():
    assert set(DIGESTS) == set(DECKS)
    assert len(DECKS) == len(EXAMPLE_DECK_PATHS) + len(CORPUS_DECK_PATHS) + 1 + N_OTA_VARIANTS


@pytest.mark.parametrize("deck_id", sorted(DECKS))
def test_sample_digest(deck_id):
    assert _digest(DECKS[deck_id]()) == DIGESTS[deck_id]
