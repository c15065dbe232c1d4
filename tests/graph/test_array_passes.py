"""The edge-array graph passes against their scipy / Edge-list twins.

Production builds the adjacency, the Laplacians, the Graclus matching,
the coarsened adjacencies and the CCC partition from the graph's edge
arrays; ``repro.testing.reference`` keeps the previous bodies (scipy
matrix products, numpy scalar loops, walks of the ``Edge`` list).  Every
comparison here is exact: same dtype, same ``data``/``indices``/
``indptr`` bytes, same assignments for one rng, and the same partition
down to the insertion order of ``of_element`` and ``of_net``.

Random matrices cover isolated vertices (the last vertex too: an
unconnected declared port puts one there), self-loops, duplicate COO
entries, non-unit weights, COO entries in shuffled order, asymmetric
patterns and n ∈ {0, 1, 2}.  A CSR whose indices are unsorted is the
one input the products leave in scipy's arbitrary order; the array
passes return its canonical form, which is what is asserted for it.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcn.coarsening import build_pyramid, coarsen_adjacency, graclus_matching
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import channel_connected_components
from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import preprocess
from repro.testing.generator import GenConfig, generate_deck
from repro.testing.reference import (
    naive_channel_connected_components,
    naive_coarsen_adjacency,
    naive_graclus_matching,
    naive_normalized_laplacian,
    naive_rescaled_laplacian,
)
from repro.utils.rng import seeded_rng

pytestmark = pytest.mark.property

#: Non-unit weights whose sums are not exact in binary floating point.
WEIGHTS = st.sampled_from([1.0, 0.1, 0.3, 0.7, 1.9, 2.5, 1e-3, 3.3])


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def canonical(matrix: sp.csr_matrix) -> sp.csr_matrix:
    matrix = matrix.copy()
    matrix.sum_duplicates()
    return matrix


@st.composite
def coo_graphs(draw, max_n: int = 12) -> sp.coo_matrix:
    """Shuffled COO triplets, duplicates and self-loops allowed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    # Vertices at and past ``reach`` stay isolated, the last one included.
    reach = draw(st.integers(min_value=0, max_value=n)) if n else 0
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(reach - 1, 0)),
                st.integers(0, max(reach - 1, 0)),
                WEIGHTS,
            ),
            max_size=4 * max_n if reach else 0,
        )
    )
    if draw(st.booleans()):  # symmetric, like every adjacency built here
        entries += [(j, i, w) for i, j, w in entries]
    entries = draw(st.permutations(entries))
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n))


def shuffled_rows(matrix: sp.csr_matrix, seed: int) -> sp.csr_matrix:
    """The same matrix with each row's entries permuted (no duplicates)."""
    matrix = canonical(sp.csr_matrix(matrix))
    rng = np.random.default_rng(seed)
    indices, data = matrix.indices.copy(), matrix.data.copy()
    for row in range(matrix.shape[0]):
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        order = lo + rng.permutation(hi - lo)
        indices[lo:hi], data[lo:hi] = indices[order], data[order]
    return sp.csr_matrix((data, indices, matrix.indptr.copy()), shape=matrix.shape)


# -- Laplacians ---------------------------------------------------------


@given(coo_graphs())
@settings(max_examples=200, deadline=None)
def test_laplacians_match_products(coo):
    for matrix in (coo, sp.csr_matrix(coo)):
        lap = normalized_laplacian(matrix)
        assert_same_csr(lap, naive_normalized_laplacian(matrix))
        assert_same_csr(rescaled_laplacian(lap), naive_rescaled_laplacian(lap))
        assert_same_csr(
            rescaled_laplacian(matrix, lmax=1.5), naive_rescaled_laplacian(matrix, lmax=1.5)
        )


@given(coo_graphs(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_unsorted_csr_gives_the_canonical_form(coo, seed):
    unsorted = shuffled_rows(coo, seed)
    assert_same_csr(normalized_laplacian(unsorted), canonical(naive_normalized_laplacian(unsorted)))
    assert_same_csr(rescaled_laplacian(unsorted), canonical(naive_rescaled_laplacian(unsorted)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_graphs(n):
    empty = sp.csr_matrix((n, n))
    assert_same_csr(normalized_laplacian(empty), naive_normalized_laplacian(empty))
    assert_same_csr(rescaled_laplacian(empty), naive_rescaled_laplacian(empty))
    loop = sp.csr_matrix(sp.identity(n))
    assert_same_csr(normalized_laplacian(loop), naive_normalized_laplacian(loop))


def test_isolated_last_vertex():
    # Degrees come from a reduceat over non-empty rows only; an empty
    # last row must not index past the data.
    adj = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3))
    assert_same_csr(normalized_laplacian(adj), naive_normalized_laplacian(adj))
    assign = np.array([0, 0, 1])
    assert_same_csr(coarsen_adjacency(adj, assign), naive_coarsen_adjacency(adj, assign))
    np.testing.assert_array_equal(
        graclus_matching(adj, seeded_rng(0)), naive_graclus_matching(adj, seeded_rng(0))
    )


# -- Graclus and coarsening -----------------------------------------------


@given(coo_graphs(), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_graclus_matches_scalar_loop(coo, seed):
    for matrix in (sp.csr_matrix(coo), shuffled_rows(coo, seed)):
        got = graclus_matching(matrix, seeded_rng(seed))
        want = naive_graclus_matching(matrix, seeded_rng(seed))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(coo_graphs(), st.integers(0, 2**16), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_coarsening_matches_products(coo, seed, n_clusters):
    adj = sp.csr_matrix(coo)
    n = adj.shape[0]
    if n == 0:
        return
    # Graclus pairs and arbitrary (larger, possibly empty) clusters.
    assigns = (
        graclus_matching(adj, seeded_rng(seed)),
        np.random.default_rng(seed).integers(0, n_clusters, size=n),
    )
    for assign in assigns:
        assert_same_csr(coarsen_adjacency(adj, assign), naive_coarsen_adjacency(adj, assign))
        unsorted = shuffled_rows(adj, seed)
        assert_same_csr(
            coarsen_adjacency(unsorted, assign), naive_coarsen_adjacency(unsorted, assign)
        )


@pytest.mark.parametrize("seed", range(3))
def test_coarsening_sums_in_product_order(seed):
    # Many entries per coarse pair: the partial sums must accumulate in
    # the products' order, not just to the same rounded total.
    rng = np.random.default_rng(seed)
    upper = sp.random(300, 300, density=0.2, random_state=rng, format="csr")
    adj = sp.csr_matrix(upper + upper.T)
    assign = rng.integers(0, 5, size=300)
    assert_same_csr(coarsen_adjacency(adj, assign), naive_coarsen_adjacency(adj, assign))


def naive_pyramid(adjacency, levels, rng):
    adjacencies = [sp.csr_matrix(adjacency, dtype=np.float64)]
    assignments = []
    for _ in range(levels):
        if adjacencies[-1].shape[0] <= 1:
            break
        assign = naive_graclus_matching(adjacencies[-1], rng)
        assignments.append(assign)
        adjacencies.append(naive_coarsen_adjacency(adjacencies[-1], assign))
    laplacians = [naive_rescaled_laplacian(naive_normalized_laplacian(a)) for a in adjacencies]
    return adjacencies, assignments, laplacians


def assert_same_pyramid(graph: CircuitGraph, levels: int = 3) -> None:
    pyramid = build_pyramid(graph.adjacency(), levels, seeded_rng(("pyramid", levels)))
    adjacencies, assignments, laplacians = naive_pyramid(
        graph.adjacency(), levels, seeded_rng(("pyramid", levels))
    )
    assert len(pyramid.adjacencies) == len(adjacencies)
    for got, want in zip(pyramid.adjacencies, adjacencies):
        assert_same_csr(got, want)
    for got, want in zip(pyramid.assignments, assignments):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(pyramid.laplacians, laplacians):
        assert_same_csr(got, want)


# -- circuits: adjacency, pyramid, CCC partition ---------------------------

NETS = ["vdd!", "gnd!", "0", "n0", "n1", "n2", "n3", "n4", "n5"]


@st.composite
def circuits(draw):
    """Random flat decks of transistors and passives on a small net pool,
    with one declared port no device touches."""
    net = st.sampled_from(NETS)
    lines = []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["nmos", "pmos", "r", "c"]))
        if kind in ("nmos", "pmos"):
            d, g, s, b = (draw(net) for _ in range(4))
            lines.append(f"m{i} {d} {g} {s} {b} {kind} w=1u l=100n")
        else:
            lines.append(f"{kind}{i} {draw(net)} {draw(net)} 1k")
    flat = flatten(parse_netlist("\n".join(lines + [".end", ""])))
    flat.ports = ("n0", "floating")
    return CircuitGraph.from_circuit(flat)


def assert_same_partition(graph: CircuitGraph) -> None:
    got = channel_connected_components(graph)
    want = naive_channel_connected_components(graph)
    assert got.components == want.components
    assert list(got.of_element.items()) == list(want.of_element.items())
    assert got.of_net == want.of_net
    assert list(got.of_net) == list(want.of_net)


def assert_same_incidence(graph: CircuitGraph) -> None:
    """Each element's ``element_offsets`` slice of the edge arrays is
    its run of the ``Edge`` list, in order."""
    element, net, label = graph.edge_arrays()
    offsets = graph.element_offsets()
    assert len(offsets) == graph.n_elements + 1 and offsets[-1] == len(graph.edges)
    for index in range(graph.n_elements):
        lo, hi = offsets[index], offsets[index + 1]
        want = [(e.net, e.label) for e in graph.edges if e.element == index]
        assert list(zip(net[lo:hi].tolist(), label[lo:hi].tolist())) == want
        assert (element[lo:hi] == index).all()


def naive_adjacency(graph: CircuitGraph) -> sp.csr_matrix:
    rows, cols = [], []
    for edge in graph.edges:
        u, v = edge.element, graph.n_elements + edge.net
        rows.extend((u, v))
        cols.extend((v, u))
    n = graph.n_vertices
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


@given(circuits())
@settings(max_examples=100, deadline=None)
def test_random_circuits(graph):
    assert graph.net_index["floating"] == graph.n_nets - 1  # last vertex isolated
    assert_same_incidence(graph)
    assert_same_csr(graph.adjacency(), naive_adjacency(graph))
    assert_same_partition(graph)
    assert_same_pyramid(graph)


@pytest.mark.parametrize("seed", range(20))
def test_generated_decks(seed):
    deck = generate_deck(seed, GenConfig(max_glue=6))
    circuit = flatten(parse_netlist(deck.text, mode=deck.mode))
    for flat in (circuit, preprocess(circuit)[0]):
        graph = CircuitGraph.from_circuit(flat)
        assert_same_incidence(graph)
        assert_same_csr(graph.adjacency(), naive_adjacency(graph))
        assert_same_partition(graph)
        assert_same_pyramid(graph)
