"""Graclus-style greedy graph coarsening (Sec. III-B).

The paper's pooling uses "the greedy Graclus heuristic, built on top of
the Metis algorithm for multilevel clustering".  The operative part is
Graclus's greedy matching step: repeatedly pick an unmarked vertex and
merge it with the unmarked neighbour maximizing the normalized-cut
weight ``w_ij (1/d_i + 1/d_j)``; unmatched vertices become singleton
clusters.  Applied recursively this roughly halves the graph at every
level, giving the multilevel clustering the pool layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.laplacian import as_csr, csr_entries, csr_from_rows, row_sums
from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian


def graclus_matching(adjacency: sp.spmatrix, rng) -> np.ndarray:
    """One level of greedy normalized-cut matching.

    Returns ``assign``: fine vertex → coarse cluster id (clusters have
    one or two members).  ``rng`` shuffles the visit order, as Graclus
    prescribes, so coarsenings differ between seeds but are fully
    reproducible for a fixed one.
    """
    adjacency = as_csr(adjacency)
    n = adjacency.shape[0]
    degrees = row_sums(adjacency)
    with np.errstate(divide="ignore"):
        inv_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # Every entry's normalized-cut score at once; the greedy loop that
    # must see earlier merges reads plain Python scalars through
    # memoryviews (as fast as lists, without a Python object per entry).
    scores = memoryview(adjacency.data * (inv_deg[rows] + inv_deg[indices]))
    indptr, indices = memoryview(indptr), memoryview(indices)
    order = rng.permutation(n).tolist()
    matched = [-1] * n
    next_cluster = 0
    for vertex in order:
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_score = -np.inf
        for idx in range(indptr[vertex], indptr[vertex + 1]):
            neighbor = indices[idx]
            if neighbor == vertex or matched[neighbor] >= 0:
                continue
            if scores[idx] > best_score:
                best_score = scores[idx]
                best_neighbor = neighbor
        matched[vertex] = next_cluster
        if best_neighbor >= 0:
            matched[best_neighbor] = next_cluster
        next_cluster += 1
    return np.array(matched, dtype=np.int64)


def _sum_by_key(keys: np.ndarray, values: np.ndarray):
    """Distinct ``keys`` ascending and the ``values`` summed per key,
    each sum accumulated in input order (as the sparse products do)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # keys are non-negative
    return keys[first], np.bincount(np.cumsum(first) - 1, weights=values[order])


def coarsen_adjacency(adjacency: sp.spmatrix, assign: np.ndarray) -> sp.csr_matrix:
    """Collapse an adjacency through a cluster assignment.

    ``W_c = Sᵀ W S`` with the diagonal (intra-cluster weight) removed,
    since self-loops carry no information for the next matching or for
    the Laplacian.  Computed as one remap of the stored entries: first
    ``(cluster(u), v)`` sums over fine rows ``u`` ascending, then
    ``(cluster(u), cluster(v))`` sums over fine columns ``v`` ascending,
    the summation order of ``(Sᵀ W) S``, so every bit matches it.
    """
    adjacency, rows = csr_entries(adjacency)
    n = adjacency.shape[0]
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    partial, weights = _sum_by_key(assign[rows] * n + adjacency.indices, adjacency.data)
    keys, weights = _sum_by_key(partial // n * n_coarse + assign[partial % n], weights)
    rows, cols = keys // n_coarse, keys % n_coarse
    keep = np.flatnonzero((rows != cols) & (weights != 0))
    return csr_from_rows(rows[keep], cols[keep], weights[keep], n_coarse)


@dataclass
class CoarseningPyramid:
    """All levels of a multilevel clustering of one graph.

    ``adjacencies[0]`` is the input graph; ``assignments[ℓ]`` maps
    level-ℓ vertices to level-(ℓ+1) clusters; ``laplacians[ℓ]`` is the
    rescaled normalized Laplacian at each level, ready for ChebConv.
    """

    adjacencies: list[sp.csr_matrix]
    assignments: list[np.ndarray]
    laplacians: list[sp.csr_matrix]

    @property
    def n_levels(self) -> int:
        return len(self.adjacencies)

    def sizes(self) -> list[int]:
        return [a.shape[0] for a in self.adjacencies]


def build_pyramid(
    adjacency: sp.spmatrix, levels: int, rng
) -> CoarseningPyramid:
    """Coarsen ``levels`` times and precompute every level's Laplacian."""
    adjacencies = [sp.csr_matrix(adjacency, dtype=np.float64)]
    assignments: list[np.ndarray] = []
    for _ in range(levels):
        current = adjacencies[-1]
        if current.shape[0] <= 1:
            break
        assign = graclus_matching(current, rng)
        assignments.append(assign)
        adjacencies.append(coarsen_adjacency(current, assign))
    laplacians = [
        rescaled_laplacian(normalized_laplacian(a)) for a in adjacencies
    ]
    return CoarseningPyramid(
        adjacencies=adjacencies, assignments=assignments, laplacians=laplacians
    )
