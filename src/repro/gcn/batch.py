"""Block-diagonal minibatch packing for the recognition GCN.

Graphs have varying vertex counts, so per-sample training loops pay B
separate Chebyshev recurrences and B small GEMMs per minibatch.  The
standard batched-GNN trick packs the B samples into *one* virtual graph
whose Laplacian is block diagonal::

    L_packed = diag(L_0, L_1, …, L_{B-1})        (CSR, per level)
    X_packed = vstack(X_0, …, X_{B-1})           (Σn_i, F)

Because the blocks are disconnected, ``L_packed @ X_packed`` computes
every sample's sparse product in one call, the three-term Chebyshev
recurrence runs once for the whole batch, and every dense layer sees a
single tall GEMM instead of B short ones.  Cluster assignments are
concatenated with per-sample *coarse* offsets so pooling/unpooling stay
within their own block.

This is the only GCN path: a single sample runs as a batch of one, a
zero-copy view of the sample (see :func:`pack_samples`).

Numerical equivalence to one-sample batches: every graph-structured
operation is *bitwise* identical — CSR matmul is row-by-row (a block's
rows only touch that block's columns, in the same nnz order), pooling
and unpooling are cluster-local, and BatchNorm/Dropout consult
``offsets`` to reproduce the per-sample statistics and RNG stream
segment by segment (see ``layers.py``).  The dense GEMMs agree to fp64
rounding: BLAS kernels are row-invariant for most shapes but *not*
guaranteed to be (OpenBLAS picks different kernels for narrow outputs
such as the ``n_classes``-wide head), so packed logits can differ from
per-sample logits by ~1 ulp.  Class predictions (argmax) are identical
in practice; golden tests pin argmax equality exactly and logits to
tight fp64 tolerance.  Parameter-gradient accumulation likewise
differs only by float summation order.

``offsets[ℓ]`` is the (B+1,) vertex-boundary array at coarsening level
ℓ: sample ``i`` owns packed rows ``offsets[ℓ][i]:offsets[ℓ][i+1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.layers import SampleContext, cached_flat_basis, flat_basis
from repro.gcn.samples import GraphSample


def block_diag_csr(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """CSR block-diagonal of square CSR blocks, preserving nnz order.

    Rows keep their within-block column order (scipy canonicalizes to
    sorted indices, which each block already has), so a row of the
    packed product accumulates in exactly the per-sample order — the
    bitwise-parity guarantee the golden tests rely on.
    """
    if len(blocks) == 1:
        return blocks[0]
    # Direct CSR concatenation: stacked row pointers, column indices
    # shifted by each block's diagonal offset.  Equivalent to
    # ``sp.block_diag(blocks, format="csr")`` but skips the COO
    # round-trip, which dominated pack time (~6x slower) at minibatch
    # scale.
    sizes = [b.shape[0] for b in blocks]
    n = sum(sizes)
    idx_dtype = np.result_type(*(b.indices.dtype for b in blocks))
    col_offsets = np.cumsum([0] + sizes[:-1], dtype=idx_dtype)
    nnz_offsets = np.cumsum(
        [0] + [b.nnz for b in blocks[:-1]], dtype=idx_dtype
    )
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate(
        [b.indices.astype(idx_dtype, copy=False) + off
         for b, off in zip(blocks, col_offsets)]
    )
    indptr = np.concatenate(
        [np.zeros(1, dtype=idx_dtype)]
        + [b.indptr[1:].astype(idx_dtype, copy=False) + off
           for b, off in zip(blocks, nnz_offsets)]
    )
    # The arrays are valid canonical CSR by construction, so skip the
    # constructor's format checks and index-dtype scans (a measurable
    # share of pack time); fall back to the checking constructor if the
    # private fast path ever disappears.
    try:
        out = sp.csr_matrix.__new__(sp.csr_matrix)
        out.data = data
        out.indices = indices
        out.indptr = indptr
        out._shape = (n, n)
        return out
    except AttributeError:  # pragma: no cover - scipy internals moved
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@dataclass
class PackedPyramid:
    """Coarsening pyramid of a packed batch: block-diagonal Laplacians
    plus offset-shifted cluster assignments at every shared level."""

    laplacians: list[sp.csr_matrix]
    assignments: list[np.ndarray]


@dataclass
class PackedBatch:
    """B graph samples packed into one block-diagonal virtual sample."""

    samples: list[GraphSample]
    features: np.ndarray  # (Σn_i, F) vstacked
    labels: np.ndarray  # (Σn_i,) concatenated
    mask: np.ndarray  # (Σn_i,) concatenated
    pyramid: PackedPyramid
    offsets: list[np.ndarray]  # per level: (B+1,) vertex boundaries
    #: Packed-lifetime memo (the packed first-layer Chebyshev basis);
    #: mirrors :attr:`GraphSample.runtime_cache`.
    runtime_cache: dict = field(default_factory=dict)

    @property
    def n_graphs(self) -> int:
        return len(self.samples)

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]

    def context(self) -> SampleContext:
        """Fresh per-forward context carrying the segment offsets."""
        return SampleContext(
            laplacians=self.pyramid.laplacians,
            assignments=self.pyramid.assignments,
            cache=self.runtime_cache,
            offsets=self.offsets,
        )

    def split(self, array: np.ndarray) -> list[np.ndarray]:
        """Slice a packed level-0 row array back into per-sample views."""
        bounds = self.offsets[0]
        return [
            array[bounds[i] : bounds[i + 1]] for i in range(self.n_graphs)
        ]

    def seed_input_basis(self, order: int) -> None:
        """Populate the packed first-layer Chebyshev-basis cache.

        The basis depends only on each sample's fixed Laplacian and
        features, never on the weights, so it is shared across every
        epoch *and* every batch composition.  Strategy:

        * all samples cold → one packed recurrence over the
          block-diagonal Laplacian, then store per-sample views back on
          each :attr:`GraphSample.runtime_cache` for later repackings;
        * any sample warm → fill the cold ones individually and vstack
          (one concatenate instead of K sparse products).

        Both routes produce bitwise-identical packed flats.
        """
        lap0 = self.pyramid.laplacians[0]
        if cached_flat_basis(self.runtime_cache, self.features, lap0, order) is not None:
            return
        own = [
            (s.runtime_cache, s.features, s.pyramid.laplacians[0])
            for s in self.samples
        ]
        if all(cached_flat_basis(*args, order) is None for args in own):
            flat = flat_basis(lap0, self.features, order, self.runtime_cache)
            bounds = self.offsets[0]
            for i, (cache, features, lap) in enumerate(own):
                cache["cheb-input-flat"] = (
                    features, lap, order, flat[bounds[i] : bounds[i + 1]],
                )
        else:
            flat = np.vstack(
                [flat_basis(lap, x, order, cache) for cache, x, lap in own]
            )
            self.runtime_cache["cheb-input-flat"] = (
                self.features, lap0, order, flat,
            )


def pack_samples(samples: list[GraphSample]) -> PackedBatch:
    """Pack B samples into one block-diagonal :class:`PackedBatch`.

    Packs the deepest pyramid prefix *every* sample carries; a model
    needing more levels fails with :class:`ModelConfigError`.

    A batch of one is a zero-copy view: it shares the sample's
    features, labels, mask, Laplacian and assignment lists and
    ``runtime_cache`` (the very same objects), so the first-layer
    Chebyshev basis and the pool-member memos stay per-sample.
    """
    if not samples:
        raise ModelConfigError("cannot pack an empty sample batch")
    if len(samples) == 1:
        (s,) = samples
        laps = s.pyramid.laplacians
        return PackedBatch(
            [s], s.features, s.labels, s.mask,
            PackedPyramid(laps, s.pyramid.assignments),
            [np.array([0, lap.shape[0]], dtype=np.int64) for lap in laps],
            runtime_cache=s.runtime_cache,
        )
    levels = min(len(s.pyramid.assignments) for s in samples)

    offsets: list[np.ndarray] = []
    laplacians: list[sp.csr_matrix] = []
    for level in range(levels + 1):
        blocks = [s.pyramid.laplacians[level] for s in samples]
        sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
        offsets.append(np.concatenate([[0], np.cumsum(sizes)]))
        laplacians.append(block_diag_csr(blocks))

    assignments: list[np.ndarray] = []
    for level in range(levels):
        coarse_bounds = offsets[level + 1]
        assignments.append(
            np.concatenate(
                [
                    s.pyramid.assignments[level] + coarse_bounds[i]
                    for i, s in enumerate(samples)
                ]
            )
        )

    return PackedBatch(
        samples=list(samples),
        features=np.vstack([s.features for s in samples]),
        labels=np.concatenate([s.labels for s in samples]),
        mask=np.concatenate([s.mask for s in samples]),
        pyramid=PackedPyramid(laplacians=laplacians, assignments=assignments),
        offsets=offsets,
    )
