"""Normalized graph Laplacians and their spectra (Sec. III-A, Eq. 1).

The GCN's spectral filters are polynomials in the rescaled normalized
Laplacian ``L̂ = 2 L / λmax − I``.  Isolated vertices (degree 0) get a
zero row in the normalized adjacency so their Laplacian diagonal is 1,
the standard convention that keeps L positive semidefinite with
eigenvalues in [0, 2].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.runtime.cache import Memo

#: Per-matrix λmax memo (identity-keyed, weakref-guarded): repeated
#: ``rescaled_laplacian``/``largest_eigenvalue(exact=True)`` calls on
#: the same Laplacian object — every training epoch rebuilds the same
#: filter stack — pay for Lanczos once.
_LMAX_MEMO = Memo()


def csr_from_rows(rows, cols, values, n: int) -> sp.csr_matrix:
    """Square ``n × n`` canonical CSR from duplicate-free entries in
    row-major order: one constructor call, int32 indices as scipy picks."""
    index_dtype = np.int32 if max(n, len(cols)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    shape, cols = (n, n), cols.astype(index_dtype)
    return sp.csr_matrix((values, cols, indptr), shape, dtype=np.float64)


def as_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix`` as float64 CSR, converted only when it is not one."""
    if sp.isspmatrix_csr(matrix) and matrix.dtype == np.float64:
        return matrix
    return sp.csr_matrix(matrix, dtype=np.float64)


def csr_entries(matrix: sp.spmatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Canonical float64 CSR of ``matrix`` and the row of each entry."""
    matrix = as_csr(matrix)
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    return matrix, np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def row_sums(matrix: sp.csr_matrix) -> np.ndarray:
    """``matrix.sum(axis=1)``, summed bit for bit as scipy sums it: a
    ``reduceat`` over the non-empty rows only (an empty last row would
    index past the data)."""
    indptr, sums = matrix.indptr, np.zeros(matrix.shape[0])
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        sums[nonempty] = np.add.reduceat(matrix.data, indptr[nonempty])
    return sums


def _with_diagonal(matrix, rows, diagonal, values, fill: float) -> sp.csr_matrix:
    """``matrix``'s pattern holding ``values``, plus ``fill`` on each
    diagonal slot it lacks (``diagonal`` marks the stored ones), exact
    zeros dropped: the sparse ``A ± I`` as one canonical CSR build."""
    n, cols = matrix.shape[0], matrix.indices
    present = np.flatnonzero(diagonal)
    if present.size < n:  # canonical: at most one slot per row
        missing = np.ones(n, dtype=bool)
        missing[rows[present]] = False
        missing = np.flatnonzero(missing)
        # Two sorted runs: the stable sort merges them in one pass.
        keys = np.concatenate((rows * n + cols, missing * (n + 1)))
        order = np.argsort(keys, kind="stable")
        rows = np.concatenate((rows, missing))[order]
        cols = np.concatenate((cols, missing))[order]
        values = np.concatenate((values, np.full(missing.size, fill)))[order]
    # Index gathers: a boolean mask with scattered holes is far slower.
    keep = np.flatnonzero(values)
    if keep.size < values.size:
        rows, cols, values = rows[keep], cols[keep], values[keep]
    return csr_from_rows(rows, cols, values, n)


def normalized_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``L = I − D^{-1/2} A D^{-1/2}`` (Eq. 1).

    Accepts any scipy sparse adjacency; returns canonical CSR.
    Degree-zero vertices contribute an identity row.  Each entry is
    ``(d_i a_ij) d_j`` taken from the identity, in the operation order
    of the sparse products it replaces, so every bit matches them.
    """
    # Degrees over the entries as stored, the order the products sum.
    degrees = row_sums(as_csr(adjacency))
    adjacency, rows = csr_entries(adjacency)
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    cols = adjacency.indices
    scaled = (inv_sqrt[rows] * adjacency.data) * inv_sqrt[cols]
    # ``I − M`` entry by entry: 1 − m on the diagonal, 0 − m elsewhere.
    diagonal = rows == cols
    return _with_diagonal(adjacency, rows, diagonal, diagonal - scaled, 1.0)


def largest_eigenvalue(laplacian: sp.spmatrix, exact: bool = False) -> float:
    """λmax of a normalized Laplacian.

    For normalized Laplacians λmax ≤ 2 always holds, and the Chebyshev
    rescaling only needs an upper bound, so the default returns 2.0
    (Defferrard's choice; also what the paper's TensorFlow code used).
    Set ``exact=True`` to compute it with Lanczos via ARPACK — the
    "computed inexpensively using the Lanczos algorithm" path of
    Sec. III-A.  The exact value is memoized per Laplacian *object*
    (identity-keyed, entries dying with the matrix), so repeated calls
    on the same adjacency never re-run the iteration.  Callers that
    mutate a matrix in place must pass a fresh object.
    """
    if not exact:
        return 2.0
    return _LMAX_MEMO.get_or_build(laplacian, _lanczos_lmax)


def _lanczos_lmax(laplacian: sp.spmatrix) -> float:
    n = laplacian.shape[0]
    if n <= 2:
        dense = laplacian.toarray()
        return float(np.linalg.eigvalsh(dense).max())
    value = spla.eigsh(
        laplacian.asfptype(), k=1, which="LM", return_eigenvectors=False
    )
    return float(value[0])


def rescaled_laplacian(
    laplacian: sp.spmatrix, lmax: float | None = None
) -> sp.csr_matrix:
    """``L̂ = 2 L / λmax − I`` so the spectrum lands in [−1, 1] (Eq. 3)."""
    laplacian, rows = csr_entries(laplacian)
    if lmax is None:
        lmax = largest_eigenvalue(laplacian)
    if lmax <= 0:
        raise ValueError(f"λmax must be positive, got {lmax}")
    # ``s L − I`` entry by entry: s l − 1 on the diagonal, s l − 0 elsewhere.
    diagonal = rows == laplacian.indices
    values = laplacian.data * (2.0 / lmax) - diagonal
    return _with_diagonal(laplacian, rows, diagonal, values, -1.0)


def laplacian_spectrum(adjacency: sp.spmatrix) -> np.ndarray:
    """All eigenvalues ("frequencies of the graph") of the normalized
    Laplacian, ascending.  Dense computation — for tests and small
    graphs only."""
    lap = normalized_laplacian(adjacency).toarray()
    return np.linalg.eigvalsh(lap)


def fourier_basis(adjacency: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``L = U Λ Uᵀ`` of the normalized Laplacian.

    Returns ``(eigenvalues, U)``; the graph Fourier transform of a
    signal x is ``Uᵀ x``.  Dense — for validation, not for training.
    """
    lap = normalized_laplacian(adjacency).toarray()
    eigenvalues, u = np.linalg.eigh(lap)
    return eigenvalues, u
