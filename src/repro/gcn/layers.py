"""Neural-network layers with manual forward/backward passes.

No autograd framework is available offline, so every layer implements
its own reverse-mode gradient.  The contract:

* ``forward(x, ctx, training)`` consumes an (n, F) activation and the
  per-sample :class:`SampleContext` (graph Laplacians and pooling maps
  at every coarsening level) and returns the next activation;
* ``backward(grad)`` consumes ∂loss/∂output, accumulates parameter
  gradients into ``self.grads`` and returns ∂loss/∂input.

Layers are stateful across a single forward/backward pair (they cache
what backward needs); the :class:`~repro.gcn.model.GCNModel` drives
them strictly in that order, one packed batch (``gcn/batch.py``) at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.chebyshev import chebyshev_basis, chebyshev_basis_backward


@dataclass
class SampleContext:
    """Graph-dependent state a layer stack needs for one sample.

    ``laplacians[ℓ]`` is the rescaled Laplacian at coarsening level ℓ
    (level 0 = original graph).  ``assignments[ℓ]`` maps fine vertex →
    coarse vertex between level ℓ and ℓ+1.  ``level`` is mutated by
    pool/unpool layers as the sample flows through the network.

    ``cache`` is an optional sample-lifetime dict (persisted on the
    owning :class:`~repro.gcn.samples.GraphSample`, shared by every
    forward pass over that sample).  Layers use it to memoize purely
    graph-and-input-dependent work — e.g. the first ChebConv layer's
    Chebyshev basis, which depends only on the fixed Laplacian and the
    fixed input features, not on the weights, and is therefore
    identical across every epoch of training.

    ``offsets`` is set by :class:`~repro.gcn.batch.PackedBatch` when
    the "sample" is really B block-diagonally packed graphs:
    ``offsets[ℓ][i]`` is the first packed row of graph ``i`` at
    coarsening level ℓ.  Layers whose math is *not* row-local
    (BatchNorm statistics, Dropout's RNG stream) consult
    :meth:`segment_offsets` to reproduce the per-sample behaviour
    segment by segment; everything else is oblivious to packing.
    """

    laplacians: list[sp.csr_matrix]
    assignments: list[np.ndarray] = field(default_factory=list)
    level: int = 0
    cache: dict | None = None
    offsets: list[np.ndarray] | None = None

    @property
    def laplacian(self) -> sp.csr_matrix:
        return self.laplacians[self.level]

    def segment_offsets(self) -> np.ndarray | None:
        """Per-graph row boundaries at the current level, or ``None``.

        Returns ``None`` for unpacked samples *and* for single-graph
        packings, where the per-sample math needs no segmentation.
        """
        if self.offsets is None:
            return None
        bounds = self.offsets[self.level]
        return bounds if len(bounds) > 2 else None

    def reset(self) -> None:
        self.level = 0


class Layer:
    """Base layer: parameter bookkeeping plus the fwd/bwd contract."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(
        self, x: np.ndarray, ctx: SampleContext, training: bool
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for key, value in self.params.items():
            grad = self.grads.get(key)
            if grad is None:
                self.grads[key] = np.zeros_like(value)
            else:
                # Reuse the buffer: optimizers hold a reference to the
                # grads dict, and a fill avoids per-batch allocations.
                grad.fill(0.0)

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())


class ChebConv(Layer):
    """Graph convolution with order-K Chebyshev filters (Sec. III-A).

    Output ``Y = [T_0(L̂)X | … | T_{K-1}(L̂)X] W + b`` with
    ``W ∈ R^{K·Fin × Fout}``.  Glorot-initialized.
    """

    def __init__(self, in_features: int, out_features: int, order: int, rng):
        super().__init__()
        if order < 1:
            raise ModelConfigError("ChebConv order must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.order = order
        scale = np.sqrt(2.0 / (order * in_features + out_features))
        self.params["weight"] = rng.normal(
            0.0, scale, size=(order * in_features, out_features)
        )
        self.params["bias"] = np.zeros(out_features)
        self.zero_grad()
        self._laplacian: sp.csr_matrix | None = None
        #: Set by :class:`~repro.gcn.model.GCNModel` on the first conv
        #: layer: its input is the sample's (constant) feature matrix,
        #: so ∂loss/∂input is never consumed and the K sparse products
        #: of the basis backward pass can be skipped entirely.
        self.input_layer = False

    def forward(self, x, ctx, training):
        laplacian = ctx.laplacian
        cache = ctx.cache if self.input_layer else None
        flat = flat_basis(laplacian, x, self.order, cache)
        self._flat = flat
        self._laplacian = laplacian
        return flat @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += self._flat.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        n = grad.shape[0]
        if self.input_layer:
            # ∂loss/∂features is never used; skip K sparse matmuls.
            return np.zeros((n, self.in_features))
        grad_flat = grad @ self.params["weight"].T  # (n, K*Fin)
        grad_basis = grad_flat.reshape(n, self.order, self.in_features).transpose(
            1, 0, 2
        )
        return chebyshev_basis_backward(self._laplacian, grad_basis)


def cached_flat_basis(cache, x, laplacian, order) -> np.ndarray | None:
    """The memoized :func:`flat_basis` of ``x`` in ``cache``, or None.

    Identity check: a hit requires the very same input and Laplacian
    array objects (the cache holds strong references, so their ids
    cannot be recycled) at the same order.  Weight updates never
    invalidate the basis — it depends only on the Laplacian and the
    input — so the entry stays valid for the sample's whole lifetime,
    and any model with the same filter order shares it.
    """
    entry = cache.get("cheb-input-flat")
    if (
        entry is not None
        and entry[0] is x
        and entry[1] is laplacian
        and entry[2] == order
    ):
        return entry[3]
    return None


def flat_basis(laplacian, x, order, cache=None) -> np.ndarray:
    """(n, K·Fin) Chebyshev basis of ``x``, memoized in ``cache``."""
    if cache is not None:
        flat = cached_flat_basis(cache, x, laplacian, order)
        if flat is not None:
            return flat
    basis = chebyshev_basis(laplacian, x, order)  # (K, n, Fin)
    flat = basis.transpose(1, 0, 2).reshape(x.shape[0], order * x.shape[1])
    if cache is not None:
        cache["cheb-input-flat"] = (x, laplacian, order, flat)
    return flat


class Dense(Layer):
    """Per-vertex fully connected layer ``Y = X W + b``."""

    def __init__(self, in_features: int, out_features: int, rng):
        super().__init__()
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.params["weight"] = rng.normal(0.0, scale, size=(in_features, out_features))
        self.params["bias"] = np.zeros(out_features)
        self.zero_grad()

    def forward(self, x, ctx, training):
        self._x = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += self._x.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        return grad @ self.params["weight"].T


class ReLU(Layer):
    """Rectified linear activation (the paper's empirical winner)."""

    def forward(self, x, ctx, training):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class Tanh(Layer):
    """tanh activation — kept for the ReLU-vs-tanh comparison."""

    def forward(self, x, ctx, training):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad):
        return grad * (1.0 - self._y**2)


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, rng):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ModelConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, ctx, training):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # One draw covers packed batches too: Generator.random fills
        # C-contiguous doubles sequentially, so a single (Σn_i, F) draw
        # consumes the stream exactly as B consecutive (n_i, F) draws
        # would — the packed masks are bit-identical to the per-sample
        # loop over the same graphs in pack order.
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class BatchNorm(Layer):
    """Normalization over the vertex axis of one sample.

    With one graph per forward pass, this normalizes each feature over
    the sample's vertices (running statistics are kept for inference) —
    the "batch normalization ... all input quantities in the same
    numerical range" regularizer of Sec. V-A.
    """

    def __init__(self, features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.params["gamma"] = np.ones(features)
        self.params["beta"] = np.zeros(features)
        self.zero_grad()
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def _fold_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = (
            self.momentum * self.running_mean + (1 - self.momentum) * mean
        )
        self.running_var = (
            self.momentum * self.running_var + (1 - self.momentum) * var
        )

    def forward(self, x, ctx, training):
        self._training = training
        if not training:
            self._std = np.sqrt(self.running_var + self.eps)
            self._xhat = (x - self.running_mean) / self._std
            return self.params["gamma"] * self._xhat + self.params["beta"]
        # Training statistics are per graph: one segment per packed
        # graph (or the whole array for a lone sample).  Segment sums
        # go through ``np.add.reduceat``, whose plain sequential
        # accumulation is *segment-stable* — a segment sums to the same
        # bits whether it is reduced alone or inside a packed array —
        # which is exactly the packed/per-sample parity guarantee.
        # (``ndarray.mean``'s pairwise summation is faster per call but
        # cannot be vectorized over ragged segments bit-identically.)
        bounds = ctx.segment_offsets()
        if bounds is None:
            starts = np.zeros(1, dtype=np.int64)
            sizes = np.array([x.shape[0]], dtype=np.int64)
        else:
            starts = bounds[:-1]
            sizes = bounds[1:] - starts
        counts = sizes.astype(np.float64)[:, None]
        self._starts, self._sizes, self._counts = starts, sizes, counts
        mean = np.add.reduceat(x, starts, axis=0) / counts
        single = len(starts) == 1
        centered = x - (mean if single else np.repeat(mean, sizes, axis=0))
        var = np.add.reduceat(centered * centered, starts, axis=0) / counts
        # Running stats fold once per graph in pack order, matching the
        # per-sample loop bitwise.
        for i in range(len(starts)):
            self._fold_running(mean[i], var[i])
        std = np.sqrt(var + self.eps)
        self._std = std if single else np.repeat(std, sizes, axis=0)
        self._xhat = centered / self._std
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(self, grad):
        xhat, std = self._xhat, self._std
        self.grads["gamma"] += (grad * xhat).sum(axis=0)
        self.grads["beta"] += grad.sum(axis=0)
        gg = grad * self.params["gamma"]
        if not self._training:
            return gg / std
        starts, sizes, counts = self._starts, self._sizes, self._counts
        mean_gg = np.add.reduceat(gg, starts, axis=0) / counts
        mean_gx = np.add.reduceat(gg * xhat, starts, axis=0) / counts
        if len(starts) == 1:
            out = (gg - mean_gg - xhat * mean_gx) / std
        else:
            out = (
                gg
                - np.repeat(mean_gg, sizes, axis=0)
                - xhat * np.repeat(mean_gx, sizes, axis=0)
            ) / std
        single_vertex = sizes == 1
        if single_vertex.any():
            # A one-vertex graph has no batch statistics to backprop
            # through; its gradient passes straight through the scale.
            rows = np.repeat(single_vertex, sizes)
            out[rows] = gg[rows] / std[rows]
        return out


def _cluster_members(ctx: SampleContext, level: int) -> tuple:
    """Per-cluster (lowest, highest) fine-member indices at ``level``.

    Graclus clusters hold one or two vertices, so max-pooling reduces
    to two gathers plus an elementwise max — far cheaper than the
    unbuffered ``np.ufunc.at`` scatter it replaces.  The member arrays
    depend only on the static assignment, so they are memoized on the
    context cache (per sample forever; per packed batch for its
    lifetime) keyed by the assignment's identity.
    """
    assign = ctx.assignments[level]
    key = ("pool-members", level)
    cache = ctx.cache if ctx.cache is not None else {}
    entry = cache.get(key)
    if entry is not None and entry[0] is assign:
        return entry
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    order = np.argsort(assign, kind="stable")
    clusters = np.arange(n_coarse)
    sorted_assign = assign[order]
    lo = order[np.searchsorted(sorted_assign, clusters, side="left")]
    hi = order[np.searchsorted(sorted_assign, clusters, side="right") - 1]
    entry = (assign, lo, hi)
    cache[key] = entry
    return entry


class GraphPool(Layer):
    """Cluster max-pooling between coarsening levels (Sec. III-B).

    Uses the Graclus cluster assignment stored in the sample context:
    each coarse vertex takes the elementwise max over its (1 or 2)
    members — "pooling operations ... performed very efficiently" on
    the cluster tree.  Advances ``ctx.level``.
    """

    def forward(self, x, ctx, training):
        if ctx.level >= len(ctx.assignments):
            raise ModelConfigError(
                "GraphPool used beyond the available coarsening levels"
            )
        _, lo, hi = _cluster_members(ctx, ctx.level)
        low, high = x[lo], x[hi]
        out = np.maximum(low, high)
        # Track which fine vertex supplied each max for routing grads:
        # among a cluster's members that attain the max, the highest
        # fine index wins.
        self._winner = np.where(high >= low, hi[:, None], lo[:, None])
        self._n_fine = x.shape[0]
        ctx.level += 1
        return out

    def backward(self, grad):
        out = np.zeros((self._n_fine, grad.shape[1]))
        cols = np.broadcast_to(
            np.arange(grad.shape[1]), self._winner.shape
        )
        # One winner per (cluster, feature) and clusters are disjoint,
        # so plain fancy assignment scatters without collisions.
        out[self._winner, cols] = grad
        return out


class GraphUnpool(Layer):
    """Inverse of :class:`GraphPool`: copy coarse features to members.

    Lets the Fig. 4 conv/pool stack still emit *per-vertex* labels: the
    final network unpools back to level 0 before the dense softmax
    head, so each original vertex receives the representation of its
    multilevel cluster.
    """

    def forward(self, x, ctx, training):
        if ctx.level == 0:
            raise ModelConfigError("GraphUnpool at level 0 has nothing to undo")
        ctx.level -= 1
        assign = ctx.assignments[ctx.level]
        self._assign = assign
        _, self._lo, self._hi = _cluster_members(ctx, ctx.level)
        self._n_coarse = x.shape[0]
        return x[assign]

    def backward(self, grad):
        # Each coarse vertex sums its members' gradients in ascending
        # fine order — the order ``np.add.at(out, assign, grad)`` would
        # accumulate them in.
        out = grad[self._lo].copy()
        pair = self._hi != self._lo
        out[pair] += grad[self._hi[pair]]
        return out


class Concat(Layer):
    """Skip-connection concatenation with a stored earlier activation.

    Used by the unpooling head to mix fine-level detail back in.
    Forward stores nothing to learn; backward splits the gradient.
    """

    def __init__(self) -> None:
        super().__init__()
        self.saved: np.ndarray | None = None

    def forward(self, x, ctx, training):
        if self.saved is None:
            raise ModelConfigError("Concat.saved not set before forward")
        self._split = x.shape[1]
        return np.concatenate([x, self.saved], axis=1)

    def backward(self, grad):
        return grad[:, : self._split]
