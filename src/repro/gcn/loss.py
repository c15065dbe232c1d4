"""Softmax cross-entropy with label masks.

Vertices on sub-block boundaries can legitimately belong to multiple
blocks (Sec. II-B); such vertices are excluded from the loss through a
boolean mask rather than being forced into one class.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically-stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def batched_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    offsets: np.ndarray,
    class_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-graph masked cross-entropy over a packed batch.

    ``logits``/``labels``/``mask`` are the packed (Σn_i, ·) arrays of a
    :class:`~repro.gcn.batch.PackedBatch`; ``offsets`` its level-0
    graph boundaries.  Returns ``(losses, counts, grad)`` where
    ``losses[i]`` and ``counts[i]`` are graph ``i``'s mean masked loss
    and masked-vertex count, and ``grad`` is the packed gradient with
    each graph's rows normalized by *its own* count.  A batch of one is
    the mean masked cross-entropy of one graph.

    Per graph, the result is bitwise what the graph alone produces (and
    what :func:`repro.testing.reference.cross_entropy` computes): the
    elementwise operation order is preserved, and the loss sums use
    ``np.add.reduceat``'s sequential accumulation, which is
    segment-stable — a segment sums to the same bits alone or inside a
    packed array.
    """
    n, _ = logits.shape
    n_graphs = len(offsets) - 1
    grad = np.zeros_like(logits)
    losses = np.zeros(n_graphs)
    running = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    counts = running[offsets[1:]] - running[offsets[:-1]]
    if not counts.any():
        return losses, counts, grad

    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    weights = np.ones(n)
    if class_weights is not None:
        weights = class_weights[labels]
    log_losses = -np.log(np.clip(picked, 1e-12, None)) * weights
    # Per-graph means over the mask-compressed array: graph i owns the
    # compressed rows running[offsets[i]]:running[offsets[i+1]], and
    # reduceat's sequential accumulation gives the same bits as summing
    # each graph's own masked rows alone.  (reduceat quirk: an empty
    # segment yields the element at its clipped start index — those
    # entries are zeroed by the ``counts > 0`` select.)
    compressed = log_losses[mask]
    starts = np.minimum(running[offsets[:-1]], len(compressed) - 1)
    sums = np.add.reduceat(compressed, starts)
    losses = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

    # Row scale: mask·weight/count_of_owning_graph, matching the
    # one-graph ``grad[mask] *= weights[mask] / count`` op order.
    graph_of = np.repeat(np.arange(n_graphs), np.diff(offsets))
    denom = np.maximum(counts, 1)[graph_of]
    grad[mask] = probs[mask]
    grad[np.arange(n)[mask], labels[mask]] -= 1.0
    grad[mask] *= weights[mask, None] / denom[mask, None]
    return losses, counts, grad


def l2_penalty(params: list[np.ndarray], strength: float) -> float:
    """Scalar L2 regularization term ``(λ/2) Σ‖W‖²``."""
    if strength == 0.0:
        return 0.0
    return 0.5 * strength * sum(float((p**2).sum()) for p in params)
