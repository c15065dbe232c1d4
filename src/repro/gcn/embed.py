"""Vertex embeddings and class-separation analysis.

Sec. III opens with: "A GCN can achieve good separation between the
feature representations of vertices in a graph by using the graph
structure."  This module makes that claim measurable: extract the
penultimate-layer representation of every vertex, project it (PCA) for
inspection, and score class separation with a Fisher-style ratio of
between-class to within-class scatter.  The embedding benchmark asserts
that training increases separation over the raw 18-feature input.
"""

from __future__ import annotations

import numpy as np

from repro.gcn.batch import pack_samples
from repro.gcn.layers import Dense
from repro.gcn.model import GCNModel
from repro.gcn.samples import GraphSample


def vertex_embeddings(model: GCNModel, sample: GraphSample) -> np.ndarray:
    """Penultimate activations (input of the final Dense classifier).

    Shape (n_vertices, fc_size) — the representation the softmax
    separates.
    """
    final_dense = None
    for layer in reversed(model.layers):
        if isinstance(layer, Dense):
            final_dense = layer
            break
    if final_dense is None:
        raise ValueError("model has no Dense classifier layer")
    batch = pack_samples([sample])
    ctx = batch.context()
    x = batch.features
    for layer in model.layers:
        if layer is final_dense:
            return x
        x = layer.forward(x, ctx, training=False)
    raise AssertionError("unreachable: final Dense not encountered")


def dataset_embeddings(
    model: GCNModel, samples: list[GraphSample]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (embeddings, labels) over the *labeled* vertices of all
    samples.  Labels are the ground-truth class ids."""
    chunks, labels = [], []
    for sample in samples:
        emb = vertex_embeddings(model, sample)
        chunks.append(emb[sample.mask])
        labels.append(sample.labels[sample.mask])
    return np.concatenate(chunks, axis=0), np.concatenate(labels, axis=0)


def fisher_separation(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Between-class over within-class scatter (higher = better
    separated).  Scale-invariant, so raw features and learned
    embeddings compare fairly."""
    classes = np.unique(labels)
    if len(classes) < 2:
        return 0.0
    overall_mean = embeddings.mean(axis=0)
    between = 0.0
    within = 0.0
    for cls in classes:
        members = embeddings[labels == cls]
        mean = members.mean(axis=0)
        between += len(members) * float(((mean - overall_mean) ** 2).sum())
        within += float(((members - mean) ** 2).sum())
    if within == 0.0:
        return np.inf
    return between / within


def pca_project(embeddings: np.ndarray, dims: int = 2) -> np.ndarray:
    """Plain-numpy PCA projection for inspection/plotting."""
    centered = embeddings - embeddings.mean(axis=0)
    _u, _s, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:dims].T


def separation_report(
    model: GCNModel,
    samples: list[GraphSample],
    class_names: tuple[str, ...],
) -> str:
    """Text report: per-class counts + Fisher separation, raw vs learned."""
    learned, labels = dataset_embeddings(model, samples)
    raw = np.concatenate([s.features[s.mask] for s in samples], axis=0)
    lines = ["class counts:"]
    for cls_id, name in enumerate(class_names):
        lines.append(f"  {name:<8} {(labels == cls_id).sum()}")
    lines.append(
        f"Fisher separation — raw 18 features: {fisher_separation(raw, labels):.3f}"
    )
    lines.append(
        f"Fisher separation — GCN embeddings:  {fisher_separation(learned, labels):.3f}"
    )
    return "\n".join(lines)
