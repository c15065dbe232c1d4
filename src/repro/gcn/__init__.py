"""Spectral Chebyshev GCN built from scratch on numpy/scipy.

This subpackage is the paper's "TensorFlow GCN" substrate rebuilt for
an offline environment: Chebyshev filters (Eq. 3–5), Graclus
coarsening + pooling, manual backprop layers, Adam/SGD, a trainer with
early stopping, and random-search hyperparameter optimization.
"""

from repro.gcn.batch import PackedBatch, PackedPyramid, pack_samples
from repro.gcn.chebyshev import (
    chebyshev_basis,
    chebyshev_basis_backward,
    chebyshev_polynomial,
    filter_signal,
)
from repro.gcn.coarsening import (
    CoarseningPyramid,
    build_pyramid,
    coarsen_adjacency,
    graclus_matching,
)
from repro.gcn.embed import (
    dataset_embeddings,
    fisher_separation,
    pca_project,
    separation_report,
    vertex_embeddings,
)
from repro.gcn.hyperopt import SearchResult, SearchSpace, Trial, random_search
from repro.gcn.layers import (
    BatchNorm,
    ChebConv,
    Dense,
    Dropout,
    GraphPool,
    GraphUnpool,
    ReLU,
    SampleContext,
    Tanh,
)
from repro.gcn.loss import (
    batched_cross_entropy,
    l2_penalty,
    softmax,
)
from repro.gcn.metrics import (
    ClassReport,
    classification_report,
    accuracy,
    class_report,
    confusion_matrix,
    mean_and_variance,
)
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.optim import SGD, Adam
from repro.gcn.samples import (
    GraphSample,
    class_weights,
    kfold_indices,
    train_validation_split,
)
from repro.gcn.train import (
    History,
    TrainConfig,
    cross_validate,
    evaluate,
    evaluate_confusion,
    train,
)

__all__ = [
    "Adam",
    "BatchNorm",
    "ChebConv",
    "ClassReport",
    "CoarseningPyramid",
    "Dense",
    "Dropout",
    "GCNConfig",
    "GCNModel",
    "GraphPool",
    "GraphSample",
    "GraphUnpool",
    "History",
    "PackedBatch",
    "PackedPyramid",
    "ReLU",
    "SGD",
    "SampleContext",
    "SearchResult",
    "SearchSpace",
    "Tanh",
    "TrainConfig",
    "Trial",
    "accuracy",
    "batched_cross_entropy",
    "build_pyramid",
    "chebyshev_basis",
    "chebyshev_basis_backward",
    "chebyshev_polynomial",
    "class_report",
    "classification_report",
    "class_weights",
    "coarsen_adjacency",
    "confusion_matrix",
    "cross_validate",
    "dataset_embeddings",
    "fisher_separation",
    "pca_project",
    "separation_report",
    "vertex_embeddings",
    "evaluate",
    "evaluate_confusion",
    "filter_signal",
    "graclus_matching",
    "kfold_indices",
    "l2_penalty",
    "mean_and_variance",
    "pack_samples",
    "random_search",
    "softmax",
    "train",
    "train_validation_split",
]
