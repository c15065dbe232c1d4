"""The circuit-recognition GCN of Fig. 4.

Architecture (two-layer default, matching the paper):

    input (n × 18)
      → ChebConv(K) + [BatchNorm] + ReLU  → GraphPool
      → ChebConv(K) + ReLU                → GraphPool
      → GraphUnpool × levels (back to the original vertices)
      → Dense(512) + ReLU + Dropout
      → Dense(n_classes) → softmax

The conv/pool trunk is exactly Fig. 4; because GANA annotates
*vertices* (not whole graphs), the trunk's multilevel features are
unpooled back to level 0 before the 512-wide fully-connected softmax
head, so each vertex is classified from its cluster's receptive field.
Setting ``pooling=False`` gives the plain node-GCN variant used in the
fast test paths.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ModelConfigError
from repro.gcn.batch import pack_samples
from repro.gcn.layers import (
    BatchNorm,
    ChebConv,
    Dense,
    Dropout,
    GraphPool,
    GraphUnpool,
    Layer,
    ReLU,
    Tanh,
)
from repro.gcn.loss import softmax
from repro.gcn.samples import GraphSample
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class GCNConfig:
    """Hyperparameters of the recognition GCN.

    Defaults follow Sec. V-A: two convolution layers, filter size
    K = 32, 512-wide fully-connected head, ReLU activations, batch
    normalization and dropout for regularization.
    """

    n_features: int = 18
    n_classes: int = 2
    n_layers: int = 2
    filter_size: int = 32
    channels: tuple[int, ...] = (32, 64)
    fc_size: int = 512
    dropout: float = 0.2
    batch_norm: bool = True
    activation: str = "relu"  # "relu" | "tanh"
    pooling: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ModelConfigError("need at least one conv layer")
        if len(self.channels) < self.n_layers:
            raise ModelConfigError(
                f"channels {self.channels} too short for {self.n_layers} layers"
            )
        if self.activation not in ("relu", "tanh"):
            raise ModelConfigError(f"unknown activation {self.activation!r}")

    def with_(self, **changes) -> "GCNConfig":
        """Functional update, e.g. ``config.with_(filter_size=16)``."""
        return replace(self, **changes)

    @property
    def levels_needed(self) -> int:
        """Coarsening levels samples must carry for this model."""
        return self.n_layers if self.pooling else 0


class GCNModel:
    """Layer stack + prediction API for vertex classification."""

    def __init__(self, config: GCNConfig):
        self.config = config
        rng = seeded_rng(("gcn-init", config.seed))
        act = ReLU if config.activation == "relu" else Tanh
        layers: list[Layer] = []
        in_features = config.n_features
        for layer_idx in range(config.n_layers):
            out_features = config.channels[layer_idx]
            layers.append(
                ChebConv(in_features, out_features, config.filter_size, rng)
            )
            if config.batch_norm:
                layers.append(BatchNorm(out_features))
            layers.append(act())
            if config.pooling:
                layers.append(GraphPool())
            in_features = out_features
        if config.pooling:
            for _ in range(config.n_layers):
                layers.append(GraphUnpool())
        layers.append(Dense(in_features, config.fc_size, rng))
        layers.append(act())
        layers.append(Dropout(config.dropout, seeded_rng(("dropout", config.seed))))
        layers.append(Dense(config.fc_size, config.n_classes, rng))
        self.layers = layers
        # The first conv consumes the sample's constant feature matrix:
        # its Chebyshev basis is cacheable across epochs, and its input
        # gradient is dead (nothing upstream consumes it).
        layers[0].input_layer = True

    # -- plumbing -------------------------------------------------------

    def parameter_slots(self) -> list[tuple[dict, dict]]:
        """(params, grads) pairs for the optimizer."""
        return [
            (layer.params, layer.grads) for layer in self.layers if layer.params
        ]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def n_parameters(self) -> int:
        return sum(layer.n_parameters() for layer in self.layers)

    def weight_arrays(self) -> list[np.ndarray]:
        """All weight matrices (for L2 regularization reporting)."""
        return [
            layer.params["weight"]
            for layer in self.layers
            if "weight" in layer.params
        ]

    # -- forward/backward ------------------------------------------------

    def _check_levels(self, sample) -> None:
        if self.config.pooling and len(sample.pyramid.assignments) < self.config.n_layers:
            raise ModelConfigError(
                f"sample {sample.name!r} has "
                f"{len(sample.pyramid.assignments)} coarsening levels; "
                f"model needs {self.config.n_layers}"
            )

    def forward(self, sample: GraphSample, training: bool) -> np.ndarray:
        """Per-vertex logits of one sample (a packed batch of one)."""
        return self.forward_packed(pack_samples([sample]), training)

    def forward_packed(self, batch, training: bool) -> np.ndarray:
        """Packed-batch logits of shape (Σn_i, n_classes).

        One Chebyshev recurrence and one GEMM per layer serve all of
        ``batch``'s graphs; the result rows match one-sample batches to
        fp64 rounding (see ``gcn/batch.py`` for the exact-vs-ulp
        breakdown).
        """
        for sample in batch.samples:
            self._check_levels(sample)
        first = self.layers[0]
        if isinstance(first, ChebConv):
            batch.seed_input_basis(first.order)
        ctx = batch.context()
        x = batch.features
        for layer in self.layers:
            x = layer.forward(x, ctx, training)
        return x

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    # -- inference --------------------------------------------------------

    def predict_proba(self, sample: GraphSample) -> np.ndarray:
        """Per-vertex class probabilities (inference mode)."""
        return self.predict_proba_batch([sample])[0]

    def predict(self, sample: GraphSample) -> np.ndarray:
        """Per-vertex argmax class ids."""
        return self.predict_batch([sample])[0]

    def predict_proba_batch(
        self, samples: list[GraphSample]
    ) -> list[np.ndarray]:
        """Per-vertex class probabilities for each sample, computed in
        one packed forward pass."""
        if not samples:
            return []
        batch = pack_samples(samples)
        logits = self.forward_packed(batch, training=False)
        return batch.split(softmax(logits))

    def predict_batch(self, samples: list[GraphSample]) -> list[np.ndarray]:
        """Per-vertex argmax class ids for each sample (one packed pass)."""
        if not samples:
            return []
        batch = pack_samples(samples)
        logits = self.forward_packed(batch, training=False)
        return [seg.argmax(axis=1) for seg in batch.split(logits)]

    # -- (de)serialization --------------------------------------------------

    def rng_states(self) -> list[dict]:
        """Dropout RNG states in layer order (plain JSON-able dicts).

        Checkpoint/resume must restore these alongside the weights:
        dropout draws advance the stream every training forward pass,
        so a resumed run only replays the uninterrupted run's masks
        bitwise when the generators pick up exactly where they stopped.
        """
        return [
            dict(layer.rng.bit_generator.state)
            for layer in self.layers
            if isinstance(layer, Dropout)
        ]

    def set_rng_states(self, states: list[dict]) -> None:
        """Restore the streams captured by :meth:`rng_states`."""
        dropouts = [layer for layer in self.layers if isinstance(layer, Dropout)]
        if len(states) != len(dropouts):
            raise ModelConfigError(
                f"got {len(states)} dropout RNG states for "
                f"{len(dropouts)} dropout layers"
            )
        for layer, state in zip(dropouts, states):
            layer.rng.bit_generator.state = state

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name→array mapping of every parameter and BN statistic."""
        state: dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for key, value in layer.params.items():
                state[f"layer{idx}.{key}"] = value.copy()
            if isinstance(layer, BatchNorm):
                state[f"layer{idx}.running_mean"] = layer.running_mean.copy()
                state[f"layer{idx}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for idx, layer in enumerate(self.layers):
            for key in layer.params:
                name = f"layer{idx}.{key}"
                if name not in state:
                    raise ModelConfigError(f"missing parameter {name} in state dict")
                if state[name].shape != layer.params[key].shape:
                    raise ModelConfigError(
                        f"shape mismatch for {name}: "
                        f"{state[name].shape} vs {layer.params[key].shape}"
                    )
                layer.params[key] = state[name].copy()
            if isinstance(layer, BatchNorm):
                layer.running_mean = state[f"layer{idx}.running_mean"].copy()
                layer.running_var = state[f"layer{idx}.running_var"].copy()

    def save(self, path: str) -> None:
        """Persist parameters and the config in one npz file."""
        import dataclasses
        import json

        config = dataclasses.asdict(self.config)
        config["channels"] = list(config["channels"])
        np.savez(
            path,
            __config__=np.array(json.dumps(config)),
            **self.state_dict(),
        )

    @classmethod
    def load(cls, path: str, config: GCNConfig | None = None) -> "GCNModel":
        """Load a saved model; the config is read from the file unless
        explicitly overridden (legacy files without one need it)."""
        import json

        with open(path, "rb") as fh, np.load(fh) as data:
            state = {k: data[k] for k in data.files if k != "__config__"}
            if config is None:
                if "__config__" not in data.files:
                    raise ModelConfigError(
                        f"{path} carries no config; pass one explicitly"
                    )
                raw = json.loads(str(data["__config__"]))
                raw["channels"] = tuple(raw["channels"])
                config = GCNConfig(**raw)
        model = cls(config)
        model.load_state_dict(state)
        return model

    def clone(self) -> "GCNModel":
        """Deep copy (used by early stopping to keep the best epoch)."""
        twin = GCNModel(self.config)
        buffer = io.BytesIO()
        np.savez(buffer, **self.state_dict())
        buffer.seek(0)
        with np.load(buffer) as data:
            twin.load_state_dict({k: data[k] for k in data.files})
        return twin
