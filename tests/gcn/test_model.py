"""Model assembly, end-to-end gradients, (de)serialization."""

import numpy as np
import pytest

from repro.exceptions import ModelConfigError
from repro.testing.reference import cross_entropy
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.samples import GraphSample
from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK

LABELS = {"m0": 1, "m1": 1, "m2": 0, "m3": 0, "m4": 0, "m5": 0}


@pytest.fixture()
def sample() -> GraphSample:
    graph = CircuitGraph.from_circuit(flatten(parse_netlist(DIFF_OTA_DECK)))
    return GraphSample.from_graph(graph, LABELS, levels=2)


def _small_config(**overrides) -> GCNConfig:
    base = dict(
        n_classes=2,
        filter_size=4,
        channels=(4, 6),
        fc_size=8,
        dropout=0.0,
        batch_norm=False,
        pooling=True,
        seed=0,
    )
    base.update(overrides)
    return GCNConfig(**base)


class TestConfig:
    def test_defaults_match_paper(self):
        config = GCNConfig()
        assert config.n_layers == 2
        assert config.filter_size == 32
        assert config.fc_size == 512
        assert config.activation == "relu"

    def test_rejects_zero_layers(self):
        with pytest.raises(ModelConfigError):
            GCNConfig(n_layers=0)

    def test_rejects_short_channels(self):
        with pytest.raises(ModelConfigError):
            GCNConfig(n_layers=3, channels=(8, 8))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ModelConfigError):
            GCNConfig(activation="gelu")

    def test_with_updates(self):
        config = GCNConfig().with_(filter_size=16)
        assert config.filter_size == 16
        assert config.fc_size == 512

    def test_levels_needed(self):
        assert GCNConfig(n_layers=2, pooling=True).levels_needed == 2
        assert GCNConfig(n_layers=2, pooling=False).levels_needed == 0


class TestForward:
    def test_logits_shape(self, sample):
        model = GCNModel(_small_config())
        logits = model.forward(sample, training=False)
        assert logits.shape == (sample.n_vertices, 2)

    def test_deterministic_at_inference(self, sample):
        model = GCNModel(_small_config(dropout=0.5))
        a = model.forward(sample, training=False)
        b = model.forward(sample, training=False)
        np.testing.assert_array_equal(a, b)

    def test_pooling_model_needs_levels(self, sample):
        model = GCNModel(_small_config(n_layers=2, channels=(4, 4, 4)))
        shallow = GraphSample(
            name=sample.name,
            features=sample.features,
            labels=sample.labels,
            mask=sample.mask,
            pyramid=sample.pyramid,
        )
        shallow.pyramid.assignments = shallow.pyramid.assignments[:1]
        with pytest.raises(ModelConfigError):
            model.forward(shallow, training=False)

    def test_no_pooling_variant(self, sample):
        model = GCNModel(_small_config(pooling=False))
        logits = model.forward(sample, training=False)
        assert logits.shape == (sample.n_vertices, 2)

    def test_tanh_variant_runs(self, sample):
        model = GCNModel(_small_config(activation="tanh"))
        assert np.isfinite(model.forward(sample, training=False)).all()

    def test_three_layer_variant(self, sample):
        sample3 = GraphSample.from_graph(sample.graph, LABELS, levels=3)
        model = GCNModel(_small_config(n_layers=3, channels=(4, 4, 4)))
        assert model.forward(sample3, training=False).shape[0] == sample.n_vertices


class TestEndToEndGradients:
    def test_full_model_gradient_check(self, sample):
        model = GCNModel(_small_config())
        logits = model.forward(sample, training=True)
        _loss, grad = cross_entropy(logits, sample.labels, sample.mask)
        model.zero_grad()
        model.backward(grad)

        def loss_value():
            lg = model.forward(sample, training=True)
            value, _ = cross_entropy(lg, sample.labels, sample.mask)
            return value

        eps = 1e-6
        for layer in model.layers:
            for key, param in layer.params.items():
                g = layer.grads[key]
                idx = np.unravel_index(int(np.abs(g).argmax()), g.shape)
                orig = param[idx]
                param[idx] = orig + eps
                up = loss_value()
                param[idx] = orig - eps
                down = loss_value()
                param[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert g[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_batchnorm_model_gradient_check(self, sample):
        model = GCNModel(_small_config(batch_norm=True))
        logits = model.forward(sample, training=True)
        _loss, grad = cross_entropy(logits, sample.labels, sample.mask)
        model.zero_grad()
        model.backward(grad)
        layer = model.layers[0]
        g = layer.grads["weight"]
        idx = np.unravel_index(int(np.abs(g).argmax()), g.shape)
        eps = 1e-6
        orig = layer.params["weight"][idx]

        def loss_value():
            lg = model.forward(sample, training=True)
            value, _ = cross_entropy(lg, sample.labels, sample.mask)
            return value

        layer.params["weight"][idx] = orig + eps
        up = loss_value()
        layer.params["weight"][idx] = orig - eps
        down = loss_value()
        layer.params["weight"][idx] = orig
        # BatchNorm running stats update on every forward, so tolerance
        # is looser; momentum keeps the drift tiny.
        assert g[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-2)


class TestSerialization:
    def test_state_roundtrip(self, sample):
        model = GCNModel(_small_config(batch_norm=True))
        state = model.state_dict()
        twin = GCNModel(_small_config(batch_norm=True, seed=99))
        twin.load_state_dict(state)
        np.testing.assert_array_equal(
            model.forward(sample, False), twin.forward(sample, False)
        )

    def test_save_load_file(self, sample, tmp_path):
        model = GCNModel(_small_config())
        path = str(tmp_path / "model.npz")
        model.save(path)
        loaded = GCNModel.load(path, _small_config(seed=5))
        np.testing.assert_array_equal(
            model.forward(sample, False), loaded.forward(sample, False)
        )

    def test_clone_is_independent(self, sample):
        model = GCNModel(_small_config())
        twin = model.clone()
        model.layers[0].params["weight"][:] = 0.0
        assert np.abs(twin.layers[0].params["weight"]).sum() > 0

    def test_load_rejects_shape_mismatch(self):
        model = GCNModel(_small_config())
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ModelConfigError):
            GCNModel(_small_config()).load_state_dict(state)

    def test_load_rejects_missing_key(self):
        model = GCNModel(_small_config())
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ModelConfigError):
            GCNModel(_small_config()).load_state_dict(state)

    def test_parameter_count_positive(self):
        model = GCNModel(_small_config())
        assert model.n_parameters() > 0
        assert len(model.weight_arrays()) >= 3
