"""Block-diagonal minibatch packing: structural invariants and
numerical parity with the per-sample reference path.

Tolerance contract (see ``repro/gcn/batch.py``): graph-structured ops
are bitwise identical between the packed and per-sample paths, but the
dense GEMMs may differ by ~1 ulp (BLAS kernels are not row-invariant
for narrow outputs), so logits are pinned to tight fp64 tolerance while
argmax predictions are pinned exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.exceptions import ModelConfigError
from repro.gcn.batch import block_diag_csr, pack_samples
from repro.gcn.chebyshev import chebyshev_basis
from repro.gcn.layers import BatchNorm
from repro.gcn.loss import batched_cross_entropy, softmax
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.samples import class_weights
from repro.gcn.train import TrainConfig, train
from repro.testing.reference import cross_entropy, train_per_sample

#: fp64 tolerance for packed-vs-per-sample logits (GEMM row ordering).
RTOL = 1e-10
ATOL = 1e-12


def _config(**overrides) -> GCNConfig:
    base = dict(
        n_features=18,
        n_classes=len(task_classes("ota")),
        filter_size=4,
        channels=(8, 8),
        fc_size=16,
        dropout=0.0,
        batch_norm=True,
        seed=0,
    )
    base.update(overrides)
    return GCNConfig(**base)


@pytest.fixture(scope="module")
def pool_samples():
    """Ten OTA-bias samples of varying vertex counts (built serially so
    the module stays deterministic under any worker count)."""
    dataset = generate_ota_bias_dataset(10, seed="batch-pool", workers=1)
    return build_samples(dataset, task_classes("ota"), levels=2, workers=1)


class TestPacking:
    def test_offsets_and_concatenation(self, pool_samples):
        samples = pool_samples[:4]
        packed = pack_samples(samples)
        sizes = [s.n_vertices for s in samples]
        assert packed.n_graphs == 4
        assert packed.n_vertices == sum(sizes)
        assert packed.offsets[0].tolist() == np.concatenate(
            [[0], np.cumsum(sizes)]
        ).tolist()
        bounds = packed.offsets[0]
        for i, sample in enumerate(samples):
            seg = slice(bounds[i], bounds[i + 1])
            assert np.array_equal(packed.features[seg], sample.features)
            assert np.array_equal(packed.labels[seg], sample.labels)
            assert np.array_equal(packed.mask[seg], sample.mask)

    def test_laplacians_are_block_diagonal(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for level, lap in enumerate(packed.pyramid.laplacians):
            bounds = packed.offsets[level]
            dense = lap.toarray()
            for i, sample in enumerate(samples):
                seg = slice(bounds[i], bounds[i + 1])
                block = sample.pyramid.laplacians[level].toarray()
                assert np.array_equal(dense[seg, seg], block)
            # Off-diagonal blocks stay empty: total nnz is the sum.
            assert lap.nnz == sum(
                s.pyramid.laplacians[level].nnz for s in samples
            )

    def test_assignments_stay_in_block(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for level, assignment in enumerate(packed.pyramid.assignments):
            fine = packed.offsets[level]
            coarse = packed.offsets[level + 1]
            for i in range(len(samples)):
                seg = assignment[fine[i] : fine[i + 1]]
                assert seg.min() >= coarse[i]
                assert seg.max() < coarse[i + 1]

    def test_split_roundtrip(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for sample, segment in zip(samples, packed.split(packed.features)):
            assert np.array_equal(segment, sample.features)

    def test_single_block_passthrough(self, pool_samples):
        lap = pool_samples[0].pyramid.laplacians[0]
        assert block_diag_csr([lap]) is lap

    def test_empty_batch_raises(self):
        with pytest.raises(ModelConfigError, match="empty sample batch"):
            pack_samples([])

    def test_missing_levels_fail_like_per_sample(self, pool_samples):
        shallow = build_samples(
            generate_ota_bias_dataset(2, seed="batch-shallow", workers=1),
            task_classes("ota"),
            levels=1,
            workers=1,
        )
        model = GCNModel(_config())  # needs 2 levels
        packed = pack_samples(shallow)
        with pytest.raises(ModelConfigError, match="coarsening levels"):
            model.forward_packed(packed, training=False)


class TestBatchOfOne:
    def test_single_pack_is_a_zero_copy_view(self, pool_samples):
        sample = pool_samples[0]
        packed = pack_samples([sample])
        assert packed.features is sample.features
        assert packed.labels is sample.labels
        assert packed.mask is sample.mask
        assert packed.pyramid.laplacians[0] is sample.pyramid.laplacians[0]
        assert packed.runtime_cache is sample.runtime_cache
        assert [bounds.tolist() for bounds in packed.offsets] == [
            [0, lap.shape[0]] for lap in sample.pyramid.laplacians
        ]

    def test_forward_after_packed_forward_hits_cached_basis(
        self, pool_samples, monkeypatch
    ):
        samples = pool_samples[:4]
        for sample in samples:
            sample.runtime_cache.clear()
        model = GCNModel(_config())
        model.forward_packed(pack_samples(samples), training=False)
        entry = samples[2].runtime_cache["cheb-input-flat"]
        inputs = []

        def spy(laplacian, x, order):
            inputs.append(x)
            return chebyshev_basis(laplacian, x, order)

        monkeypatch.setattr("repro.gcn.layers.chebyshev_basis", spy)
        model.forward(samples[2], training=False)
        # Only the second conv layer (input: level-1 activations) ran
        # a recurrence; the first-layer basis came from the cache.
        assert inputs and not any(x is samples[2].features for x in inputs)
        assert samples[2].runtime_cache["cheb-input-flat"] is entry


class TestForwardParity:
    def test_random_packings_match_per_sample(self, pool_samples):
        rng = np.random.default_rng(7)
        model = GCNModel(_config())
        for _ in range(5):
            size = int(rng.integers(2, 6))
            picks = rng.choice(len(pool_samples), size=size, replace=False)
            samples = [pool_samples[i] for i in picks]
            packed = pack_samples(samples)
            logits = model.forward_packed(packed, training=False)
            for sample, segment in zip(samples, packed.split(logits)):
                reference = model.forward(sample, training=False)
                np.testing.assert_allclose(
                    segment, reference, rtol=RTOL, atol=ATOL
                )
                assert np.array_equal(
                    segment.argmax(axis=1), reference.argmax(axis=1)
                )

    def test_predict_proba_batch_matches(self, pool_samples):
        samples = pool_samples[:5]
        model = GCNModel(_config())
        batched = model.predict_proba_batch(samples)
        for sample, probabilities in zip(samples, batched):
            np.testing.assert_allclose(
                probabilities,
                model.predict_proba(sample),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_predict_batch_matches(self, pool_samples):
        model = GCNModel(_config())
        batched = model.predict_batch(pool_samples)
        for sample, predictions in zip(pool_samples, batched):
            assert np.array_equal(predictions, model.predict(sample))

    def test_training_forward_matches_sequential(self, pool_samples):
        """Training mode: BatchNorm folds running stats per segment in
        pack order and Dropout draws per segment from one stream, so a
        packed forward reproduces the sequential per-sample forwards —
        including the updated running statistics, bitwise."""
        samples = pool_samples[:4]
        config = _config(dropout=0.3)
        reference = GCNModel(config)
        packed_model = GCNModel(config)

        per_sample = [
            reference.forward(sample, training=True) for sample in samples
        ]
        packed = pack_samples(samples)
        logits = packed_model.forward_packed(packed, training=True)

        for expected, segment in zip(per_sample, packed.split(logits)):
            np.testing.assert_allclose(segment, expected, rtol=RTOL, atol=ATOL)
        for layer_ref, layer_packed in zip(
            reference.layers, packed_model.layers
        ):
            if isinstance(layer_ref, BatchNorm):
                assert np.array_equal(
                    layer_ref.running_mean, layer_packed.running_mean
                )
                assert np.array_equal(
                    layer_ref.running_var, layer_packed.running_var
                )

    def test_input_basis_cache_reused_across_packings(self, pool_samples):
        samples = pool_samples[:3]
        model = GCNModel(_config())
        first = pack_samples(samples)
        model.forward_packed(first, training=False)
        assert all("cheb-input-flat" in s.runtime_cache for s in samples)
        # Repacking takes the warm vstack route; the flat is bitwise
        # identical to the cold packed recurrence.
        second = pack_samples(samples)
        model.forward_packed(second, training=False)
        assert np.array_equal(
            first.runtime_cache["cheb-input-flat"][3],
            second.runtime_cache["cheb-input-flat"][3],
        )


class TestBackwardParity:
    def _accumulate_reference(self, model, samples, weights):
        model.zero_grad()
        losses = []
        for sample in samples:
            logits = model.forward(sample, training=True)
            loss, grad = cross_entropy(
                logits, sample.labels, sample.mask, weights
            )
            model.backward(grad / len(samples))
            losses.append(loss)
        return losses

    def test_gradients_match_per_sample_accumulation(self, pool_samples):
        samples = pool_samples[:4]
        weights = class_weights(samples, len(task_classes("ota")))
        config = _config()
        reference = GCNModel(config)
        packed_model = GCNModel(config)

        ref_losses = self._accumulate_reference(reference, samples, weights)

        packed = pack_samples(samples)
        packed_model.zero_grad()
        logits = packed_model.forward_packed(packed, training=True)
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, packed.mask, packed.offsets[0], weights
        )
        packed_model.backward(grad / len(samples))

        np.testing.assert_allclose(losses, ref_losses, rtol=RTOL, atol=ATOL)
        assert counts.tolist() == [int(s.mask.sum()) for s in samples]
        for layer_ref, layer_packed in zip(
            reference.layers, packed_model.layers
        ):
            for key in layer_ref.grads:
                np.testing.assert_allclose(
                    layer_packed.grads[key],
                    layer_ref.grads[key],
                    rtol=1e-8,
                    atol=1e-12,
                )

    def test_batched_loss_grad_rows_match(self, pool_samples):
        """Per-row gradient entries are elementwise (softmax row, pick,
        scale) — identical math to per-sample when fed the same logits."""
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(packed.n_vertices, 2))
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, packed.mask, packed.offsets[0]
        )
        bounds = packed.offsets[0]
        for i, sample in enumerate(samples):
            seg = slice(bounds[i], bounds[i + 1])
            loss, ref_grad = cross_entropy(
                logits[seg], sample.labels, sample.mask
            )
            assert losses[i] == loss
            assert np.array_equal(grad[seg], ref_grad)

    def test_all_masked_batch_is_a_no_op(self, pool_samples):
        samples = pool_samples[:2]
        packed = pack_samples(samples)
        logits = softmax(np.zeros((packed.n_vertices, 2)))
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, np.zeros_like(packed.mask),
            packed.offsets[0],
        )
        assert not losses.any()
        assert not counts.any()
        assert not grad.any()


class TestTrainingParity:
    def test_batched_training_matches_reference_loop(self, pool_samples):
        """Same seed, batched vs per-sample minibatches: the loss and
        accuracy curves coincide and early stopping picks the same
        epoch (weights differ only by GEMM summation order)."""
        train_set = pool_samples[:7]
        val_set = pool_samples[7:]
        base = dict(
            epochs=6, batch_size=3, lr=3e-3, patience=0, seed=11
        )
        config = _config(dropout=0.2)

        model_batched = GCNModel(config)
        batched_history = train(
            model_batched,
            train_set,
            val_set,
            TrainConfig(**base),
        )
        model_reference = GCNModel(config)
        reference_history = train_per_sample(
            model_reference,
            train_set,
            val_set,
            TrainConfig(**base),
        )

        np.testing.assert_allclose(
            batched_history.train_loss,
            reference_history.train_loss,
            rtol=1e-7,
        )
        np.testing.assert_allclose(
            batched_history.train_accuracy,
            reference_history.train_accuracy,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            batched_history.val_accuracy,
            reference_history.val_accuracy,
            atol=1e-9,
        )
        assert batched_history.best_epoch == reference_history.best_epoch

    def test_minibatches_of_one_match_reference_loop_bitwise(
        self, pool_samples
    ):
        """Every minibatch a batch of one: the packed loop does the
        per-sample loop's exact arithmetic, so curves and weights are
        bitwise equal."""
        train_set = pool_samples[:4]
        config = TrainConfig(epochs=2, batch_size=1, patience=0, seed=3)
        packed_model = GCNModel(_config(dropout=0.2))
        reference_model = GCNModel(_config(dropout=0.2))
        packed = train(packed_model, train_set, config=config)
        reference = train_per_sample(reference_model, train_set, config=config)
        assert packed.train_loss == reference.train_loss
        assert packed.train_accuracy == reference.train_accuracy
        reference_state = reference_model.state_dict()
        for name, value in packed_model.state_dict().items():
            assert np.array_equal(value, reference_state[name]), name
