"""Softmax cross-entropy: values, gradients, masks, class weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcn.loss import l2_penalty, softmax
from repro.testing.reference import cross_entropy

pytestmark = pytest.mark.property


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_no_overflow_on_large_logits(self):
        probs = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        loss, _grad = cross_entropy(logits, labels)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_c(self):
        logits = np.zeros((4, 3))
        labels = np.zeros(4, dtype=int)
        loss, _grad = cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(3))

    def test_gradient_is_probs_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        labels = np.array([1])
        _loss, grad = cross_entropy(logits, labels)
        probs = softmax(logits)[0]
        expected = probs.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grad[0], expected)

    def test_mask_excludes_rows(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        labels = np.array([1, 1])  # first row is wrong but masked out
        mask = np.array([False, True])
        loss, grad = cross_entropy(logits, labels, mask)
        assert loss == pytest.approx(0.0, abs=1e-3)
        np.testing.assert_array_equal(grad[0], 0.0)

    def test_empty_mask(self):
        logits = np.ones((3, 2))
        labels = np.zeros(3, dtype=int)
        loss, grad = cross_entropy(logits, labels, np.zeros(3, dtype=bool))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_class_weights_scale_loss(self):
        logits = np.zeros((2, 2))
        labels = np.array([0, 1])
        weights = np.array([2.0, 1.0])
        loss_weighted, _ = cross_entropy(logits, labels, class_weights=weights)
        loss_plain, _ = cross_entropy(logits, labels)
        assert loss_weighted == pytest.approx(1.5 * loss_plain)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_gradient_numerically(self, n, c, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        mask = rng.random(n) < 0.8
        _loss, grad = cross_entropy(logits, labels, mask)
        eps = 1e-6
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, c))
        up, down = logits.copy(), logits.copy()
        up[i, j] += eps
        down[i, j] -= eps
        lu, _ = cross_entropy(up, labels, mask)
        ld, _ = cross_entropy(down, labels, mask)
        assert grad[i, j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-6)


class TestL2Penalty:
    def test_zero_strength(self):
        assert l2_penalty([np.ones((3, 3))], 0.0) == 0.0

    def test_value(self):
        assert l2_penalty([np.full((2, 2), 2.0)], 0.1) == pytest.approx(
            0.5 * 0.1 * 16.0
        )
