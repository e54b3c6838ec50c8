"""Tests for the loss function and the SGD optimiser."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.loss import SoftmaxCrossEntropyLoss, softmax
from repro.nn.model_zoo import build_mlp_network
from repro.nn.optim import SGD
from train_reference import step_network


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((5, 7))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    def test_invariant_to_constant_shift(self):
        logits = np.random.default_rng(0).standard_normal((3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), rtol=1e-6)

    @given(hnp.arrays(np.float64, (4, 6), elements=st.floats(-50, 50)))
    def test_probabilities_bounded(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        loss, _ = loss_fn.forward(logits, labels)
        assert loss < 1e-3

    def test_uniform_prediction_loss_is_log_classes(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        loss, _ = loss_fn.forward(logits, labels)
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient_matches_numeric(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 5))
        labels = rng.integers(0, 5, size=3)
        _, grad = loss_fn.forward(logits, labels)
        eps = 1e-5
        for i in (0, 1):
            for j in (0, 2, 4):
                perturbed = logits.copy()
                perturbed[i, j] += eps
                loss_plus, _ = loss_fn.forward(perturbed, labels)
                perturbed[i, j] -= 2 * eps
                loss_minus, _ = loss_fn.forward(perturbed, labels)
                numeric = (loss_plus - loss_minus) / (2 * eps)
                assert numeric == pytest.approx(grad[i, j], abs=1e-4)

    def test_gradient_rows_sum_to_zero(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = loss_fn.forward(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-7)

    def test_label_out_of_range_rejected(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        with pytest.raises(ShapeError):
            loss_fn.forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_shape_mismatch_rejected(self):
        loss_fn = SoftmaxCrossEntropyLoss()
        with pytest.raises(ShapeError):
            loss_fn.forward(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_accuracy_and_error_complementary(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1, 0])
        acc = SoftmaxCrossEntropyLoss.accuracy(logits, labels)
        err = SoftmaxCrossEntropyLoss.error_rate(logits, labels)
        assert acc == pytest.approx(0.75)
        assert acc + err == pytest.approx(1.0)


class TestSGD:
    def test_plain_sgd_step(self):
        param = np.array([1.0, 2.0])
        sgd = SGD(learning_rate=0.1)
        sgd.apply("p", param, np.array([1.0, -1.0]))
        np.testing.assert_allclose(param, [0.9, 2.1])

    def test_momentum_accumulates(self):
        param = np.zeros(1)
        sgd = SGD(learning_rate=0.1, momentum=0.9)
        grad = np.array([1.0])
        sgd.apply("p", param, grad)
        first = param.copy()
        sgd.apply("p", param, grad)
        second_step = param - first
        assert abs(second_step[0]) > abs(first[0])

    def test_weight_decay_pulls_towards_zero(self):
        param = np.array([1.0])
        sgd = SGD(learning_rate=0.1, weight_decay=0.5)
        sgd.apply("p", param, np.array([0.0]))
        assert param[0] < 1.0

    def test_shape_mismatch_rejected(self):
        sgd = SGD(learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            sgd.apply("p", np.zeros(3), np.zeros(4))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.1, weight_decay=-1.0)
        # A NaN fails every ``<= 0`` test and would step silently to NaN.
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="learning_rate"):
                SGD(learning_rate=rate)
            with pytest.raises(ConfigurationError, match="weight_decay"):
                SGD(learning_rate=0.1, weight_decay=rate)

    def test_step_network_reduces_loss(self):
        network = build_mlp_network(input_dim=10, hidden_dims=(16,), num_classes=3,
                                    seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 10)).astype(np.float32)
        y = rng.integers(0, 3, size=64)
        sgd = SGD(learning_rate=0.1)
        first_loss = network.train_step(x, y)
        for _ in range(30):
            network.train_step(x, y)
            step_network(sgd, network)
        final_loss = network.train_step(x, y)
        assert final_loss < first_loss
