"""Tests for the sequential network container."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU
from repro.nn.model_zoo import build_mlp_network
from repro.nn.network import Network
from gradcheck import check_network_input_gradient
from train_reference import step_network


@pytest.fixture
def network():
    return build_mlp_network(input_dim=12, hidden_dims=(16,), num_classes=4, seed=5)


@pytest.fixture
def batch(rng):
    x = rng.standard_normal((8, 12)).astype(np.float32)
    y = rng.integers(0, 4, size=8)
    return x, y


class TestConstruction:
    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network([])

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError):
            Network([ReLU("same"), ReLU("same")])

    def test_param_count_sums_layers(self, network):
        expected = sum(l.param_count for l in network.layers)
        assert network.param_count == expected

    def test_layer_by_name_missing(self, network):
        with pytest.raises(KeyError):
            network.layer_by_name("bogus")


class TestExecution:
    def test_train_step_returns_finite_loss(self, network, batch):
        loss = network.train_step(*batch)
        assert np.isfinite(loss)

    def test_backward_hook_called_top_down(self, network, batch):
        order = []
        x, y = batch
        network.train_step(x, y, hook=lambda idx, layer: order.append(idx))
        assert order == sorted(order, reverse=True)
        assert len(order) == len(network.layers)

    def test_hook_sees_fresh_gradients(self, network, batch):
        """When the hook fires for a layer, that layer's gradients are populated."""
        seen = {}

        def hook(index, layer):
            if layer.has_parameters:
                seen[layer.name] = float(np.abs(layer.grads["weight"]).sum())

        network.train_step(*batch, hook=hook)
        assert all(value > 0 for value in seen.values())

    def test_input_gradient_matches_numeric(self, network, rng):
        x = rng.standard_normal((4, 12)).astype(np.float64)
        y = rng.integers(0, 4, size=4)
        check_network_input_gradient(network, x, y)

    def test_evaluate_returns_loss_and_error(self, network, rng):
        x = rng.standard_normal((32, 12)).astype(np.float32)
        y = rng.integers(0, 4, size=32)
        loss, error = network.evaluate(x, y, batch_size=8)
        assert loss > 0
        assert 0.0 <= error <= 1.0


class TestState:
    def test_state_roundtrip(self, network, batch):
        original = network.get_state()
        network.train_step(*batch)
        from repro.nn.optim import SGD
        step_network(SGD(learning_rate=0.1), network)
        changed = network.get_state()
        assert any(
            not np.allclose(original[l][k], changed[l][k])
            for l in original for k in original[l]
        )
        network.set_state(original)
        restored = network.get_state()
        for layer_name in original:
            for key in original[layer_name]:
                np.testing.assert_array_equal(
                    restored[layer_name][key], original[layer_name][key])

    def test_get_gradients_keys_match_parameter_layers(self, network, batch):
        network.train_step(*batch)
        grads = network.get_gradients()
        expected = {layer.name for _, layer in network.parameter_layers()}
        assert set(grads) == expected

    def test_zero_grads(self, network, batch):
        network.train_step(*batch)
        network.zero_grads()
        for _, layer in network.parameter_layers():
            for grad in layer.grads.values():
                assert not grad.any()
