"""Tests for the model zoo: parameter counts and registry behaviour."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import (
    available_models,
    build_cifar_quick_network,
    build_cifar_quick_small_network,
    build_mlp_network,
    get_model_spec,
    register_model,
)
from repro.nn.model_zoo.googlenet import INCEPTION_MODULES
from repro.nn.spec import LayerKind


class TestRegistry:
    def test_all_table3_models_registered(self):
        names = available_models()
        for expected in ("cifar10-quick", "googlenet", "inception-v3", "vgg19",
                         "vgg19-22k", "resnet-152"):
            assert expected in names

    def test_unknown_model_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_model_spec("not-a-model")

    def test_lookups_build_equal_specs(self):
        """Tables keyed on a spec key on its value: each lookup builds a
        new spec, and two of one name must hash and compare equal."""
        first, second = get_model_spec("vgg19"), get_model_spec("vgg19")
        assert first == second and hash(first) == hash(second)

    def test_lookup_case_insensitive(self):
        assert get_model_spec("VGG19").name == "VGG19"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_model("vgg19", lambda: get_model_spec("vgg19"))


class TestParameterCounts:
    """Parameter counts should track the paper's Table 3."""

    @pytest.mark.parametrize("model,expected_millions,tolerance", [
        ("cifar10-quick", 0.1456, 0.02),
        ("alexnet", 61.5, 0.05),
        ("vgg19", 143.0, 0.02),
        ("vgg19-22k", 229.0, 0.02),
        ("resnet-152", 60.2, 0.02),
        ("googlenet", 5.0, 0.45),       # main tower only; paper counts 5M
        ("inception-v3", 27.0, 0.15),
    ])
    def test_total_params_close_to_paper(self, model, expected_millions, tolerance):
        spec = get_model_spec(model)
        measured = spec.total_params / 1e6
        assert measured == pytest.approx(expected_millions, rel=tolerance)

    def test_vgg19_fc_dominated(self):
        spec = get_model_spec("vgg19")
        assert spec.fc_param_fraction > 0.8

    def test_vgg19_22k_more_fc_dominated_than_vgg19(self):
        assert (get_model_spec("vgg19-22k").fc_param_fraction
                > get_model_spec("vgg19").fc_param_fraction)

    def test_googlenet_single_thin_fc_layer(self):
        spec = get_model_spec("googlenet")
        fc_layers = [layer for layer in spec.layers
                     if layer.kind is LayerKind.FC]
        assert len(fc_layers) == 1
        assert fc_layers[0].fc_dims == (1024, 1000)

    def test_resnet152_conv_dominated(self):
        spec = get_model_spec("resnet-152")
        assert spec.fc_param_fraction < 0.1

    def test_vgg19_has_three_fc_layers(self):
        assert sum(layer.kind is LayerKind.FC
                   for layer in get_model_spec("vgg19").layers) == 3

    def test_vgg19_22k_classifier_width(self):
        spec = get_model_spec("vgg19-22k")
        assert spec.layer("fc8").fc_dims == (4096, 21841)

    def test_inception_modules_channel_arithmetic(self):
        spec = get_model_spec("googlenet")
        for config in INCEPTION_MODULES:
            output = spec.layer(f"{config.name}/output")
            assert output.output_shape[0] == (
                config.n1x1 + config.n3x3 + config.n5x5 + config.pool_proj)

    def test_batch_sizes_match_table3(self):
        assert get_model_spec("googlenet").default_batch_size == 128
        assert get_model_spec("vgg19").default_batch_size == 32
        assert get_model_spec("cifar10-quick").default_batch_size == 100


class TestRunnableNetworks:
    def test_cifar_quick_matches_spec_param_count(self):
        spec = get_model_spec("cifar10-quick")
        network = build_cifar_quick_network(seed=0)
        assert network.param_count == spec.total_params

    def test_cifar_quick_forward_shape(self):
        network = build_cifar_quick_network(seed=0)
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        assert network.forward(x, training=False).shape == (2, 10)

    def test_small_cifar_quick_trains_one_step(self):
        network = build_cifar_quick_small_network(seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        y = np.array([0, 1, 2, 3])
        loss = network.train_step(x, y)
        assert np.isfinite(loss)

    def test_identical_seeds_give_identical_replicas(self):
        a = build_mlp_network(seed=3)
        b = build_mlp_network(seed=3)
        for layer_a, layer_b in zip(a.layers, b.layers):
            for key in layer_a.params:
                np.testing.assert_array_equal(layer_a.params[key], layer_b.params[key])

    def test_different_seeds_differ(self):
        a = build_mlp_network(seed=3)
        b = build_mlp_network(seed=4)
        assert not np.allclose(a.layers[0].params["weight"],
                               b.layers[0].params["weight"])
