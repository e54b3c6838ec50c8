"""End-to-end integration tests tying the planning, simulation and functional
layers together the way the examples and the experiment harness use them."""

import numpy as np
import pytest

from repro.config import CAFFE_WFBP, POSEIDON_CAFFE, ClusterConfig, TrainingConfig
from repro.core.cost_model import CostModel
from repro.data import make_cifar10_like, shard_dataset
from repro.nn.model_zoo import build_cifar_quick_small_network, get_model_spec
from repro.parallel import DistributedTrainer
from repro.simulation import simulate_system
from train_reference import replica_states_close


def _planned(spec, cluster, batch_size):
    """Table 1's plan: each parameter layer's Algorithm-1 scheme and the
    per-node bytes the plan and pure PS move."""
    cost_model = CostModel(cluster, batch_size)
    layers = spec.parameter_layers()
    schemes = {layer.name: cost_model.best_scheme(layer) for layer in layers}
    hybrid_bytes = sum(cost_model.scheme_cost_bytes(layer, schemes[layer.name])
                       for layer in layers)
    ps_bytes = sum(cost_model.scheme_cost_bytes(layer, "ps")
                   for layer in layers)
    return schemes, 1.0 - hybrid_bytes / ps_bytes


def _planned_saving(key, nodes):
    spec = get_model_spec(key)
    return _planned(spec, ClusterConfig(num_workers=nodes),
                    spec.default_batch_size)[1]


def _simulated_saving(key, nodes):
    """1 - (per-node traffic under Poseidon / under dense PS), from the DES."""
    spec = get_model_spec(key)
    cluster = ClusterConfig(num_workers=nodes)
    dense = simulate_system(spec, CAFFE_WFBP, cluster)
    hybrid = simulate_system(spec, POSEIDON_CAFFE, cluster)
    return 1.0 - hybrid.mean_traffic_gbits / dense.mean_traffic_gbits


class TestPlanningToSimulationConsistency:
    """The planner's byte accounting and the simulator's traffic must agree."""

    @pytest.mark.parametrize("key,nodes", [
        ("vgg19", 2), ("vgg19", 8), ("vgg19", 16), ("vgg19-22k", 16),
        ("alexnet", 8), ("resnet-50", 4)])
    def test_plan_savings_show_up_as_simulated_traffic_savings(self, key,
                                                               nodes):
        # The DES's scatter/gather adds only the small non-parameter
        # messages Table 1 does not price.
        plan_saving = _planned_saving(key, nodes)
        assert abs(plan_saving - _simulated_saving(key, nodes)) < 1e-3

    def test_hybrid_saves_over_half_of_vgg_traffic(self):
        assert _planned_saving("vgg19", 8) > 0.5
        assert _simulated_saving("vgg19", 8) > 0.5

    def test_savings_fraction_grows_with_vocabulary(self):
        """VGG19-22K (91% FC) saves a larger traffic fraction than VGG19."""
        assert _planned_saving("vgg19-22k", 16) > _planned_saving("vgg19", 16)
        assert (_simulated_saving("vgg19-22k", 16)
                > _simulated_saving("vgg19", 16))

    def test_scheme_decisions_match_between_planner_and_simulator(self, vgg19_spec):
        cluster = ClusterConfig(num_workers=16)
        planned, _ = _planned(vgg19_spec, cluster, 32)
        simulated = simulate_system(vgg19_spec, POSEIDON_CAFFE, cluster)
        for schemes in (planned, simulated.scheme_by_unit):
            assert {name for name, scheme in schemes.items()
                    if scheme == "sfb"} == {"fc6", "fc7", "fc8"}

    def test_hybrid_disabled_forces_ps(self, vgg19_spec):
        """A system without hybrid communication picks no SFB."""
        ps_only = simulate_system(vgg19_spec, CAFFE_WFBP,
                                  ClusterConfig(num_workers=16))
        assert set(ps_only.scheme_by_unit.values()) == {"ps"}

    def test_batch_size_flips_both_layers_consistently(self, googlenet_spec):
        """GoogLeNet at batch 128: planner and simulator both choose pure PS."""
        cluster = ClusterConfig(num_workers=16)
        planned, _ = _planned(googlenet_spec, cluster, 128)
        simulated = simulate_system(googlenet_spec, POSEIDON_CAFFE, cluster)
        assert "sfb" not in planned.values()
        assert "sfb" not in simulated.scheme_by_unit.values()


class TestFunctionalPipeline:
    """Dataset -> shards -> distributed training -> evaluation, end to end."""

    def test_small_cnn_distributed_training_reaches_low_error(self):
        dataset = make_cifar10_like(num_train=600, num_test=150, image_size=12,
                                    noise_scale=1.0, seed=3)
        shards = shard_dataset(dataset.train_images, dataset.train_labels, 2, seed=3)
        trainer = DistributedTrainer(
            network_factory=lambda: build_cifar_quick_small_network(seed=3,
                                                                    image_size=12),
            num_workers=2,
            train_shards=shards,
            training=TrainingConfig(batch_size=16, learning_rate=0.05,
                                    iterations=80, seed=3),
            mode="hybrid",
            test_data=(dataset.test_images, dataset.test_labels),
            eval_every=40,
        )
        history = trainer.train(80)
        assert history.losses[-1] < history.losses[0] / 2
        assert history.final_test_error < 0.5
        assert replica_states_close(trainer)

    def test_functional_byte_accounting_orders_like_cost_model(self):
        """For a wide-FC model, hybrid mode moves fewer bytes than pure PS."""
        rng = np.random.default_rng(0)
        train_x = rng.standard_normal((96, 512)).astype(np.float32)
        train_y = rng.integers(0, 10, size=96).astype(np.int64)
        shards = shard_dataset(train_x, train_y, 2, seed=0)
        from repro.nn.model_zoo import build_mlp_network

        def factory():
            return build_mlp_network(input_dim=512, hidden_dims=(512,),
                                     num_classes=10, seed=4)

        histories = {}
        for mode in ("ps", "hybrid"):
            trainer = DistributedTrainer(
                network_factory=factory, num_workers=2, train_shards=shards,
                training=TrainingConfig(batch_size=4, learning_rate=0.05,
                                        iterations=3, seed=0),
                mode=mode)
            histories[mode] = trainer.train(3)
        assert histories["hybrid"].total_bytes < histories["ps"].total_bytes
        np.testing.assert_allclose(histories["hybrid"].losses,
                                   histories["ps"].losses, atol=1e-4)


class TestCrossModelSanity:
    @pytest.mark.parametrize("model_key", ["alexnet", "resnet-50", "vgg16",
                                           "inception-v3"])
    def test_every_zoo_model_simulates(self, model_key):
        spec = get_model_spec(model_key)
        result = simulate_system(spec, POSEIDON_CAFFE,
                                 ClusterConfig(num_workers=4))
        assert 1.0 <= result.speedup <= 4.0 + 1e-6
        assert result.iteration_seconds > 0
