"""Tests for the Poseidon context: information book, BestScheme, HybComm plan."""

import pytest

from repro.config import CAFFE_WFBP, TF, ClusterConfig, TrainingConfig
from repro.core.poseidon import PoseidonContext
from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import get_model_spec


@pytest.fixture
def vgg_context(vgg19_spec):
    return PoseidonContext(vgg19_spec, ClusterConfig(num_workers=8),
                           TrainingConfig(batch_size=32))


class TestInformationBook:
    def test_query_cluster_facts(self, vgg_context):
        assert vgg_context.query("n_worker") == 8
        assert vgg_context.query("n_server") == 8
        assert vgg_context.query("batchsize") == 32

    def test_query_multiple_properties(self, vgg_context):
        workers, servers, batch = vgg_context.query(
            "n_worker", "n_server", "batchsize")
        assert (workers, servers, batch) == (8, 8, 32)

    def test_query_layer_properties(self, vgg_context):
        assert vgg_context.query("layer:fc6:type") == "fc"
        assert vgg_context.query("layer:fc6:width") == 25088
        assert vgg_context.query("layer:fc6:height") == 4096

    def test_query_unknown_property_raises(self, vgg_context):
        with pytest.raises(KeyError):
            vgg_context.query("nonexistent")

    def test_query_requires_a_property(self, vgg_context):
        with pytest.raises(ConfigurationError):
            vgg_context.query()


class TestBestSchemeAndPartition:
    def test_best_scheme_by_name_and_spec(self, vgg_context, vgg19_spec):
        assert vgg_context.best_scheme("fc6") == "sfb"
        assert vgg_context.best_scheme(vgg19_spec.layer("conv1_1")) == "ps"

    def test_assignments_cover_all_parameter_layers(self, vgg_context,
                                                    vgg19_spec):
        assignments = vgg_context.plan.assignments
        assert set(assignments) == {l.name for l in vgg19_spec.parameter_layers()}
        assert all(assignments[name] is vgg_context.best_scheme(name)
                   for name in assignments)

    def test_sfb_layers_are_fc_only(self, vgg_context):
        assert set(vgg_context.plan.sfb_layer_names) == {"fc6", "fc7", "fc8"}

    def test_fine_grained_partition_by_default(self, vgg_context):
        assert vgg_context.kv_partition.imbalance() < 1.05

    def test_coarse_partition_option(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=8),
                                  TrainingConfig(batch_size=32), system=TF)
        assert context.kv_partition.imbalance() > 1.5


class TestHybridPlan:
    def test_plan_covers_all_parameter_layers(self, vgg_context, vgg19_spec):
        decisions = vgg_context.plan.decisions
        assert [d.layer for d in decisions] == \
            [layer.name for layer in vgg19_spec.parameter_layers()]

    def test_hybrid_saves_bytes_on_vgg(self, vgg_context):
        plan = vgg_context.plan
        assert plan.hybrid_bytes_per_node < plan.ps_bytes_per_node
        assert plan.savings_fraction > 0.5

    def test_force_ps_removes_savings(self, vgg_context):
        plan = vgg_context.build_plan(force_scheme="ps")
        assert plan.savings_fraction == pytest.approx(0.0)
        assert vgg_context.bytes_per_iteration("ps") == \
            plan.ps_bytes_per_node

    def test_force_sfb_falls_back_to_ps_for_conv(self, vgg_context):
        decisions = vgg_context.build_plan(
            force_scheme="sfb").decisions
        conv_decisions = [d for d in decisions if d.layer.startswith("conv")]
        fc_decisions = [d for d in decisions if d.layer.startswith("fc")]
        assert all(d.scheme == "ps" for d in conv_decisions)
        assert all(d.scheme == "sfb" for d in fc_decisions)

    def test_force_adam_follows_the_one_rule(self, vgg_context):
        # Any factor-based scheme, not only SFB, leaves non-decomposable
        # layers on the PS -- what decide_schemes / assign_schemes do under
        # mode "adam" (the old planner put conv layers on ADAM too).  Byte
        # totals are unaffected: only SFB has its own byte column.
        plan = vgg_context.build_plan(force_scheme="adam")
        for decision in plan.decisions:
            expected = ("adam" if decision.layer.startswith("fc")
                        else "ps")
            assert decision.scheme is expected
        assert plan.hybrid_bytes_per_node == plan.ps_bytes_per_node

    def test_describe_contains_totals(self, vgg_context):
        assert "per-node traffic/iteration" in vgg_context.describe()

    def test_decision_savings_non_negative(self, vgg_context):
        assert all(d.savings_bytes >= 0 for d in vgg_context.plan.decisions)


class TestPoseidonContext:
    def test_plan_assignments_match_algorithm1(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=16),
                                  TrainingConfig(batch_size=32))
        plan = context.plan
        assert plan.scheme_for("fc6") == "sfb"
        assert plan.scheme_for("conv1_1") == "ps"

    def test_googlenet_reduces_to_ps(self, googlenet_spec):
        context = PoseidonContext(googlenet_spec, ClusterConfig(num_workers=16),
                                  TrainingConfig(batch_size=128))
        assert context.plan.sfb_layer_names == []

    def test_hybrid_disabled_forces_ps(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=16),
                                  TrainingConfig(batch_size=32),
                                  system=CAFFE_WFBP)
        assert context.plan.sfb_layer_names == []

    def test_bytes_per_iteration_scheme_comparison(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=16),
                                  TrainingConfig(batch_size=32))
        hybrid = context.bytes_per_iteration()
        ps_only = context.bytes_per_iteration("ps")
        assert hybrid < ps_only

    def test_savings_fraction_grows_with_vocabulary(self):
        """VGG19-22K (91% FC) saves a larger traffic fraction than VGG19."""
        cluster = ClusterConfig(num_workers=16)
        vgg = PoseidonContext(get_model_spec("vgg19"), cluster,
                              TrainingConfig(batch_size=32))
        vgg22k = PoseidonContext(get_model_spec("vgg19-22k"), cluster,
                                 TrainingConfig(batch_size=32))
        assert vgg22k.plan.savings_fraction > vgg.plan.savings_fraction

    def test_default_training_config_uses_model_batch(self, googlenet_spec):
        context = PoseidonContext(googlenet_spec, ClusterConfig(num_workers=8))
        assert context.training.batch_size == 128

    def test_describe_mentions_model(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=8))
        assert "VGG19" in context.describe()

    def test_plan_is_cached(self, vgg19_spec):
        context = PoseidonContext(vgg19_spec, ClusterConfig(num_workers=8))
        assert context.plan is context.plan
