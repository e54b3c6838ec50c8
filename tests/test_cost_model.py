"""Tests for the Table 1 cost model and Algorithm 1 (BestScheme)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.backend import get_backend
from repro.config import ClusterConfig
from repro.core.cost_model import (
    CostModel,
    adam_combined_cost,
    adam_server_cost,
    adam_worker_cost,
    ps_combined_cost,
    ps_server_cost,
    ps_worker_cost,
    sfb_worker_cost,
)
from repro.core.policy import SyncPolicy
from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import LayerKind, LayerSpec


class TestTable1Formulas:
    """The worked example of Section 3.2: M=N=4096, K=32, P1=P2=8."""

    M = N = 4096
    K = 32
    P = 8

    def test_ps_worker_is_2mn(self):
        assert ps_worker_cost(self.M, self.N) == 2 * self.M * self.N

    def test_ps_worker_example_34_million(self):
        assert ps_worker_cost(self.M, self.N) == pytest.approx(34e6, rel=0.02)

    def test_ps_server_example(self):
        assert ps_server_cost(self.M, self.N, self.P, self.P) == pytest.approx(
            34e6, rel=0.02)

    def test_ps_combined_example_58_7_million(self):
        assert ps_combined_cost(self.M, self.N, self.P, self.P) == pytest.approx(
            58.7e6, rel=0.01)

    def test_sfb_example_3_7_million(self):
        assert sfb_worker_cost(self.M, self.N, self.K, self.P) == pytest.approx(
            3.7e6, rel=0.02)

    def test_adam_worker_formula(self):
        expected = self.K * (self.M + self.N) + self.M * self.N
        assert adam_worker_cost(self.M, self.N, self.K) == expected

    def test_adam_server_formula(self):
        expected = self.P * self.M * self.N + self.P * self.K * (self.M + self.N)
        assert adam_server_cost(self.M, self.N, self.K, self.P) == expected

    def test_adam_combined_formula(self):
        expected = (self.P - 1) * (self.M * self.N + self.K * self.M + self.K * self.N)
        assert adam_combined_cost(self.M, self.N, self.K, self.P) == expected

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            ps_worker_cost(0, 10)
        with pytest.raises(ConfigurationError):
            sfb_worker_cost(10, 10, 0, 2)
        with pytest.raises(ConfigurationError):
            ps_server_cost(10, 10, 0, 1)


class TestCostModelProperties:
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 8192), n=st.integers(1, 8192),
           k=st.integers(1, 512), p=st.integers(1, 64))
    def test_costs_non_negative(self, m, n, k, p):
        assert ps_worker_cost(m, n) >= 0
        assert ps_combined_cost(m, n, p, p) >= 0
        assert sfb_worker_cost(m, n, k, p) >= 0
        assert adam_combined_cost(m, n, k, p) >= 0

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(64, 8192), n=st.integers(64, 8192), k=st.integers(1, 256),
           p=st.integers(2, 64))
    def test_sfb_cost_grows_linearly_with_batch(self, m, n, k, p):
        assert sfb_worker_cost(m, n, 2 * k, p) == pytest.approx(
            2 * sfb_worker_cost(m, n, k, p))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(64, 8192), n=st.integers(64, 8192), p=st.integers(2, 64))
    def test_ps_cost_independent_of_batch(self, m, n, p):
        # PS moves dense gradients; batch size never appears in its formula.
        assert ps_combined_cost(m, n, p, p) == ps_combined_cost(m, n, p, p)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 128), p=st.integers(2, 32))
    def test_sfb_wins_for_square_layers_when_batch_small(self, k, p):
        """For a 4096^2 layer, SFB wins whenever K(P-1)(M+N) < MN(P-1)/P * ..."""
        m = n = 4096
        sfb = sfb_worker_cost(m, n, k, p)
        ps = ps_combined_cost(m, n, p, p)
        # Analytic crossover: SFB wins iff K <= MN(P1+P2-2)/(P2*(P1-1)*(M+N)).
        crossover = m * n * (2 * p - 2) / (p * (p - 1) * (m + n))
        assert (sfb <= ps) == (k <= crossover)


class TestBestScheme:
    def make_fc(self, m, n):
        return LayerSpec(name="fc", kind=LayerKind.FC, param_count=m * n,
                         param_shape=(m, n), sf_decomposable=True, output_shape=(n,))

    def make_conv(self):
        return LayerSpec(name="conv", kind=LayerKind.CONV, param_count=1000,
                         param_shape=(10, 10, 10), output_shape=(10, 5, 5))

    def test_conv_always_ps(self, small_cluster):
        model = CostModel(small_cluster, batch_size=32)
        assert model.best_scheme(self.make_conv()) == "ps"

    def test_large_fc_small_batch_uses_sfb(self, small_cluster):
        model = CostModel(small_cluster, batch_size=32)
        assert model.best_scheme(self.make_fc(4096, 4096)) == "sfb"

    def test_thin_fc_large_batch_uses_ps(self, small_cluster):
        """GoogLeNet's 1024x1000 classifier at batch 128 reduces to PS."""
        model = CostModel(small_cluster, batch_size=128)
        assert model.best_scheme(self.make_fc(1024, 1000)) == "ps"

    def test_single_worker_never_sfb(self):
        cluster = ClusterConfig(num_workers=1)
        model = CostModel(cluster, batch_size=32)
        assert model.best_scheme(self.make_fc(4096, 4096)) == "ps"

    def test_googlenet_plan_reduces_to_ps_on_16_nodes(self):
        """Section 5.2: Poseidon reduces to PS for GoogLeNet (batch 128)."""
        spec = get_model_spec("googlenet")
        model = CostModel(ClusterConfig(num_workers=16), batch_size=128)
        for layer in spec.layers:
            if layer.kind is not LayerKind.FC:
                continue
            assert model.best_scheme(layer) == "ps"

    def test_vgg19_fc_layers_use_sfb_on_16_nodes(self):
        spec = get_model_spec("vgg19")
        model = CostModel(ClusterConfig(num_workers=16), batch_size=32)
        for layer in spec.layers:
            if layer.kind is not LayerKind.FC:
                continue
            assert model.best_scheme(layer) == "sfb"

    def test_scheme_cost_bytes_consistency(self, small_cluster):
        model = CostModel(small_cluster, batch_size=32)
        layer = self.make_fc(2048, 2048)
        params = model.scheme_cost_params(layer, "ps")
        assert model.scheme_cost_bytes(layer, "ps") == params * 4

    def test_onebit_cost_32x_smaller_than_ps(self, small_cluster):
        model = CostModel(small_cluster, batch_size=32)
        layer = self.make_fc(2048, 2048)
        ps = model.scheme_cost_params(layer, "ps")
        onebit = model.scheme_cost_params(layer, "onebit")
        assert onebit == pytest.approx(ps / 32.0)

    def test_sfb_cost_rejected_for_conv(self, small_cluster):
        model = CostModel(small_cluster, batch_size=32)
        with pytest.raises(ConfigurationError):
            model.scheme_cost_params(self.make_conv(), "sfb")

    def test_invalid_batch_rejected(self, small_cluster):
        # Not truncated (``CostModel(cluster, 2.5).batch_size == 2``).
        for batch in (0, 2.5, 32.0, math.nan):
            with pytest.raises(ConfigurationError, match="batch_size"):
                CostModel(small_cluster, batch_size=batch)

    def test_numpy_integer_batch_is_valid(self, small_cluster):
        assert CostModel(small_cluster, batch_size=np.int64(8)).batch_size == 8


class TestPolicyRefusal:
    """A scheme the trainer and ``resolve_plan`` refuse under a policy has
    no price either (VGG19 fc6 at 8 nodes)."""

    FC6 = get_model_spec("vgg19").layer("fc6")
    CLUSTER = ClusterConfig(num_workers=8)

    @pytest.mark.parametrize("policy", ["ssp(2)", "async"])
    @pytest.mark.parametrize("scheme", ["ring", "sfb"])
    def test_every_query_refuses(self, scheme, policy):
        per_call = CostModel(self.CLUSTER, batch_size=32)
        sticky = CostModel(self.CLUSTER, batch_size=32, policy=policy)
        queries = (
            lambda: per_call.scheme_cost_params(self.FC6, scheme, policy=policy),
            lambda: per_call.scheme_cost_bytes(self.FC6, scheme, policy=policy),
            lambda: per_call.scheme_seconds(self.FC6, scheme, policy=policy),
            lambda: sticky.scheme_cost_params(self.FC6, scheme),
            lambda: sticky.scheme_seconds(self.FC6, scheme),
        )
        for query in queries:
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"backend '{scheme}' cannot run under policy {policy}")):
                query()

    @pytest.mark.parametrize("scheme, policy", [
        ("ps", "ssp(2)"), ("ps", "async"), ("ring", "ssp(0)"),
        ("sfb", "ssp(0)")])
    def test_a_pair_the_trainer_runs_keeps_its_bsp_price(self, scheme, policy):
        model = CostModel(self.CLUSTER, batch_size=32)
        assert (model.scheme_cost_params(self.FC6, scheme, policy=policy)
                == model.scheme_cost_params(self.FC6, scheme))

    @pytest.mark.parametrize("policy", ["bsp", "ssp(2)", "async"])
    @pytest.mark.parametrize("nodes", [8, 64])
    @pytest.mark.parametrize("layer_name", ["fc6", "fc7", "fc8"])
    def test_best_scheme_refuses_only_an_argmin_the_policy_cannot_run(
            self, layer_name, nodes, policy):
        """Algorithm 1's argmin is taken as under BSP; the policy is checked
        on the chosen backend only, as ``resolve_plan`` does."""
        layer = get_model_spec("vgg19").layer(layer_name)
        per_call = CostModel(ClusterConfig(num_workers=nodes), batch_size=32)
        sticky = CostModel(ClusterConfig(num_workers=nodes), batch_size=32,
                           policy=policy)
        for query in ("best_scheme", "best_scheme_timed"):
            argmin = getattr(per_call, query)(layer)
            answers = (lambda: getattr(per_call, query)(layer, policy=policy),
                       lambda: getattr(sticky, query)(layer))
            for answer in answers:
                if get_backend(argmin).supports_policy(SyncPolicy.parse(policy)):
                    assert answer() == argmin, query
                else:
                    with pytest.raises(ConfigurationError, match=re.escape(
                            f"backend '{argmin}' cannot run under policy "
                            f"{policy}")):
                        answer()

    def test_the_argmin_at_64_nodes_is_ps_for_fc8(self):
        """Where PS wins, a relaxed policy does not make the choice raise."""
        fc8 = get_model_spec("vgg19").layer("fc8")
        model = CostModel(ClusterConfig(num_workers=64), batch_size=32)
        assert model.best_scheme_timed(fc8, policy="ssp(2)") == "ps"
