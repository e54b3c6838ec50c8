"""Execution-semantics policies: parsing, SSP invariant, end-to-end effects.

Covers the beyond-BSP axis at every layer it threads through:

* :class:`repro.core.policy.SyncPolicy` parsing and validation;
* the SSP clock invariant (no worker resumes compute more than ``s``
  clocks ahead of the slowest worker), property-tested over random
  thread interleavings;
* trainer bit-identity of the degenerate policies (``ssp(0)`` and
  ``local_sgd(1)`` take the exact BSP code path);
* local SGD's ``1/H`` wire-traffic scaling in the trainer, the DES and
  the fluid engine;
* the monotone throughput-vs-staleness frontier in both engines;
* backend capability declarations and the cost model's sync-frequency
  scaling.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    SystemConfig,
    TrainingConfig,
)
from repro.core.cost_model import CostModel
from repro.core.policy import BSP, SyncPolicy
from repro.core.staleness import SSPClock
from repro.data import shard_dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.model_zoo import build_mlp_network
from repro.parallel import DistributedTrainer
from repro.simulation.fluid import simulate_fluid
from repro.simulation.throughput import simulate_system
from train_reference import make_linearly_separable

NUM_WORKERS = 3


# -- the policy object ---------------------------------------------------------
class TestSyncPolicyParsing:
    @pytest.mark.parametrize("spec,kind,staleness,period", [
        ("bsp", "bsp", 0, 1),
        ("ssp", "ssp", 1, 1),
        ("ssp(2)", "ssp", 2, 1),
        ("ssp-3", "ssp", 3, 1),
        ("async", "async", 0, 1),
        ("local_sgd(4)", "local_sgd", 0, 4),
        ("local-8", "local_sgd", 0, 8),
    ])
    def test_parse_specs(self, spec, kind, staleness, period):
        policy = SyncPolicy.parse(spec)
        assert (policy.kind, policy.staleness, policy.sync_period) == \
            (kind, staleness, period)

    def test_parse_none_and_passthrough(self):
        assert SyncPolicy.parse(None) == BSP
        policy = SyncPolicy.parse("ssp-2")
        assert SyncPolicy.parse(policy) is policy

    @pytest.mark.parametrize("bad", ["", "bsp(2)", "ssp(-1)", "local_sgd(0)",
                                     "gossip", "async(1)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            SyncPolicy.parse(bad)

    def test_degenerate_policies_are_bsp_equivalent(self):
        assert SyncPolicy.parse("ssp(0)").is_bsp_equivalent
        assert SyncPolicy.parse("local_sgd(1)").is_bsp_equivalent
        assert BSP.is_bsp_equivalent
        assert not SyncPolicy.parse("ssp(1)").is_bsp_equivalent
        assert not SyncPolicy.parse("async").is_bsp_equivalent
        assert not SyncPolicy.parse("local-2").is_bsp_equivalent

    def test_properties(self):
        assert SyncPolicy.parse("async").bound is None
        assert SyncPolicy.parse("ssp-2").bound == 2
        assert SyncPolicy.parse("local-4").sync_frequency == 0.25
        assert SyncPolicy.parse("local-4").averages_parameters
        assert not SyncPolicy.parse("local_sgd(1)").averages_parameters
        assert SyncPolicy.parse("ssp-1").relaxed_consistency
        assert SyncPolicy.parse("async").relaxed_consistency
        assert not BSP.relaxed_consistency

    def test_ready_gate(self):
        ssp2 = SyncPolicy.parse("ssp-2")
        assert ssp2.ready(worker_clock=5, min_clock=3)
        assert not ssp2.ready(worker_clock=6, min_clock=3)
        assert SyncPolicy.parse("async").ready(worker_clock=100, min_clock=0)

    def test_str_round_trips(self):
        for spec in ("bsp", "ssp(2)", "async", "local_sgd(4)"):
            assert str(SyncPolicy.parse(spec)) == spec
            assert SyncPolicy.parse(str(SyncPolicy.parse(spec))) == \
                SyncPolicy.parse(spec)


# -- the SSP clock invariant ---------------------------------------------------
class TestSSPInvariant:
    @settings(max_examples=15, deadline=None)
    @given(num_workers=st.integers(2, 4), staleness=st.integers(0, 3),
           iterations=st.integers(2, 8))
    def test_no_worker_resumes_more_than_s_ahead(self, num_workers, staleness,
                                                 iterations):
        """After advance() returns, the worker's lag is within the bound.

        Threads race freely; the observation is taken right after advance
        unblocks.  Only the worker itself moves its clock, and min_clock
        only ever increases, so a late min_clock() reading can only
        under-estimate the lag, never inflate it: the assertion is
        race-free.
        """
        clock = SSPClock(num_workers, staleness=staleness, default_timeout=10.0)
        max_lag = [0]
        lock = threading.Lock()
        errors = []

        def worker(worker_id):
            try:
                for _ in range(iterations):
                    clock.advance(worker_id)
                    lag = clock.clock(worker_id) - clock.min_clock()
                    with lock:
                        max_lag[0] = max(max_lag[0], lag)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(num_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert max_lag[0] <= staleness
        assert clock.min_clock() == iterations

    def test_async_clock_never_blocks(self):
        clock = SSPClock(2, staleness=None, default_timeout=0.001)
        for _ in range(50):
            clock.advance(0)  # worker 1 never moves; must not time out
        assert clock.snapshot() == {0: 50, 1: 0}

    def test_default_timeout_is_plumbed(self):
        clock = SSPClock(2, staleness=0, default_timeout=0.01)
        with pytest.raises(TrainingError):
            clock.advance(0)  # worker 1 never arrives: bound + tiny timeout


# -- trainer-level semantics ---------------------------------------------------
def _make_setup():
    train_x, train_y, _, _ = make_linearly_separable(
        num_train=180, num_test=10, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    config = TrainingConfig(batch_size=8, learning_rate=0.05, iterations=6,
                            seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                 num_classes=4, seed=21)

    return factory, shards, config


def _train(mode, policy, iterations=6, deterministic=True):
    factory, shards, config = _make_setup()
    trainer = DistributedTrainer(factory, NUM_WORKERS, shards, config,
                                 mode=mode, schedule=ScheduleMode.WFBP,
                                 deterministic=deterministic, policy=policy)
    history = trainer.train(iterations)
    return history, trainer.replica(0).get_state()


class TestTrainerPolicies:
    @pytest.mark.parametrize("degenerate", ["ssp(0)", "local_sgd(1)"])
    def test_degenerate_policies_bit_identical_to_bsp(self, degenerate):
        base_history, base_state = _train("ps", "bsp")
        history, state = _train("ps", degenerate)
        assert history.losses == base_history.losses
        for layer, params in base_state.items():
            for key, value in params.items():
                assert (value == state[layer][key]).all()

    def test_local_sgd_wire_bytes_scale_inverse_h(self):
        base_history, _ = _train("ps", "bsp")
        for period in (2, 3):
            history, _ = _train("ps", f"local-{period}")
            assert history.total_bytes * period == base_history.total_bytes

    @pytest.mark.parametrize("policy", ["ssp-2", "async"])
    def test_relaxed_policies_deterministic_across_runs(self, policy):
        history_a, state_a = _train("ps", policy)
        history_b, state_b = _train("ps", policy)
        assert history_a.losses == history_b.losses
        for layer, params in state_a.items():
            for key, value in params.items():
                assert (value == state_b[layer][key]).all()

    def test_local_sgd_runs_on_every_substrate(self):
        final = {mode: _train(mode, "local-2")[0].final_loss
                 for mode in ("ps", "ring", "hierps")}
        # Parameter averaging happens above the substrate, so every backend
        # reaches the same deterministic trajectory.
        assert len(set(final.values())) == 1

    def test_unsupported_policy_rejected_at_construction(self):
        factory, shards, config = _make_setup()
        with pytest.raises(ConfigurationError,
                           match="cannot run under policy"):
            DistributedTrainer(factory, NUM_WORKERS, shards, config,
                               mode="sfb", policy="ssp-2")

    def test_history_records_policy(self):
        history, _ = _train("ps", "ssp-2")
        assert history.policy == "ssp(2)"


# -- backend capability declarations ------------------------------------------
class TestBackendCapabilities:
    def test_ps_family_declares_relaxed_semantics(self):
        from repro.comm.backend import get_backend

        for name in ("ps", "onebit"):
            backend = get_backend(name)
            for spec in ("bsp", "ssp-2", "async", "local-2"):
                assert backend.supports_policy(SyncPolicy.parse(spec))

    def test_collectives_reject_relaxed_consistency(self):
        from repro.comm.backend import get_backend

        for name in ("sfb", "ring", "hierps", "adam"):
            backend = get_backend(name)
            assert backend.supports_policy(BSP)
            assert backend.supports_policy(SyncPolicy.parse("local-2"))
            assert not backend.supports_policy(SyncPolicy.parse("ssp-2"))
            assert not backend.supports_policy(SyncPolicy.parse("async"))

    def test_degenerate_policies_validate_as_bsp(self):
        from repro.comm.backend import get_backend

        assert get_backend("sfb").supports_policy(SyncPolicy.parse("ssp(0)"))
        assert get_backend("ring").supports_policy(
            SyncPolicy.parse("local_sgd(1)"))


# -- simulators ----------------------------------------------------------------
def _system(comm="ps", name="sys"):
    return SystemConfig(name=name,
                        schedule=ScheduleMode.WFBP,
                        partitioning=Partitioning.FINE, comm=comm)


class TestSystemConfigPolicy:
    @pytest.mark.parametrize("spec,staleness,period", [
        ("bsp", 0, 1), ("ssp-3", 3, 1), ("async", None, 1), ("local-4", 0, 4),
    ])
    def test_with_policy_maps_axes(self, spec, staleness, period):
        system = _system().with_policy(spec)
        assert system.policy == SyncPolicy.parse(spec)
        assert (system.policy.bound, system.policy.sync_period) == (
            staleness, period)

    def test_defaults_are_bsp(self):
        assert _system().policy is BSP


@pytest.mark.parametrize("engine", ["des", "fluid"])
class TestSimulatedPolicies:
    def _simulate(self, tiny_model_spec, system, engine):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=1.0)
        if engine == "fluid":
            return simulate_fluid(tiny_model_spec, system, cluster)
        return simulate_system(tiny_model_spec, system, cluster, engine="des")

    def test_local_sgd_traffic_scales_inverse_h(self, tiny_model_spec, engine):
        base = self._simulate(tiny_model_spec, _system(), engine)
        for period in (2, 4):
            relaxed = self._simulate(
                tiny_model_spec,
                _system(name=f"local{period}").with_policy(f"local-{period}"),
                engine)
            assert relaxed.mean_traffic_gbits == pytest.approx(
                base.mean_traffic_gbits / period)

    def test_throughput_monotone_in_staleness(self, tiny_model_spec, engine):
        frontier = []
        for label, spec in [("bsp", "bsp"), ("ssp1", "ssp-1"),
                            ("ssp2", "ssp-2"), ("ssp4", "ssp-4"),
                            ("async", "async")]:
            system = _system(name=label).with_policy(spec)
            result = self._simulate(tiny_model_spec, system, engine)
            frontier.append(result.throughput_images_per_sec)
        for earlier, later in zip(frontier, frontier[1:]):
            assert later >= earlier * (1.0 - 1e-9)

    @pytest.mark.parametrize("policy", ["ssp(1)", "async"])
    def test_ring_under_relaxed_consistency_is_refused(
            self, tiny_model_spec, engine, policy):
        """The trainer refuses ring under SSP and async; so do the engines."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=1.0)
        with pytest.raises(ConfigurationError,
                           match="'ring' cannot run under policy"):
            simulate_system(tiny_model_spec,
                            _system("ring").with_policy(policy), cluster,
                            engine=engine)

    def test_default_policy_unchanged(self, tiny_model_spec, engine):
        plain = self._simulate(tiny_model_spec, _system(), engine)
        explicit = self._simulate(tiny_model_spec,
                                  _system().with_policy("bsp"), engine)
        assert plain.iteration_seconds == explicit.iteration_seconds
        assert plain.per_node_traffic_bytes == explicit.per_node_traffic_bytes


# -- cost model ----------------------------------------------------------------
class TestCostModelPolicy:
    def test_local_sgd_scales_comm_terms(self, vgg19_spec):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        model = CostModel(cluster, batch_size=32)
        layer = next(l for l in vgg19_spec.layers if l.sf_decomposable)
        base = model.scheme_cost_params(layer, "ps")
        scaled = model.scheme_cost_params(layer, "ps",
                                          policy="local-4")
        assert scaled == pytest.approx(base / 4)
        sticky = CostModel(cluster, batch_size=32, policy="local-2")
        assert sticky.scheme_cost_params(layer, "ps") == \
            pytest.approx(base / 2)

    def test_best_scheme_policy_invariant(self, vgg19_spec):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        model = CostModel(cluster, batch_size=32)
        for layer in vgg19_spec.layers:
            assert model.best_scheme(layer) == \
                model.best_scheme(layer, policy="local-4")
