"""Chaos tests: fault injection, crash recovery, and no-hang guarantees.

Exercises the fault-tolerant trainer end to end:

* the fault-free path is bit-identical with and without the fault
  machinery attached (hooks are true no-ops by default);
* restart-from-checkpoint recovery is *exact*: recovered parameters are
  bit-identical to a fault-free run under ``deterministic=True``, pinned
  for hand-written plans, random seeded plans (a hypothesis property),
  every substrate family, and the serialized SSP path;
* drop-dead-worker recovery renormalizes aggregation to a P-1 mean and
  collectives reject it at construction;
* transient sync failures retry invisibly and exhaust into a fatal
  :class:`~repro.exceptions.WorkerFailure`;
* a dead peer *fails* the run (abort fan-out / ``SyncTimeout``), it never
  hangs the suite.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TrainingConfig
from repro.core.consistency import BSPController
from repro.core.faults import CrashFault, FaultPlan, PushPullFault, SlowdownFault
from repro.data import shard_dataset
from repro.exceptions import SyncTimeout, TrainingError
from repro.nn.model_zoo import build_mlp_network
from repro.parallel import DistributedTrainer
from train_reference import make_linearly_separable

NUM_WORKERS = 3
ITERATIONS = 6

#: A hand-written plan covering all three fault species at once.
FULL_PLAN = FaultPlan(
    crashes=(CrashFault(worker_id=1, iteration=2),),
    slowdowns=(SlowdownFault(worker_id=2, start_iteration=1, duration=2,
                             factor=2.0),),
    transients=(PushPullFault(worker_id=0, iteration=3, failures=1),),
)


def _make_trainer(mode="ps", plan=None, recovery="none", policy="bsp",
                  iterations=ITERATIONS, **kwargs):
    train_x, train_y, _, _ = make_linearly_separable(
        num_train=96, num_test=32, input_dim=16, num_classes=4, seed=7)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    config = TrainingConfig(batch_size=8, learning_rate=0.05,
                            iterations=iterations, seed=5)
    return DistributedTrainer(
        network_factory=lambda: build_mlp_network(
            input_dim=16, hidden_dims=(32, 16), num_classes=4, seed=21),
        num_workers=NUM_WORKERS,
        train_shards=shards,
        training=config,
        mode=mode,
        deterministic=True,
        policy=policy,
        fault_plan=plan,
        recovery=recovery,
        **kwargs,
    )


def _final_state(trainer):
    return trainer.replica(0).get_state()


def assert_states_identical(actual, expected):
    """Bit-exact comparison of two network state dicts."""
    assert actual.keys() == expected.keys()
    for layer, params in expected.items():
        assert actual[layer].keys() == params.keys()
        for name, value in params.items():
            np.testing.assert_array_equal(
                actual[layer][name], value,
                err_msg=f"{layer}/{name} diverged")


_BASELINES = {}


def _baseline(mode="ps", policy="bsp"):
    """Fault-free reference state and losses, computed once per config."""
    key = (mode, policy)
    if key not in _BASELINES:
        trainer = _make_trainer(mode=mode, policy=policy)
        history = trainer.train()
        _BASELINES[key] = (_final_state(trainer), list(history.losses))
    return _BASELINES[key]


class TestFaultFreePath:
    def test_empty_plan_and_checkpoints_are_invisible(self):
        """Attaching the whole fault machinery must not move a single bit."""
        state, losses = _baseline()
        trainer = _make_trainer(plan=FaultPlan(), recovery="restart",
                                checkpoint_interval=2)
        history = trainer.train()
        assert trainer.recoveries == 0
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)

    def test_transient_retries_are_numerically_invisible(self):
        """Fail-before-send: a retried sync replays the identical bytes."""
        state, losses = _baseline()
        plan = FaultPlan(transients=(PushPullFault(0, 1, failures=2),
                                     PushPullFault(2, 4, failures=1)))
        trainer = _make_trainer(plan=plan)
        history = trainer.train()
        assert trainer.recoveries == 0
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)


class TestRestartRecovery:
    def test_recovery_is_bit_exact_for_full_plan(self):
        state, losses = _baseline()
        trainer = _make_trainer(plan=FULL_PLAN, recovery="restart",
                                checkpoint_interval=2)
        history = trainer.train()
        assert trainer.recoveries == 1
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)

    @pytest.mark.parametrize("mode", ["ring", "sfb", "onebit", "hierps"])
    def test_recovery_is_bit_exact_across_substrates(self, mode):
        state, losses = _baseline(mode=mode)
        trainer = _make_trainer(mode=mode, plan=FULL_PLAN, recovery="restart",
                                checkpoint_interval=2)
        history = trainer.train()
        assert trainer.recoveries == 1
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)

    def test_recovery_is_bit_exact_under_serialized_ssp(self):
        state, losses = _baseline(policy="ssp-1")
        trainer = _make_trainer(policy="ssp-1", plan=FULL_PLAN,
                                recovery="restart", checkpoint_interval=2)
        history = trainer.train()
        assert trainer.recoveries == 1
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)

    def test_exhausted_transients_recover_through_restart(self):
        """A link so lossy that retries exhaust escalates to a worker
        failure, which restart recovery then absorbs."""
        state, losses = _baseline()
        plan = FaultPlan(transients=(PushPullFault(0, 1, failures=6),))
        trainer = _make_trainer(plan=plan, recovery="restart",
                                checkpoint_interval=2, retry_limit=2)
        history = trainer.train()
        assert trainer.recoveries >= 1
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_random_plans_recover_bit_exact(self, seed):
        """The chaos property: ANY seeded plan recovers bit-identically."""
        state, losses = _baseline()
        plan = FaultPlan.random(seed=seed, num_workers=NUM_WORKERS,
                                iterations=ITERATIONS)
        trainer = _make_trainer(plan=plan, recovery="restart",
                                checkpoint_interval=2)
        history = trainer.train()
        assert trainer.recoveries == len(plan.crashes)
        assert history.losses == losses
        assert_states_identical(_final_state(trainer), state)


class TestDropRecovery:
    def test_dead_worker_is_excised_and_survivors_finish(self):
        plan = FaultPlan(crashes=(CrashFault(worker_id=1, iteration=3),))
        trainer = _make_trainer(plan=plan, recovery="drop")
        history = trainer.train()
        assert trainer._dropped_workers == {1}
        # The dead worker contributed exactly its pre-crash iterations.
        assert len(history.per_worker_losses[1]) == 3
        assert all(len(history.per_worker_losses[w]) == ITERATIONS
                   for w in (0, 2))
        assert np.isfinite(history.losses).all()
        # The PS renormalized its mean to the P-1 survivors.
        assert trainer.substrate("ps").num_workers == NUM_WORKERS - 1
        # Survivors still agree bit-exactly with each other.
        assert_states_identical(trainer.replica(2).get_state(),
                                trainer.replica(0).get_state())

    @pytest.mark.parametrize("mode", ["ring", "sfb", "hierps"])
    def test_collectives_reject_drop_at_construction(self, mode):
        with pytest.raises(TrainingError, match="fault modes"):
            _make_trainer(mode=mode, recovery="drop")

    def test_onebit_ps_supports_drop(self):
        plan = FaultPlan(crashes=(CrashFault(worker_id=2, iteration=2),))
        trainer = _make_trainer(mode="onebit", plan=plan, recovery="drop")
        history = trainer.train()
        assert trainer._dropped_workers == {2}
        assert np.isfinite(history.losses).all()


class TestFailFastNotHang:
    def test_unrecovered_crash_fails_fast(self):
        """Without recovery, a dead peer aborts the run -- promptly."""
        plan = FaultPlan(crashes=(CrashFault(worker_id=1, iteration=2),))
        trainer = _make_trainer(plan=plan, sync_timeout=30.0)
        started = time.monotonic()
        with pytest.raises(TrainingError, match="injected crash"):
            trainer.train()
        # The abort fan-out beat the 30s sync timeout by a wide margin.
        assert time.monotonic() - started < 10.0

    def test_exhausted_retries_fail_without_recovery(self):
        plan = FaultPlan(transients=(PushPullFault(0, 1, failures=6),))
        trainer = _make_trainer(plan=plan, retry_limit=2)
        with pytest.raises(TrainingError, match="retry budget|transient"):
            trainer.train()

    def test_lonely_barrier_times_out_with_sync_timeout(self):
        bsp = BSPController(2, ["layer"])
        started = time.monotonic()
        with pytest.raises(SyncTimeout, match="barrier timed out"):
            bsp.barrier(0, timeout=0.2)
        assert time.monotonic() - started < 5.0

    def test_wait_worker_times_out_with_sync_timeout(self):
        bsp = BSPController(1, ["layer"])
        with pytest.raises(SyncTimeout, match="waiting for syncers"):
            bsp.wait_worker(0, timeout=0.05)


class TestConfigurationValidation:
    def test_unknown_recovery_mode_rejected(self):
        with pytest.raises(TrainingError, match="unknown recovery mode"):
            _make_trainer(recovery="pray")

    def test_negative_knobs_rejected(self):
        with pytest.raises(TrainingError, match="checkpoint_interval"):
            _make_trainer(recovery="restart", checkpoint_interval=-1)
        with pytest.raises(TrainingError, match="retry_limit"):
            _make_trainer(retry_limit=-1)

    def test_drop_needs_bsp_equivalent_policy(self):
        with pytest.raises(TrainingError, match="BSP-equivalent"):
            _make_trainer(recovery="drop", policy="local-2")

    def test_checkpoints_need_a_rendezvous(self):
        with pytest.raises(TrainingError, match="local SGD"):
            _make_trainer(recovery="restart", checkpoint_interval=2,
                          policy="local-2")

    def test_relaxed_checkpoints_need_determinism(self):
        train_x, train_y, _, _ = make_linearly_separable(
            num_train=96, num_test=32, input_dim=16, num_classes=4, seed=7)
        shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
        with pytest.raises(TrainingError, match="deterministic"):
            DistributedTrainer(
                network_factory=lambda: build_mlp_network(
                    input_dim=16, hidden_dims=(32, 16), num_classes=4,
                    seed=21),
                num_workers=NUM_WORKERS,
                train_shards=shards,
                training=TrainingConfig(batch_size=8, learning_rate=0.05,
                                        iterations=ITERATIONS, seed=5),
                mode="ps",
                policy="ssp-1",
                deterministic=False,
                recovery="restart",
                checkpoint_interval=2,
            )
