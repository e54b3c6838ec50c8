"""Fault model unit tests: plans, injector, detector, and the analytic model.

Covers the fault subsystem below the trainer:

* :class:`repro.core.faults.FaultPlan` construction, seeded sampling and
  the fire-once :class:`~repro.core.faults.FaultInjector` semantics;
* the :class:`~repro.core.faults.FailureDetector` and its one-shot abort
  fan-out;
* the closed-form Young--Daly checkpoint model and straggler-excess model
  shared by both simulation engines;
* the engines themselves: default fault axes are a byte-identical no-op,
  the cost-vs-MTBF frontier is monotone, relaxed policies mask stragglers,
  and the DES and fluid engines agree within the documented envelope;
* the ``fig_faults`` experiment's frontier and masking views and its
  rendering.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    SystemConfig,
)
from repro.core.faults import (
    CrashFault,
    FailureDetector,
    FaultInjector,
    FaultPlan,
    PushPullFault,
    SlowdownFault,
    effective_straggler_fraction,
    fault_overhead_factor,
    straggler_excess_seconds,
    young_daly_interval,
)
from repro.exceptions import ConfigurationError, TransientFault, WorkerFailure
from repro.simulation.fluid import simulate_fluid
from repro.simulation.throughput import simulate_system


def _system(name="sys", comm="ps"):
    return SystemConfig(name=name,
                        schedule=ScheduleMode.WFBP,
                        partitioning=Partitioning.FINE, comm=comm)


# -- FaultPlan -----------------------------------------------------------------
class TestFaultPlan:
    def test_slow_factor_compounds_overlapping_slowdowns(self):
        plan = FaultPlan(slowdowns=(
            SlowdownFault(0, start_iteration=1, duration=3, factor=2.0),
            SlowdownFault(0, start_iteration=2, duration=1, factor=3.0),
        ))
        assert plan.slow_factor(0, 0) == 1.0
        assert plan.slow_factor(0, 1) == 2.0
        assert plan.slow_factor(0, 2) == 6.0
        assert plan.slow_factor(0, 4) == 1.0
        assert plan.slow_factor(1, 2) == 1.0

    def test_random_is_deterministic_in_seed(self):
        a = FaultPlan.random(seed=11, num_workers=4, iterations=8)
        b = FaultPlan.random(seed=11, num_workers=4, iterations=8)
        assert a == b
        assert a != FaultPlan.random(seed=12, num_workers=4, iterations=8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_respects_bounds(self, seed):
        plan = FaultPlan.random(seed=seed, num_workers=3, iterations=6)
        assert len(plan.crashes) <= 1
        for crash in plan.crashes:
            assert 0 <= crash.worker_id < 3
            assert 1 <= crash.iteration < 6
        for slow in plan.slowdowns:
            assert slow.start_iteration + slow.duration <= 6
            assert slow.factor >= 1.0
        for transient in plan.transients:
            assert 0 <= transient.iteration < 6
            assert 1 <= transient.failures <= 2

    def test_random_rejects_degenerate_shapes(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random(seed=0, num_workers=0, iterations=5)
        with pytest.raises(ConfigurationError):
            FaultPlan.random(seed=0, num_workers=2, iterations=0)


# -- FaultInjector -------------------------------------------------------------
class TestFaultInjector:
    def test_crash_fires_exactly_once(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashFault(1, 2),)))
        injector.begin_step(1, 1)  # before the scheduled step: no-op
        with pytest.raises(WorkerFailure) as excinfo:
            injector.begin_step(1, 2)
        assert excinfo.value.worker_id == 1
        assert excinfo.value.iteration == 2
        # After restart the replayed step runs fault-free.
        injector.begin_step(1, 2)

    def test_transients_consumed_then_exhausted(self):
        plan = FaultPlan(transients=(PushPullFault(0, 1, failures=2),))
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(TransientFault):
                injector.before_sync(0, 1)
        injector.before_sync(0, 1)  # budget consumed: clean from now on
        injector.before_sync(1, 1)  # other workers never affected

    def test_crash_fires_only_for_its_worker(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashFault(1, 2),)))
        injector.begin_step(0, 2)  # same step, other worker: no-op
        with pytest.raises(WorkerFailure):
            injector.begin_step(1, 2)

    def test_transients_for_one_step_add_up(self):
        plan = FaultPlan(transients=(PushPullFault(0, 3, failures=2),
                                     PushPullFault(0, 3, failures=1)))
        injector = FaultInjector(plan)
        injector.before_sync(0, 2)  # another iteration: nothing scheduled
        for _ in range(3):
            with pytest.raises(TransientFault):
                injector.before_sync(0, 3)
        injector.before_sync(0, 3)

    def test_empty_plan_hooks_are_noops(self):
        injector = FaultInjector(FaultPlan())
        injector.begin_step(0, 0)
        injector.before_sync(0, 0)


# -- FailureDetector -----------------------------------------------------------
class _Abortable:
    def __init__(self):
        self.aborts = []
        self.cleared = 0

    def abort(self, exc):
        self.aborts.append(exc)

    def clear_abort(self):
        self.cleared += 1


class TestFailureDetector:
    def test_mark_dead_fans_out_once(self):
        detector = FailureDetector(num_workers=3)
        primitive = _Abortable()
        detector.register(primitive)
        detector.register(primitive)  # duplicate registration ignored
        exc = WorkerFailure("boom", worker_id=1)
        assert detector.mark_dead(1, exc)
        assert not detector.mark_dead(1, exc)  # second declaration: no-op
        assert primitive.aborts == [exc]

    def test_revive_clears_dead_set_and_aborts(self):
        detector = FailureDetector(num_workers=2)
        primitive = _Abortable()
        detector.register(primitive)
        detector.mark_dead(0, WorkerFailure("boom", worker_id=0))
        detector.revive_all()
        assert primitive.cleared == 1
        assert detector.mark_dead(0, WorkerFailure("again", worker_id=0))


# -- closed-form model ---------------------------------------------------------
class TestAnalyticModel:
    def test_young_daly_formula(self):
        assert young_daly_interval(5.0, 3600.0) == pytest.approx(
            math.sqrt(2 * 5.0 * 3600.0))
        assert young_daly_interval(0.0, 3600.0) == math.inf
        with pytest.raises(ConfigurationError):
            young_daly_interval(5.0, 0.0)

    def test_overhead_factor_defaults_to_exactly_one(self):
        assert fault_overhead_factor(None, None, 0.0) == 1.0
        assert fault_overhead_factor(None, None, 5.0) == 1.0

    def test_overhead_factor_pays_checkpoints_without_failures(self):
        # Interval explicitly configured, MTBF None: still pay C/I.
        assert fault_overhead_factor(None, 100.0, 5.0) == pytest.approx(1.05)

    def test_overhead_monotone_decreasing_in_mtbf(self):
        factors = [fault_overhead_factor(mtbf, None, 5.0)
                   for mtbf in (600.0, 3600.0, 86_400.0)]
        assert factors == sorted(factors, reverse=True)
        assert all(f > 1.0 for f in factors)

    @given(mtbf=st.floats(60.0, 1e6), interval=st.floats(1.0, 1e5))
    @settings(max_examples=50, deadline=None)
    def test_young_daly_never_loses_to_fixed_interval(self, mtbf, interval):
        cost = 5.0
        optimal = fault_overhead_factor(mtbf, None, cost)
        fixed = fault_overhead_factor(mtbf, interval, cost)
        assert optimal <= fixed + 1e-12

    def test_overhead_factor_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            fault_overhead_factor(3600.0, None, -1.0)
        with pytest.raises(ConfigurationError):
            fault_overhead_factor(-5.0, None, 1.0)
        with pytest.raises(ConfigurationError):
            fault_overhead_factor(3600.0, -1.0, 1.0)

    def test_straggler_fraction_quantizes_to_whole_workers(self):
        assert effective_straggler_fraction(0.0, 8) == 0.0
        assert effective_straggler_fraction(0.1, 8) == pytest.approx(1 / 8)
        assert effective_straggler_fraction(0.25, 8) == pytest.approx(0.25)
        assert effective_straggler_fraction(1.0, 8) == 1.0
        with pytest.raises(ConfigurationError):
            effective_straggler_fraction(1.5, 8)

    def test_straggler_excess_policy_ordering(self):
        kwargs = dict(compute_seconds=2.0, fraction=0.25, factor=3.0,
                      num_workers=8)
        barrier = straggler_excess_seconds(staleness=0, **kwargs)
        ssp = straggler_excess_seconds(staleness=2, **kwargs)
        loose = straggler_excess_seconds(staleness=50, **kwargs)
        free = straggler_excess_seconds(is_async=True, **kwargs)
        # BSP pays the full max excess; async only the mean; ssp between.
        assert barrier == pytest.approx((3.0 - 1.0) * 2.0)
        assert free == pytest.approx(0.25 * (3.0 - 1.0) * 2.0)
        assert free < ssp < barrier
        assert loose == pytest.approx(free, rel=0.1)

    def test_straggler_excess_degenerate_cases(self):
        assert straggler_excess_seconds(2.0, 0.0, 3.0, 8) == 0.0
        assert straggler_excess_seconds(2.0, 0.5, 1.0, 8) == 0.0
        assert straggler_excess_seconds(0.0, 0.5, 3.0, 8) == 0.0
        with pytest.raises(ConfigurationError):
            straggler_excess_seconds(2.0, 0.5, 0.5, 8)
        with pytest.raises(ConfigurationError):
            straggler_excess_seconds(2.0, 0.5, 3.0, 8, staleness=-1)


# -- fault axes in the engines -------------------------------------------------
class TestSimulatedFaults:
    def _simulate(self, spec, system, engine, nodes=8):
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0)
        if engine == "fluid":
            return simulate_fluid(spec, system, cluster)
        return simulate_system(spec, system, cluster, engine="des")

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_default_fault_axes_are_byte_identical_noop(self, tiny_model_spec,
                                                        engine):
        plain = self._simulate(tiny_model_spec, _system(), engine)
        explicit = self._simulate(tiny_model_spec,
                                  _system().with_faults(), engine)
        assert plain.iteration_seconds == explicit.iteration_seconds
        assert plain.per_node_traffic_bytes == explicit.per_node_traffic_bytes

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_cost_vs_mtbf_frontier_monotone(self, tiny_model_spec, engine):
        base = self._simulate(tiny_model_spec, _system(), engine)
        seconds = [
            self._simulate(
                tiny_model_spec,
                _system(name=f"m{mtbf}").with_faults(
                    mtbf_seconds=mtbf, checkpoint_cost_seconds=5.0),
                engine).iteration_seconds
            for mtbf in (600.0, 3600.0, 86_400.0)
        ]
        # Flakier clusters pay strictly more; everything costs more than
        # the fault-free baseline.
        assert seconds == sorted(seconds, reverse=True)
        assert all(s > base.iteration_seconds for s in seconds)

    def test_checkpoint_overhead_identical_across_engines(self, tiny_model_spec):
        # The checkpoint/restart axis uses the same closed form in both
        # engines, so their *relative* overhead agrees exactly.
        system = _system().with_faults(mtbf_seconds=3600.0,
                                       checkpoint_cost_seconds=5.0)
        for engine in ("des", "fluid"):
            base = self._simulate(tiny_model_spec, _system(), engine)
            faulty = self._simulate(tiny_model_spec, system, engine)
            ratio = faulty.iteration_seconds / base.iteration_seconds
            assert ratio == pytest.approx(
                fault_overhead_factor(3600.0, None, 5.0), rel=1e-9)

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_relaxed_policies_mask_stragglers(self, tiny_model_spec, engine):
        def seconds(policy):
            system = _system(name=policy).with_policy(policy).with_faults(
                straggler_fraction=0.25, straggler_factor=4.0)
            return self._simulate(tiny_model_spec, system, engine
                                  ).iteration_seconds

        bsp, ssp, free = seconds("bsp"), seconds("ssp-4"), seconds("async")
        assert ssp < bsp
        assert free <= ssp * (1.0 + 1e-9)

    def test_engines_agree_within_straggler_envelope(self, tiny_model_spec):
        # The fluid straggler model is a first-order UPPER bound on the
        # DES (it ignores the extra communication overlap a slowed worker
        # gains), documented to agree within ~35% on <= 32-node configs.
        system = _system().with_faults(straggler_fraction=0.25,
                                       straggler_factor=2.0)
        des = self._simulate(tiny_model_spec, system, "des")
        fluid = self._simulate(tiny_model_spec, system, "fluid")
        assert fluid.iteration_seconds >= des.iteration_seconds * (1 - 1e-9)
        rel = (fluid.iteration_seconds - des.iteration_seconds) \
            / des.iteration_seconds
        assert rel <= 0.35


# -- the fig_faults experiment -------------------------------------------------
class TestFigFaults:
    @pytest.fixture(scope="class")
    def points(self):
        from repro.experiments import fig_faults

        return replace(fig_faults.FIGURE, nodes=(8,), **fig_faults.fault_systems(
            mtbfs=(600.0, 3600.0),
            stragglers=((0.0, 1.0), (0.25, 4.0)),
            policies=("bsp", "ssp-2", "async"),
            schemes=(("ps", "PS"),))).run(jobs=1)

    @staticmethod
    def seconds(points, **tags):
        return points.at(**tags).result.iteration_seconds

    def overhead(self, points, mtbf, ckpt):
        return (self.seconds(points, scheme="PS", mtbf=mtbf, ckpt=ckpt)
                / self.seconds(points, scheme="PS", mtbf="inf"))

    def slowdown(self, points, policy, severity):
        return (self.seconds(points, policy=policy, severity=severity)
                / self.seconds(points, policy=policy, severity="0x1"))

    def test_frontier_monotone_and_above_one(self, points):
        overheads = [self.overhead(points, mtbf, "yd")
                     for mtbf in ("600s", "3600s")]
        assert overheads == sorted(overheads, reverse=True)
        assert all(overhead > 1.0 for overhead in overheads)

    def test_young_daly_beats_fixed_interval(self, points):
        for mtbf in ("3600s", "600s"):
            assert self.overhead(points, mtbf, "yd") <= \
                self.overhead(points, mtbf, "120s") + 1e-12

    def test_policies_mask_stragglers(self, points):
        bsp, ssp, free = (self.slowdown(points, policy, "0.25x4")
                          for policy in ("bsp", "ssp-2", "async"))
        assert free <= ssp <= bsp
        assert bsp > 1.0

    def test_render_carries_smoke_marker(self):
        from repro.experiments import fig_faults

        text = fig_faults.report(quick=True)
        assert text.startswith("Fault frontier")
        assert "Young--Daly" in text
        assert "straggler slowdown factor" in text

    def test_registered_in_runner(self):
        from repro.experiments import runner

        assert "fig_faults" in runner.EXPERIMENTS
