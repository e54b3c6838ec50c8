"""Deterministic fault injection and the analytic fault model.

The paper's KV store "will regularly checkpoint current parameter state";
this module supplies the other half of that story: a way to *exercise* the
recovery path deterministically.  A :class:`FaultPlan` is a frozen, seeded
schedule of worker crashes, multiplicative slowdowns (stragglers) and
transient push/pull failures.  The trainer consults it through a
:class:`FaultInjector` at two fixed points -- the top of every worker step
and immediately before every layer sync -- so a chaos run under
``deterministic=True`` is bit-reproducible: the same plan and seed always
crash the same worker at the same iteration and the recovered parameters
are a pure function of the plan.

Three design rules keep injection orthogonal to numerics:

- **fail before send**: transient faults fire *before* the syncer touches
  any substrate, so a retry replays the identical bytes and cannot change
  the aggregate;
- **crash at step start**: a crash fires before the worker samples a batch
  or pushes anything for that iteration, so the dead worker contributed
  nothing that survivors would have to unwind;
- **slowdowns are wall-clock only**: a straggler sleeps, it never computes
  differently, so parameters are unaffected by construction.

The module also hosts the closed-form fault model shared by both
simulation engines: the Young--Daly optimal checkpoint interval and the
first-order expected-overhead factor, plus the straggler-excess model that
maps a (fraction, factor) straggler distribution and a consistency policy
to expected exposed seconds per iteration.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.domains import (AT_LEAST_ONE, COUNT0, FRACTION, NONNEGATIVE,
                           POSITIVE, optional, require)
from repro.exceptions import ConfigurationError, WorkerFailure
from repro.exceptions import TransientFault as TransientFaultError

__all__ = [
    "CrashFault",
    "SlowdownFault",
    "PushPullFault",
    "FaultPlan",
    "FaultInjector",
    "FailureDetector",
    "young_daly_interval",
    "fault_overhead_factor",
    "effective_straggler_fraction",
    "straggler_excess_seconds",
]


@dataclass(frozen=True)
class CrashFault:
    """Worker ``worker_id`` dies at the start of iteration ``iteration``."""

    worker_id: int
    iteration: int


@dataclass(frozen=True)
class SlowdownFault:
    """Worker runs ``factor`` x slower for ``duration`` iterations.

    Realized as a wall-clock sleep proportional to ``factor - 1`` at the
    start of each affected step; purely temporal, never numerical.
    """

    worker_id: int
    start_iteration: int
    duration: int = 1
    factor: float = 2.0

    def covers(self, iteration: int) -> bool:
        """Whether this slowdown is active at ``iteration``."""
        return (self.start_iteration <= iteration
                < self.start_iteration + self.duration)


@dataclass(frozen=True)
class PushPullFault:
    """``failures`` consecutive transient sync failures for one layer sync.

    Models a lossy link: the first ``failures`` attempts of the affected
    worker's syncs at ``iteration`` raise a retryable
    :class:`~repro.exceptions.TransientFault` before any bytes move.
    """

    worker_id: int
    iteration: int
    failures: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of faults for one training run.

    Build one explicitly from fault tuples, or sample one with
    :meth:`random`.  An empty plan schedules nothing, but its hooks stay
    armed; the trainer skips every injection hook only without a plan
    (``fault_plan=None``).
    """

    crashes: Tuple[CrashFault, ...] = ()
    slowdowns: Tuple[SlowdownFault, ...] = ()
    transients: Tuple[PushPullFault, ...] = ()
    seed: int = 0
    #: Seconds of sleep per unit of (factor - 1) per slowed step.  Kept
    #: tiny so chaos tests stay fast; the *analytic* model uses the real
    #: factor, this only shapes observable wall-clock in the live trainer.
    slowdown_unit_seconds: float = 0.002

    def slow_factor(self, worker_id: int, iteration: int) -> float:
        """Combined slowdown factor for a worker step (1.0 = full speed)."""
        factor = 1.0
        for slow in self.slowdowns:
            if slow.worker_id == worker_id and slow.covers(iteration):
                factor *= slow.factor
        return factor

    @classmethod
    def random(cls, seed: int, num_workers: int, iterations: int,
               crash_probability: float = 0.3,
               straggler_probability: float = 0.3,
               transient_probability: float = 0.3,
               max_transient_failures: int = 2,
               slowdown_factor: float = 3.0) -> "FaultPlan":
        """Sample a reproducible plan from a seed.

        At most one crash is scheduled (at a uniformly random worker and
        iteration >= 1) so a single checkpoint/restart cycle covers it;
        slowdowns and transients are sampled independently per worker.
        """
        if num_workers < 1 or iterations < 1:
            raise ConfigurationError(
                "FaultPlan.random needs >= 1 worker and iteration, got "
                f"{num_workers} workers x {iterations} iterations")
        rng = np.random.default_rng(seed)
        crashes: List[CrashFault] = []
        if iterations > 1 and rng.random() < crash_probability:
            crashes.append(CrashFault(
                worker_id=int(rng.integers(num_workers)),
                iteration=int(rng.integers(1, iterations))))
        slowdowns: List[SlowdownFault] = []
        transients: List[PushPullFault] = []
        for worker in range(num_workers):
            if rng.random() < straggler_probability:
                start = int(rng.integers(iterations))
                slowdowns.append(SlowdownFault(
                    worker_id=worker, start_iteration=start,
                    duration=int(rng.integers(1, iterations - start + 1)),
                    factor=slowdown_factor))
            if rng.random() < transient_probability:
                transients.append(PushPullFault(
                    worker_id=worker,
                    iteration=int(rng.integers(iterations)),
                    failures=int(rng.integers(1, max_transient_failures + 1))))
        return cls(crashes=tuple(crashes), slowdowns=tuple(slowdowns),
                   transients=tuple(transients), seed=seed)


class FaultInjector:
    """Mutable realization of a :class:`FaultPlan` across restarts.

    Crashes and transient failures fire exactly once per scheduled event:
    the consumed state survives a restart-from-checkpoint, so the replayed
    iterations run fault-free and the run converges instead of re-dying at
    the same step forever.  (Because faults have no numerical side
    effects, replaying them or not cannot change parameters.)
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._fired_crashes: Set[int] = set()
        self._transients_left: Dict[Tuple[int, int], int] = {
            (t.worker_id, t.iteration): 0 for t in plan.transients}
        for t in plan.transients:
            self._transients_left[(t.worker_id, t.iteration)] += t.failures

    def begin_step(self, worker_id: int, iteration: int) -> None:
        """Injection hook at the top of a worker step.

        Raises :class:`WorkerFailure` for an unfired scheduled crash and
        sleeps for any active slowdown.  Called before the worker samples
        its batch, so a crashing worker contributes nothing this step.
        """
        for crash in self.plan.crashes:
            if crash.worker_id == worker_id and crash.iteration == iteration:
                with self._lock:
                    if worker_id in self._fired_crashes:
                        continue
                    self._fired_crashes.add(worker_id)
                raise WorkerFailure(
                    f"injected crash: worker {worker_id} died at iteration "
                    f"{iteration}", worker_id=worker_id, iteration=iteration)
        factor = self.plan.slow_factor(worker_id, iteration)
        if factor > 1.0:
            time.sleep(self.plan.slowdown_unit_seconds * (factor - 1.0))

    def before_sync(self, worker_id: int, iteration: int) -> None:
        """Injection hook immediately before a layer sync (fail-before-send).

        Consumes one scheduled transient failure, if any remain for this
        (worker, iteration), and raises the retryable
        :class:`~repro.exceptions.TransientFault`.
        """
        key = (worker_id, iteration)
        with self._lock:
            left = self._transients_left.get(key, 0)
            if left <= 0:
                return
            self._transients_left[key] = left - 1
        raise TransientFaultError(
            f"injected transient sync failure: worker {worker_id} at "
            f"iteration {iteration} ({left - 1} more scheduled)",
            worker_id=worker_id, iteration=iteration)


class FailureDetector:
    """The dead set plus the abort fan-out registry.

    When a worker raises :class:`WorkerFailure` the detector marks it dead
    and aborts every registered sync primitive, so blocked peers raise
    instead of hanging until timeout.
    Registered primitives implement ``abort(exc)`` and ``clear_abort()``
    -- in the trainer, every one is a
    :class:`~repro.core.consistency.Rendezvous`.
    """

    def __init__(self, num_workers: int):
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._dead: Set[int] = set()
        self._abortables: List[object] = []

    def register(self, primitive: object) -> None:
        """Register a primitive exposing abort(exc)/clear_abort()."""
        with self._lock:
            if primitive not in self._abortables:
                self._abortables.append(primitive)

    def mark_dead(self, worker_id: int, exc: BaseException) -> bool:
        """Declare a worker dead and abort all registered primitives.

        Returns False if the worker was already declared dead (the abort
        fan-out runs only once per failure).
        """
        with self._lock:
            if worker_id in self._dead:
                return False
            self._dead.add(worker_id)
            abortables = list(self._abortables)
        for primitive in abortables:
            primitive.abort(exc)
        return True

    def revive_all(self) -> None:
        """Clear dead set and aborts (restart-from-checkpoint recovery)."""
        with self._lock:
            self._dead.clear()
            abortables = list(self._abortables)
        for primitive in abortables:
            primitive.clear_abort()


# ---------------------------------------------------------------------------
# Closed-form fault model (shared by the DES and fluid engines)
# ---------------------------------------------------------------------------

def young_daly_interval(checkpoint_cost_seconds: float,
                        mtbf_seconds: float) -> float:
    """Young--Daly first-order optimal checkpoint interval sqrt(2*C*M).

    Minimizes expected waste (checkpoint overhead C/I plus expected
    rework I/2 per failure) for checkpoint cost ``C`` and exponential
    failures with mean-time-between-failures ``M``.
    """
    if checkpoint_cost_seconds <= 0.0:
        return math.inf
    require("mtbf_seconds", mtbf_seconds, POSITIVE)
    return math.sqrt(2.0 * checkpoint_cost_seconds * mtbf_seconds)


def fault_overhead_factor(mtbf_seconds: Optional[float],
                          checkpoint_interval_seconds: Optional[float],
                          checkpoint_cost_seconds: float,
                          restart_cost_seconds: float = 0.0) -> float:
    """First-order expected slowdown factor of checkpoint/restart running.

    ``1 + C/I + (I/2 + R)/M``: pay a checkpoint ``C`` every interval
    ``I``, and per failure (rate ``1/M``) lose half an interval of rework
    plus the restart cost ``R``.  ``I=None`` picks the Young--Daly
    optimum; ``M=None`` (no failures) still pays ``C/I`` if an interval
    was explicitly configured, and returns exactly 1.0 otherwise.
    """
    require("mtbf_seconds", mtbf_seconds, optional(POSITIVE))
    require("checkpoint_interval_seconds", checkpoint_interval_seconds,
            optional(POSITIVE))
    require("checkpoint_cost_seconds", checkpoint_cost_seconds, NONNEGATIVE)
    require("restart_cost_seconds", restart_cost_seconds, NONNEGATIVE)
    if mtbf_seconds is None:
        if checkpoint_interval_seconds and checkpoint_cost_seconds > 0.0:
            return 1.0 + checkpoint_cost_seconds / checkpoint_interval_seconds
        return 1.0
    interval = checkpoint_interval_seconds
    if interval is None:
        interval = young_daly_interval(checkpoint_cost_seconds, mtbf_seconds)
    factor = 1.0 + (restart_cost_seconds / mtbf_seconds)
    if math.isfinite(interval):
        factor += checkpoint_cost_seconds / interval
        factor += interval / (2.0 * mtbf_seconds)
    return factor


def effective_straggler_fraction(fraction: float, num_workers: int) -> float:
    """Quantize a straggler fraction to whole workers: ceil(f*P)/P.

    Any positive fraction slows at least one worker, matching the DES
    (which can only slow an integer number of workers) so the two engines
    agree by construction on small clusters.
    """
    require("straggler_fraction", fraction, FRACTION)
    if fraction == 0.0 or num_workers <= 0:
        return 0.0
    return math.ceil(fraction * num_workers) / num_workers


def straggler_excess_seconds(compute_seconds: float, fraction: float,
                             factor: float, num_workers: int,
                             staleness: int = 0,
                             is_async: bool = False) -> float:
    """Expected extra seconds per iteration a straggler set costs.

    With a fraction ``f`` of workers slowed by ``factor`` x:

    - a barrier (BSP, and local SGD's sync rounds amortized per step)
      pays the slowest worker's full excess ``(factor-1)*compute``;
    - fully asynchronous execution pays only the *mean* excess
      ``f*(factor-1)*compute`` (each worker proceeds at its own rate);
    - ssp(s) interpolates: ``mean + (max-mean)/(1+s)``, continuous with
      BSP at s=0 and approaching async as the bound loosens, because a
      straggler only stalls peers once it falls ``s`` clocks behind.
    """
    require("straggler_factor", factor, AT_LEAST_ONE)
    eff = effective_straggler_fraction(fraction, num_workers)
    if eff == 0.0 or factor == 1.0 or compute_seconds <= 0.0:
        return 0.0
    excess_max = (factor - 1.0) * compute_seconds
    excess_mean = eff * excess_max
    if is_async:
        return excess_mean
    require("staleness", staleness, COUNT0)
    return excess_mean + (excess_max - excess_mean) / (1.0 + staleness)
