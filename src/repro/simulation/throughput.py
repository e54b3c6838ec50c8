"""Flow-level simulation of one distributed training iteration.

The simulator places one worker per node (plus, optionally, colocated PS
shards), runs every worker's GPU through forward and per-unit backward
computation, and launches each unit's synchronization according to the
system descriptor: immediately after the unit's backward pass (WFBP) or only
after the full backward pass (sequential).  The transfer pattern of each
unit's scheme comes from its registered communication backend's
:class:`~repro.comm.backend.FlowPlan` -- fine-grained balanced KV store or
coarse per-tensor PS (optionally 1-bit quantized), sufficient-factor
broadcasting, Adam's SF-push/matrix-pull, chunked ring all-reduce,
rack-hierarchical PS, or any newly registered scheme.  The iteration ends
when every worker holds every unit's fresh parameters (BSP).

Network contention is modelled at each node's full-duplex NIC: uplink and
downlink are FIFO channels of the configured bandwidth.  Scatter/gather
traffic of the fine-grained KV store, which is spread uniformly over all
shards, is modelled as aggregate flows against the switching fabric (see
:mod:`repro.cluster.machine`), while per-destination traffic (coarse
placement, Adam, SFB) uses point-to-point flows so that hotspots emerge
naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import units
from repro.cluster.machine import ClusterModel
from repro.config import ClusterConfig
from repro.core.faults import fault_overhead_factor
from repro.core.wfbp import ScheduleMode
from repro.engines.base import SystemConfig
from repro.exceptions import SimulationError
from repro.nn.spec import ModelSpec
from repro.sim import Environment, Event
from repro.simulation.plan import (
    UnitPlan,
    decide_schemes,
    resolve_plan,
    validate_compression,
)
from repro.simulation.workload import IterationWorkload, SyncUnit, build_workload

__all__ = ["SimulationResult", "IterationSimulator", "decide_schemes",
           "simulate_system", "validate_compression"]


@dataclass
class SimulationResult:
    """Outcome of simulating one system on one cluster configuration."""

    model_name: str
    system_name: str
    num_workers: int
    bandwidth_gbps: float
    batch_size: int
    iteration_seconds: float
    single_node_seconds: float
    compute_seconds: float
    throughput_images_per_sec: float = 0.0
    speedup: float = 0.0
    gpu_busy_fraction: float = 0.0
    per_node_traffic_bytes: List[float] = field(default_factory=list)
    scheme_by_unit: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iteration_seconds <= 0:
            raise SimulationError("iteration time must be positive")
        cluster_images = self.num_workers * self.batch_size
        self.throughput_images_per_sec = cluster_images / self.iteration_seconds
        single_node_throughput = self.batch_size / self.single_node_seconds
        self.speedup = self.throughput_images_per_sec / single_node_throughput
        if self.gpu_busy_fraction == 0.0:
            self.gpu_busy_fraction = min(
                1.0, self.compute_seconds / self.iteration_seconds)

    @property
    def gpu_stall_fraction(self) -> float:
        """Fraction of the iteration the GPU spends waiting (Figure 7)."""
        return max(0.0, 1.0 - self.gpu_busy_fraction)

    @property
    def mean_traffic_gbits(self) -> float:
        """Mean per-node traffic per iteration in gigabits (Figure 10)."""
        if not self.per_node_traffic_bytes:
            return 0.0
        mean_bytes = sum(self.per_node_traffic_bytes) / len(self.per_node_traffic_bytes)
        return units.bytes_to_bits(mean_bytes) / units.GBIT

    @property
    def max_traffic_gbits(self) -> float:
        """Largest per-node traffic per iteration in gigabits."""
        if not self.per_node_traffic_bytes:
            return 0.0
        return units.bytes_to_bits(max(self.per_node_traffic_bytes)) / units.GBIT


def simulation_result(simulator, iteration_seconds: float,
                      gpu_busy_fraction: float,
                      traffic: List[float]) -> SimulationResult:
    """Package either engine's figures (both expose the same attributes)."""
    workload = simulator.workload
    return SimulationResult(
        model_name=workload.model_name,
        system_name=simulator.system.name,
        num_workers=simulator.num_workers,
        bandwidth_gbps=simulator.cluster_config.bandwidth_gbps,
        batch_size=workload.batch_size,
        iteration_seconds=iteration_seconds,
        single_node_seconds=workload.single_node_seconds,
        compute_seconds=workload.compute_seconds,
        gpu_busy_fraction=min(1.0, gpu_busy_fraction),
        per_node_traffic_bytes=traffic,
        scheme_by_unit={name: scheme.value
                        for name, scheme in simulator.schemes.items()},
    )


class _UnitSyncState:
    """Shared per-unit synchronization bookkeeping for one iteration.

    The per-worker ``send_done`` event map of the historical implementation
    (every worker joined it with a freshly built N-element ``all_of``) is
    collapsed into one :class:`~repro.sim.CountdownEvent`: each worker
    arrives once its send completes, and the barrier fires during the same
    dispatch in which the last worker's ``send_done`` would have.
    """

    __slots__ = ("send_started", "_send_started_fired", "all_sent",
                 "aggregated", "scatter_done", "extra")

    def __init__(self, env: Environment, num_workers: int):
        self.send_started: Event = env.event()
        self._send_started_fired = False
        self.all_sent = env.countdown(num_workers)
        self.aggregated: Event = env.event()
        self.scatter_done: Optional[Event] = None
        #: Backend-specific synchronization state (e.g. the ring's per-step
        #: barriers or the hierarchical tree's per-rack countdowns), keyed
        #: by the owning flow plan.
        self.extra: Dict[str, object] = {}

    def mark_send_started(self) -> None:
        if not self._send_started_fired:
            self.send_started.succeed()
            self._send_started_fired = True


#: Sync-round horizon of the relaxed-policy DES path (see ``_run_policy``).
_POLICY_WINDOWS = 8


class _RoundView:
    """Per-round facade over an :class:`IterationSimulator`.

    The relaxed-policy path simulates several consecutive rounds in one DES
    environment; flow plans are round-agnostic (they address shared state
    through ``sim.unit_state`` / ``sim.backward_done``), so each round hands
    them a view that resolves those two accessors to round-local state and
    delegates everything else to the real simulator.
    """

    __slots__ = ("_sim", "round_index", "_round_unit_state",
                 "_round_backward_done")

    def __init__(self, sim: "IterationSimulator", round_index: int):
        self._sim = sim
        self.round_index = round_index
        self._round_unit_state: Dict[str, _UnitSyncState] = {}
        self._round_backward_done: Dict[int, Event] = {}

    def unit_state(self, unit: SyncUnit) -> _UnitSyncState:
        return self._round_unit_state[unit.name]

    def backward_done(self, worker: int) -> Event:
        return self._round_backward_done[worker]

    def __getattr__(self, name: str):
        return getattr(self._sim, name)


class IterationSimulator:
    """Simulates one BSP iteration of one system on one cluster."""

    def __init__(self, workload: IterationWorkload, cluster: ClusterConfig,
                 system: SystemConfig):
        #: Scheme, owner, payload and encode delay of every unit, resolved
        #: once; ``workload`` is the plan's (bucketed when the system asks).
        self.plan = resolve_plan(workload, system, cluster)
        self.workload = self.plan.workload
        self.schemes = self.plan.schemes
        self.server_nodes = cluster.server_nodes
        self.cluster_config = cluster
        self.system = system
        self.env = Environment()
        self.cluster = ClusterModel(self.env, cluster)
        self.num_workers = cluster.num_workers
        self._unit_state: Dict[str, _UnitSyncState] = {}
        self._backward_done: Dict[int, Event] = {}
        self._iteration_seconds: Optional[float] = None

    # -- flow-plan interface --------------------------------------------------------
    # The per-scheme transfer patterns live in each backend's FlowPlan
    # (:mod:`repro.comm.backend`); plans drive the simulation through the
    # accessors below.
    def unit_plan(self, unit: SyncUnit) -> UnitPlan:
        """The resolved owner and payload (``.owner``, ``.bytes``) of one unit."""
        return self.plan.by_name[unit.name]

    def unit_state(self, unit: SyncUnit) -> "_UnitSyncState":
        """Shared synchronization state of one unit for this iteration."""
        return self._unit_state[unit.name]

    def backward_done(self, worker: int) -> Event:
        """Event fired when ``worker`` finishes its whole backward pass."""
        return self._backward_done[worker]

    # -- simulation ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the system and return per-iteration statistics.

        Under the default execution semantics (``staleness == 0`` and
        ``sync_period == 1``) this runs the single-iteration BSP simulation
        unchanged.  Relaxed policies (SSP, async, local SGD) instead
        simulate several consecutive rounds in one environment -- workers
        advance their own clocks, gated only by the policy's staleness
        bound -- and report amortized per-iteration figures.
        """
        if self._iteration_seconds is not None:
            raise SimulationError("IterationSimulator instances are single-use")
        if self.system.staleness == 0 and self.system.sync_period == 1:
            result = self._run_bsp()
        else:
            result = self._run_policy()
        # Crash/recovery events are modelled by their expected cost: the
        # Young--Daly checkpoint/rework factor scales the iteration time
        # (identical closed form in the fluid engine, so the two engines
        # agree on this axis by construction).  1.0 at the defaults.
        factor = fault_overhead_factor(
            self.system.mtbf_seconds,
            self.system.checkpoint_interval_seconds,
            self.system.checkpoint_cost_seconds)
        if factor != 1.0:
            self._iteration_seconds = result.iteration_seconds * factor
            result = replace(result,
                             iteration_seconds=self._iteration_seconds)
        return result

    def _compute_scale(self, worker: int, round_index: int = 0) -> float:
        """Straggler compute multiplier of one worker in one round.

        ``ceil(straggler_fraction * P)`` workers run ``straggler_factor``x
        slower; the slow set rotates with the round index so that over a
        multi-round (relaxed-policy) simulation every worker stalls the
        same share of rounds -- which is what lets SSP and async schedules
        mask stragglers that stall a BSP barrier every iteration.
        """
        fraction = self.system.straggler_fraction
        factor = self.system.straggler_factor
        if fraction <= 0.0 or factor == 1.0:
            return 1.0
        slow_count = math.ceil(fraction * self.num_workers)
        if (worker - round_index) % self.num_workers < slow_count:
            return factor
        return 1.0

    def _run_bsp(self) -> SimulationResult:
        """Simulate one globally synchronous (BSP) iteration."""
        for unit in self.workload.units:
            self._unit_state[unit.name] = _UnitSyncState(self.env, self.num_workers)
        for worker in range(self.num_workers):
            self._backward_done[worker] = self.env.event()

        worker_processes = [
            self.env.process(self._worker_process(worker))
            for worker in range(self.num_workers)
        ]
        # Server-side helpers, where the scheme's flow plan asks for them
        # (fine-grained PS-style gather/apply/scatter; coarse aggregation is
        # driven from the per-worker send processes).
        for plan in self.plan.units:
            flow, scheme = plan.backend.flow_plan, plan.backend.scheme
            if flow.needs_server_process(self, plan.unit, scheme):
                self.env.process(flow.server_process(self, plan.unit, scheme))

        self.env.run()
        for process in worker_processes:
            if process.ok is False:
                raise process.value
        iteration_seconds = max(process.value for process in worker_processes)
        self._iteration_seconds = iteration_seconds

        busy = [machine.gpu.busy_seconds for machine in
                (self.cluster.machine(w) for w in range(self.num_workers))]
        gpu_busy_fraction = (sum(busy) / len(busy)) / iteration_seconds if busy else 0.0
        traffic = [
            self.cluster.machine(node).nic.traffic.total_bytes
            for node in sorted(self.cluster.machines)
        ]
        return simulation_result(self, iteration_seconds, gpu_busy_fraction,
                                 traffic)

    def _run_policy(self) -> SimulationResult:
        """Simulate a multi-round relaxed-consistency (SSP/async/local SGD) run.

        ``rounds`` consecutive training steps share one DES environment.
        Communication happens only on sync rounds (every ``sync_period``-th
        step); a worker entering step ``r`` waits -- unless fully async --
        until its sync of the latest sync round at or before ``r - 1 -
        staleness`` has completed, which is exactly the SSP bound: no
        worker computes on state more than ``staleness`` clocks behind the
        slowest sync it depends on.  Reported figures (iteration time,
        per-node traffic) are the makespan and byte totals amortized over
        the simulated rounds, so local SGD's wire volume scales as ``1/H``
        and SSP's pipelining of communication under later rounds' compute
        shows up as reduced per-iteration time.
        """
        staleness = self.system.staleness
        period = self.system.sync_period
        # Enough rounds to reach pipeline steady state.  The horizon is the
        # SAME for every relaxed policy (only the gate strength differs):
        # with per-policy horizons the warmup/drain rounds would amortize
        # differently and mask the staleness effect, breaking the expected
        # monotone throughput-vs-staleness ordering.  It must exceed the
        # deepest staleness bound swept, so bounded policies with a larger
        # ``s`` are gated on strictly fewer rounds.
        windows = (max(_POLICY_WINDOWS, staleness + 2)
                   if staleness is not None else _POLICY_WINDOWS)
        rounds = period * windows
        sync_rounds = [r for r in range(rounds) if (r + 1) % period == 0]
        views: Dict[int, _RoundView] = {}
        for r in sync_rounds:
            view = _RoundView(self, r)
            for unit in self.workload.units:
                view._round_unit_state[unit.name] = _UnitSyncState(
                    self.env, self.num_workers)
            for worker in range(self.num_workers):
                view._round_backward_done[worker] = self.env.event()
            views[r] = view
        self._sync_done = {
            (worker, r): self.env.countdown(self.workload.num_units)
            for worker in range(self.num_workers) for r in sync_rounds
        }

        worker_processes = [
            self.env.process(self._policy_worker_process(
                worker, rounds, sync_rounds, views))
            for worker in range(self.num_workers)
        ]
        for r in sync_rounds:
            for plan in self.plan.units:
                flow, scheme = plan.backend.flow_plan, plan.backend.scheme
                if flow.needs_server_process(self, plan.unit, scheme):
                    self.env.process(
                        flow.server_process(views[r], plan.unit, scheme))

        self.env.run()
        for process in worker_processes:
            if process.ok is False:
                raise process.value
        makespan = max(process.value for process in worker_processes)
        iteration_seconds = makespan / rounds
        self._iteration_seconds = iteration_seconds

        busy = [machine.gpu.busy_seconds for machine in
                (self.cluster.machine(w) for w in range(self.num_workers))]
        gpu_busy_fraction = (sum(busy) / len(busy)) / makespan if busy else 0.0
        traffic = [
            self.cluster.machine(node).nic.traffic.total_bytes / rounds
            for node in sorted(self.cluster.machines)
        ]
        return simulation_result(self, iteration_seconds, gpu_busy_fraction,
                                 traffic)

    # -- worker side --------------------------------------------------------------------
    def _worker_process(self, worker: int):
        machine = self.cluster.machine(worker)
        gpu = machine.gpu
        start = self.env.now
        scale = self._compute_scale(worker)
        # One countdown barrier joins every unit's sync process (a failing
        # sync fails the barrier, and with it this worker).
        sync_barrier = self.env.countdown(self.workload.num_units)

        if not self.system.overlap_host_copy:
            staging_seconds = units.transfer_seconds(
                2 * self.workload.total_param_bytes,
                self.system.host_copy_bandwidth_bps,
            )
            yield from gpu.compute(staging_seconds * scale)

        yield from gpu.compute(self.workload.forward_seconds * scale)

        pending_sequential = []
        for unit in reversed(self.workload.units):
            yield from gpu.compute(unit.backward_seconds * scale)
            if self.system.schedule is ScheduleMode.WFBP:
                sync_barrier.arrive_on(
                    self.env.process(self._unit_sync(worker, unit)))
            else:
                pending_sequential.append(unit)
        if self.workload.tail_backward_seconds > 0:
            yield from gpu.compute(self.workload.tail_backward_seconds * scale)
        self._backward_done[worker].succeed()

        for unit in pending_sequential:
            sync_barrier.arrive_on(
                self.env.process(self._unit_sync(worker, unit)))

        if self.num_workers > 1:
            yield sync_barrier
        return self.env.now - start

    def _policy_worker_process(self, worker: int, rounds: int,
                               sync_rounds: List[int],
                               views: Dict[int, "_RoundView"]):
        machine = self.cluster.machine(worker)
        gpu = machine.gpu
        start = self.env.now
        staleness = self.system.staleness
        for r in range(rounds):
            # SSP staleness gate: before computing round r, the sync of the
            # latest sync round at or before r - 1 - s must have landed.
            # Fully asynchronous workers (staleness None) never wait.
            if self.num_workers > 1 and staleness is not None:
                horizon = r - 1 - staleness
                gate = None
                for g in reversed(sync_rounds):
                    if g <= horizon:
                        gate = g
                        break
                if gate is not None:
                    yield self._sync_done[(worker, gate)]

            scale = self._compute_scale(worker, round_index=r)
            if not self.system.overlap_host_copy:
                staging_seconds = units.transfer_seconds(
                    2 * self.workload.total_param_bytes,
                    self.system.host_copy_bandwidth_bps,
                )
                yield from gpu.compute(staging_seconds * scale)
            yield from gpu.compute(self.workload.forward_seconds * scale)

            is_sync = (r + 1) % self.system.sync_period == 0
            view = views.get(r)
            sync_barrier = self._sync_done[(worker, r)] if is_sync else None
            pending_sequential = []
            for unit in reversed(self.workload.units):
                yield from gpu.compute(unit.backward_seconds * scale)
                if not is_sync:
                    continue
                if self.system.schedule is ScheduleMode.WFBP:
                    sync_barrier.arrive_on(self.env.process(
                        self._unit_sync(worker, unit, view=view)))
                else:
                    pending_sequential.append(unit)
            if self.workload.tail_backward_seconds > 0:
                yield from gpu.compute(self.workload.tail_backward_seconds * scale)
            if is_sync:
                view._round_backward_done[worker].succeed()
                for unit in pending_sequential:
                    sync_barrier.arrive_on(self.env.process(
                        self._unit_sync(worker, unit, view=view)))
        # Drain: the makespan must cover the final sync round's traffic,
        # otherwise relaxed policies would report communication as free.
        if self.num_workers > 1 and sync_rounds:
            yield self._sync_done[(worker, sync_rounds[-1])]
        return self.env.now - start

    def _unit_sync(self, worker: int, unit: SyncUnit,
                   view: Optional["_RoundView"] = None):
        """Synchronize one unit at one worker under its assigned scheme."""
        if self.num_workers == 1:
            return
        if self.cluster_config.gpus_per_node > 1:
            # Local multi-GPU reduction onto the leader GPU over PCIe before
            # anything touches the network (Section 5.1, multi-GPU setting).
            local_bytes = unit.param_bytes * (self.cluster_config.gpus_per_node - 1)
            yield self.env.timeout(units.transfer_seconds(
                local_bytes, self.cluster_config.gpu.pcie_bandwidth_bps))
        plan = self.unit_plan(unit)
        if plan.encode_seconds > 0.0:
            # The compressor's encode pass delays the unit's send; modelled
            # as a plain delay (not GPU occupancy) because production
            # stacks run it on side streams/CPU without stalling backprop.
            yield self.env.timeout(plan.encode_seconds)
        yield from plan.backend.flow_plan.worker_sync(
            self if view is None else view, worker, unit, plan.backend.scheme)


def simulate_system(model: ModelSpec, system: SystemConfig, cluster: ClusterConfig,
                    batch_size: Optional[int] = None,
                    workload: Optional[IterationWorkload] = None,
                    engine: Optional[str] = None) -> SimulationResult:
    """Simulate one iteration of ``system`` training ``model`` on ``cluster``.

    ``engine`` selects the evaluation strategy: ``"des"`` (the event-driven
    simulator, the default), ``"fluid"`` (the closed-form analytic engine
    of :mod:`repro.simulation.fluid`), or ``"auto"`` (fluid at or above
    ``fluid.FLUID_NODE_THRESHOLD`` workers, DES below).  ``None`` defers to
    the session default (:func:`repro.simulation.fluid.use_engine`).

    Raises:
        ConfigurationError: on an unrecognised engine name.
    """
    # Imported lazily: fluid imports this module for the result type.
    from repro.simulation import fluid as fluid_mod

    resolved = fluid_mod.resolve_engine(engine, cluster.num_workers)
    workload = workload or build_workload(model, batch_size=batch_size,
                                          gpu=cluster.gpu)
    if resolved == "fluid":
        return fluid_mod.FluidSimulator(workload, cluster, system).run()
    simulator = IterationSimulator(workload, cluster, system)
    return simulator.run()
