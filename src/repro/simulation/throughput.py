"""Flow-level simulation of one distributed training iteration.

The simulator places one worker per node (plus, optionally, colocated PS
shards), runs every worker's GPU through forward and per-unit backward
computation, and launches each unit's synchronization according to the
system descriptor: immediately after the unit's backward pass (WFBP) or only
after the full backward pass (sequential).  How a unit synchronizes is the
ordered :class:`~repro.comm.backend.Phase` tuple its scheme's backend
declared (frozen in the resolved plan) -- fine-grained balanced KV store or
coarse per-tensor PS (optionally 1-bit quantized), sufficient-factor
broadcasting, Adam's SF-push/matrix-pull, chunked ring all-reduce,
rack-hierarchical PS, or any newly registered sequence.  One interpreter
lowers those phases to per-worker steps (:func:`_lower_unit`) and executes
them on the cluster's flow primitives; it knows phase kinds, never schemes.
An iteration ends when every worker holds every unit's fresh parameters
(BSP); a relaxed policy runs several rounds and amortizes them.

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
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.cluster.machine import ClusterModel
from repro.comm.backend import (
    PhaseKind, Scope, SyncShape, registry_generation)
from repro.config import ClusterConfig, ScheduleMode, SystemConfig
from repro.core.faults import fault_overhead_factor
from repro.exceptions import SimulationError
from repro.memo import Memo
from repro.nn.spec import ModelSpec
from repro.sim import CountdownEvent, Environment, Event
from repro.simulation.plan import (
    _FABRIC_KINDS,
    MEMO_PLANS,
    UnitPlan,
    decide_schemes,
    fan_groups,
    resolve_plan,
)
from repro.simulation.workload import IterationWorkload, build_workload

__all__ = ["SimulationResult", "IterationSimulator", "decide_schemes",
           "simulate_system"]


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
        if not 0 < self.iteration_seconds < math.inf:  # NaN too
            raise SimulationError(
                f"iteration time must be positive and finite, got "
                f"{self.iteration_seconds!r}")
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
        scheme_by_unit=dict(simulator.schemes),
    )


# -- the interpreter: phases -> per-worker steps -----------------------------------
# A unit's phases are lowered once per plan to one step tuple per worker;
# running a sync is then a step record (``_UnitSync``) walking the opcodes,
# whatever the scheme, until one must wait: on a flow's completion event,
# a barrier, the gate or a shard side's event.  It resumes as that event's
# waiter, so no generator runs in a DES run.
_TRANSFER = 0   # (op, src, dst, nbytes, tag): inline point-to-point flow
_SPAWN = 1      # same, booked from its own entry (Phase.detached)
_BROADCAST = 2  # (op, src, dst_ids, nbytes, tag): one uplink hold, many copies
_RING = 3       # (op, nbytes, tag, first_barrier, rounds, holds): to the successor
_ARRIVE = 4     # (op, barrier)
_WAIT = 5       # (op, barrier)
_GATE = 6       # (op,): wait for backward-done unless pulls overlap
_AWAIT = 7      # (op, phase): that fabric phase's shard side has finished
#: Stands for the running worker in a step's node fields, so that workers in
#: the same role share one step tuple (a 32-node plan lowers to a few
#: distinct tuples per unit, not 32).
_SELF = -2


@dataclass(frozen=True)
class _UnitSteps:
    """One unit's lowered schedule.

    Attributes:
        workers: the step tuple of every worker.
        barriers: size of each countdown barrier the steps index.
        shards: shard-side steps of the fabric phases, run by one
            ``_ShardSide`` per unit: ``(pushed_barrier, nbytes, tag,
            phase)`` -- gather, then fire the phase's event once the
            barrier has; with no barrier, scatter, and the scatter's finish
            is the event.
    """

    workers: Tuple[Tuple[tuple, ...], ...]
    barriers: Tuple[int, ...]
    shards: Tuple[tuple, ...]


def _lower_unit(plan: UnitPlan, shape: SyncShape, one_hold: bool) -> _UnitSteps:
    """Lower one unit's phases to per-worker steps (node ids enumerated).

    A node *acts* in a phase when its own sync issues the transfer: the
    senders of a fan-in, fabric push or ring step, the receivers of a
    fan-out or fabric fetch (a pull is driven by who pulls), the hub of a
    broadcast.  Actors arrive at the phase's countdown -- one for the whole
    phase or one per rack, by its scope.  Before acting, a node waits for
    the previous phase's countdown and, from the first gated phase on,
    passes the gate once; whoever receives through someone else's transfer
    (a broadcast's or ring step's receivers) waits for the phase's own.  A
    fetch's completion is known to the sync that drove it, so a fan-out
    counts down only when it hands over to a later phase as a whole.

    A phase repeated ``k`` times is ``k`` rounds of one message, each behind
    its own countdown -- or, with ``one_hold`` (``IterationSimulator._lowered``
    decides), one round whose flow holds its path ``k`` times as long.
    """
    phases = plan.phases
    workers = range(shape.num_workers)
    steps: List[List[tuple]] = [[] for _ in workers]
    sizes: List[int] = []
    ids: Dict[tuple, int] = {}
    waited: List[Optional[tuple]] = [None] * len(workers)
    gate_from = next((index for index, phase in enumerate(phases)
                      if phase.gated), len(phases))
    gated = [False] * len(workers)
    shards: List[tuple] = []
    rounds = [1 if one_hold else phase.repeat for phase in phases]

    def barrier(index: int, node: int, step: int = 0) -> int:
        """Countdown of phase ``index`` (repetition ``step``) on ``node``'s rack."""
        rack = (node // shape.rack_size
                if phases[index].scope is Scope.GROUP else None)
        if (index, rack, step) not in ids:
            ids[index, rack, step] = len(sizes)
            sizes.append(0)
        return ids[index, rack, step]

    def arrive(worker: int, barrier_id: int) -> None:
        sizes[barrier_id] += 1
        steps[worker].append((_ARRIVE, barrier_id))

    def wait(worker: int, step: tuple) -> None:
        if waited[worker] != step:
            waited[worker] = step
            steps[worker].append(step)

    def gate(worker: int, index: int) -> None:
        if index >= gate_from and not gated[worker]:
            gated[worker] = True
            steps[worker].append((_GATE,))

    def before_act(worker: int, index: int) -> None:
        before = phases[index - 1] if index else None
        if before is None or (before.kind is PhaseKind.FAN_OUT
                              and before.scope is Scope.GROUP):
            pass  # nothing to wait for: a rack's fetch hands over in place
        elif before.kind in _FABRIC_KINDS:
            wait(worker, (_AWAIT, index - 1))
        else:
            wait(worker, (_WAIT, barrier(index - 1, worker, rounds[index - 1] - 1)))
        gate(worker, index)

    for index, phase in enumerate(phases):
        kind = phase.kind
        tag = f"{kind.value}:{plan.unit.name}"
        if kind is PhaseKind.RING_STEP:
            first = barrier(index, 0)
            for step in range(rounds[index]):  # consecutive ids
                sizes[barrier(index, 0, step)] = len(workers)
            for worker in workers:
                before_act(worker, index)
                steps[worker].append((_RING, phase.nbytes, tag, first,
                                      rounds[index], phase.repeat // rounds[index]))
                waited[worker] = (_WAIT, first + rounds[index] - 1)
            continue
        groups = fan_groups(phase, shape, plan.owner)
        if kind is PhaseKind.BROADCAST:
            for _rack, hub, members in groups:
                before_act(hub, index)
                steps[hub].append(
                    (_BROADCAST, _SELF, members, phase.nbytes, tag))
                arrive(hub, barrier(index, hub))
            # Receivers per distinct (countdown, members): an all-to-all's
            # P groups are one entry, walked once, not P times.
            hubs: Dict[tuple, set] = {}
            for _rack, hub, members in groups:
                hubs.setdefault((barrier(index, hub), members), set()).add(hub)
            for (barrier_id, members), senders in hubs.items():
                for member in members:
                    if len(senders) > 1 or member not in senders:
                        gate(member, index)
                        wait(member, (_WAIT, barrier_id))
            continue
        inbound = kind in (PhaseKind.FAN_IN, PhaseKind.FABRIC_OUT)
        counted = kind is not PhaseKind.FAN_OUT or (
            phase.scope is Scope.ALL and index + 1 < len(phases))
        op = _SPAWN if phase.detached else _TRANSFER
        for _rack, hub, members in groups:
            for member in members:
                before_act(member, index)
                # A node's own copy is a free, eventless transfer (but a
                # detached one still costs its entries, as recorded).
                src, dst = (_SELF, hub) if inbound else (hub, _SELF)
                steps[member].append((op, src, dst, phase.nbytes, tag))
                if kind is PhaseKind.FABRIC_IN:
                    wait(member, (_AWAIT, index))
                elif counted:
                    arrive(member, barrier(index, member))
        if kind in _FABRIC_KINDS:
            shards.append((barrier(index, 0) if inbound else None,
                           phase.hub_bytes, f"shards/{tag}", index))
    shared: Dict[tuple, tuple] = {}
    return _UnitSteps(
        tuple(shared.setdefault(role, role) for role in map(tuple, steps)),
        tuple(sizes), tuple(shards))


#: Lowered plans; built on first DES use, never by ``resolve_plan``.  Keyed
#: on plans, so bounded as the plan memo is (it would keep them alive).
_LOWERED = Memo(registry_generation, limit=MEMO_PLANS)


class _UnitSyncState:
    """Shared per-unit synchronization bookkeeping for one sync round.

    One :class:`~repro.sim.CountdownEvent` per lowered barrier (each actor
    arrives once, and the barrier fires during the same dispatch in which
    the last member's completion would have), plus the ``started`` event
    that releases the unit's shard side.
    """

    __slots__ = ("steps", "started", "barriers", "shard_events")

    def __init__(self, env: Environment, steps: _UnitSteps):
        self.steps = steps
        self.started = Event(env)
        self.barriers = [CountdownEvent(env, count)
                         for count in steps.barriers]
        #: Completion of each fabric phase's shard side, by phase index.
        self.shard_events: Dict[int, Event] = {
            phase: Event(env) for *_, phase in steps.shards}


class _Round:
    """Unit states, backward-done events and sync joins of one sync round."""

    __slots__ = ("states", "backward_done", "sync_done")

    def __init__(self, env: Environment, lowered: Dict[str, _UnitSteps],
                 classes: List[Tuple[int, ...]]):
        self.states = {name: _UnitSyncState(env, steps)
                       for name, steps in lowered.items()}
        self.backward_done = [env.event() for members in classes
                              for _ in members]
        #: Each compute class's join of its members' unit syncs (a failing
        #: sync fails it, and with it the class).  A countdown of ``n >= 1``
        #: enqueues nothing, so building it before the class starts is free.
        self.sync_done = [env.countdown(len(lowered) * len(members))
                          for members in classes]


#: Sync-round horizon of a relaxed policy's run (see ``_run_rounds``).
_POLICY_WINDOWS = 8


class IterationSimulator:
    """Simulates training rounds of one system on one cluster: one BSP
    iteration, or a relaxed policy's rounds amortized to one."""

    def __init__(self, workload: IterationWorkload, cluster: ClusterConfig,
                 system: SystemConfig):
        #: Scheme, owner, payload and encode delay of every unit, resolved
        #: once; ``workload`` is the plan's (bucketed when the system asks).
        self.plan = resolve_plan(workload, system, cluster)
        self.workload = self.plan.workload
        self.schemes = self.plan.schemes
        #: Distinct shard hosts in id order: the order ``_fabric_fan`` books
        #: same-instant flows in must not rest on a set's hash layout.
        self.shard_nodes = tuple(sorted(set(cluster.server_nodes)))
        self.cluster_config = cluster
        self.system = system
        self.env = Environment()
        self.cluster = ClusterModel(self.env, cluster)
        self.num_workers = cluster.num_workers
        self._ran = False
        #: The first exception a shard side raised (``_shard_exit``).
        self._shard_error: Optional[BaseException] = None
        #: Workers the run stepped: all of them, or a symmetric plan's one.
        self.workers_stepped: Optional[int] = None

    # -- simulation ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the system and return per-iteration statistics.

        Every policy runs :meth:`_run_rounds`: a BSP-equivalent one
        (``bsp``, ``ssp(0)``, ``local_sgd(1)``) is its one-round case, a
        relaxed one (SSP, async, local SGD) several rounds whose workers
        advance their own clocks, gated only by the staleness bound.
        """
        if self._ran:
            raise SimulationError("IterationSimulator instances are single-use")
        self._ran = True  # on entry: a run that raised left the queue half-drained
        result = self._run_rounds()
        # Crash/recovery events are modelled by their expected cost: the
        # Young--Daly checkpoint/rework factor scales the iteration time
        # (identical closed form in the fluid engine, so the two engines
        # agree on this axis by construction).  1.0 at the defaults.
        factor = fault_overhead_factor(
            self.system.mtbf_seconds,
            self.system.checkpoint_interval_seconds,
            self.system.checkpoint_cost_seconds)
        if factor != 1.0:
            result = replace(
                result, iteration_seconds=result.iteration_seconds * factor)
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

    def _lowered(self, one_round: bool) -> Tuple[Dict[str, _UnitSteps], bool]:
        """The plan's lowered units, for one BSP round or a relaxed policy's,
        and whether the stepped workers are one compute class.

        A repeated phase (the ring's ``2(P-1)`` steps) is one hold per worker
        instead of one countdown round per step exactly when that is exact:
        every unit's schedule is the single ``RING_STEP`` phase, the run is
        one BSP round and every worker computes at the same speed.  Then the
        links (uplink of ``w``, downlink of ``w + 1``) are private FIFO
        servers fed at the same instants, and the slowest drains the same
        work either way (docs/architecture.md, "DES lowering of a repeated
        phase").  Observed, not a knob -- elsewhere one hold is wrong: it
        head-of-line-blocks a mixed plan's PS and SFB flows, lets fast
        workers run whole units ahead of a straggler, and hides the rotating
        slow set's per-step convoy under a relaxed policy.

        A *symmetric* plan comes back lowered to worker 0 alone (its step
        tuple, countdowns of one) and ``_run_rounds`` steps that representative
        for all ``P``: exact, because every flow holds channels of its own
        node only (a one-hold ring step its uplink and the downlink of
        ``w + 1``), fed the same bytes at the same instants on every node
        (docs/architecture.md, "DES lowering of a symmetric plan").  An
        all-to-all's copy ``k`` of each sender lands on a different node, so
        the representative books its copies on its own downlink and account,
        the proxy of each receiver's (``ClusterModel.broadcast(...,
        proxy=True)``).  The plan says whether its nodes are alike
        (``SyncPlan.node_symmetric``); the run adds its own conjuncts, each
        with the 16-node vgg19 point forced past it:

        * one BSP round -- more rounds rotate the slow set and gate each
          worker on its own clock: no representative to step;
        * one compute speed -- worker 0 is a straggler: same time, every
          GPU charged its kernels (0.25 x 2: busy fraction 0.519 -> 0.831);
        * a ring step only as the one hold -- a stepped ring step books the
          successor's downlink, which a mixed plan's other phases share;
        * one step tuple -- dropping workers ``1..P-1`` must lose nothing;
          no plan the other conjuncts admit fails it today.

        The stepped workers are one *compute class* (one record) when the
        run is one round at one speed and every kernel that follows a sync's
        start takes time (docs/architecture.md, "DES compute classes").
        """
        scales = {self._compute_scale(worker)
                  for worker in range(self.num_workers)}
        phases = [unit.phases for unit in self.plan.units]
        uniform = one_round and len(scales) == 1
        one_hold = uniform and all(
            [phase.kind for phase in unit] == [PhaseKind.RING_STEP]
            for unit in phases)
        symmetric = uniform and self.plan.node_symmetric and (
            one_hold or not any(phase.kind is PhaseKind.RING_STEP
                                for unit in phases for phase in unit))

        def lower() -> Dict[str, _UnitSteps]:
            lowered = {
                unit.unit.name: _lower_unit(unit, self.plan.shape, one_hold)
                for unit in self.plan.units}
            if symmetric and all(len(set(steps.workers)) == 1
                                 for steps in lowered.values()):
                lowered = {
                    name: replace(steps, workers=steps.workers[:1],
                                  barriers=tuple(min(size, 1)
                                                 for size in steps.barriers))
                    for name, steps in lowered.items()}
            return lowered

        one_class = uniform and all(unit.backward_seconds > 0
                                    for unit in self.workload.units[:-1])
        return _LOWERED.get((self.plan, one_hold, symmetric), lower), one_class

    def _run_to_result(self, computes: List["_ComputeClass"],
                       rounds: int) -> SimulationResult:
        """Drain the event queue; per-iteration figures over ``rounds`` steps.

        A shard side or compute class that raised surfaces as itself; a
        compute class still unfinished when the queue drained (its syncs
        wait on an event that can no longer fire) raises
        :class:`SimulationError` naming it.  A failure comes first: it is
        what leaves the other classes' syncs waiting.
        """
        self.env.run()
        if self._shard_error is not None:
            raise self._shard_error
        for compute in computes:
            if compute.ok is False:
                raise compute.value
        for compute in computes:
            if not compute.triggered:
                raise SimulationError(
                    f"compute class of workers {compute.members} did not "
                    f"finish: the event queue drained while it waited")
        makespan = max(compute.value for compute in computes)
        iteration_seconds = makespan / rounds

        machines = [self.cluster.machine(w) for w in range(self.num_workers)]
        if self.workers_stepped < self.num_workers:
            # Every node did what the representative did: its GPU time, the
            # bytes it sent and the bytes it delivered (a ring step's land on
            # the successor's NIC, an all-to-all's on its own) are each
            # node's own.
            sent = machines[0].nic.traffic
            received = max((machine.nic.traffic for machine in machines),
                           key=lambda account: account.bytes_received)
            for machine in machines:
                machine.gpu.busy_seconds = machines[0].gpu.busy_seconds
                machine.nic.traffic = replace(
                    sent, node_id=machine.node_id,
                    by_tag_sent=dict(sent.by_tag_sent),
                    bytes_received=received.bytes_received,
                    by_tag_received=dict(received.by_tag_received))
        busy = [machine.gpu.busy_seconds for machine in machines]
        gpu_busy_fraction = (sum(busy) / len(busy)) / makespan if busy else 0.0
        traffic = [
            self.cluster.machine(node).nic.traffic.total_bytes / rounds
            for node in sorted(self.cluster.machines)
        ]
        return simulation_result(self, iteration_seconds, gpu_busy_fraction,
                                 traffic)

    def _run_rounds(self) -> SimulationResult:
        """Simulate consecutive training rounds in one environment.

        A BSP-equivalent policy is one round.  A relaxed one syncs only
        every ``sync_period``-th round, and each worker is gated by the SSP
        bound alone (see ``_ComputeClass``).  Figures are the makespan and
        byte totals amortized over the rounds, so local SGD's wire volume
        scales as ``1/H`` and SSP's pipelining of communication under later
        rounds' compute shows up as reduced per-iteration time.
        """
        policy = self.system.policy
        period = policy.sync_period
        if policy.is_bsp_equivalent:
            rounds = 1
        else:
            staleness = policy.bound
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
        lowered, one_class = self._lowered(one_round=rounds == 1)
        # A symmetric plan came back as its representative: one worker, and
        # the shard sides gather and scatter on that worker's node.
        stepped = len(next(iter(lowered.values())).workers)
        self.workers_stepped = stepped
        if stepped < self.num_workers:
            self.shard_nodes = self.shard_nodes[:stepped]
        classes = ([tuple(range(stepped))] if one_class
                   else [(worker,) for worker in range(stepped)])
        # Indexed by round; ``rounds`` is a multiple of the period, so the
        # last round syncs.
        views = [_Round(self.env, lowered, classes)
                 if (r + 1) % period == 0 else None for r in range(rounds)]
        # Per unit, what a sync waits out before its first step: the local
        # multi-GPU reduction onto the leader GPU over PCIe (Section 5.1,
        # multi-GPU setting) and the compressor's encode pass (a plain
        # delay, not GPU occupancy: production stacks run it on side
        # streams or the CPU without stalling backprop).
        gpus = self.cluster_config.gpus_per_node
        self._preludes = {}
        for plan in self.plan.units:
            delays = ()
            if gpus > 1:
                delays += (units.transfer_seconds(
                    plan.unit.param_bytes * (gpus - 1),
                    self.cluster_config.gpu.pcie_bandwidth_bps),)
            if plan.encode_seconds > 0.0:
                delays += (plan.encode_seconds,)
            self._preludes[plan.unit.name] = delays
        #: Whether broadcasts book every copy on the sender's own downlink.
        self._proxy = stepped < self.num_workers
        computes = [_ComputeClass(self, join, members, views)
                    for join, members in enumerate(classes)]
        # Each round's shard sides start from one entry, behind the workers.
        for view in views:
            if view is not None:
                self.env.spawn((_ShardSide(self, state)
                                for state in view.states.values()
                                if state.steps.shards), self._shard_exit)
        return self._run_to_result(computes, rounds)

    def _shard_exit(self, ok: Optional[bool], value) -> None:
        """A shard side's ``on_exit``: keep the first failure for the run."""
        if ok is False and self._shard_error is None:
            self._shard_error = value

def _wait(record, event: Event) -> None:
    """Resume ``record`` when ``event`` fires -- from a thunk at this
    instant if it already has."""
    if event._waiter is None and event._waiters is None:
        if event.processed:
            ok, value = event.ok, event.value
            event.env.schedule_thunk(lambda: record(ok, value))
        else:
            event._waiter = record
    else:
        event.add_waiter(record)


class _ComputeClass(Event):
    """One compute class's rounds, a step record that succeeds with its
    makespan.

    Each round: the SSP gate, host staging, forward, each unit's backward
    kernel, then the tail; every kernel is computed once for all members.
    Each unit of a sync round starts its sync at each member as its
    backward kernel finishes (WFBP) or after the whole pass -- members in
    worker order.  After the last round it waits for the final sync round
    (the drain).  It is the waiter (``compute(ok, value)``) of the kernel
    or join it waits on; a failed join, or a step that raises, fails it.
    ``join`` indexes the class's joins in each round.
    """

    __slots__ = ("sim", "join", "members", "views", "gpu", "alike",
                 "backward", "kernels", "last", "start", "round", "kernel",
                 "scale")

    def __init__(self, sim: "IterationSimulator", join: int,
                 members: Tuple[int, ...], views: List[Optional[_Round]]):
        super().__init__(sim.env)
        self.sim = sim
        self.join = join
        self.members = members
        self.views = views
        self.gpu, *self.alike = [sim.cluster.machine(member).gpu
                                 for member in members]
        workload, system = sim.workload, sim.system
        self.backward = backward = workload.units[::-1]
        tail = workload.tail_backward_seconds
        #: One round's kernels, each with the units whose syncs start when
        #: it ends under WFBP: staging (unless overlapped), forward, each
        #: unit's backward kernel and a tail kernel.
        kernels = [(workload.forward_seconds, ())]
        if not system.overlap_host_copy:
            kernels.insert(0, (units.transfer_seconds(
                2 * workload.total_param_bytes,
                system.host_copy_bandwidth_bps), ()))
        kernels += [(unit.backward_seconds, (unit,)) for unit in backward]
        #: Under WFBP, the units whose syncs start at each member with its
        #: backward-done: the last one, unless a tail kernel comes between
        #: its kernel and the backward-done.
        self.last = ()
        if tail > 0:
            kernels.append((tail, ()))
        else:
            kernels[-1] = (kernels[-1][0], ())
            self.last = backward[-1:]
        self.kernels = kernels
        #: Of the current round (``round``): -1, the gate comes next;
        #: otherwise the next kernel to book.
        self.round = 0
        self.kernel = -1
        self.start = sim.env.now
        sim.env.schedule_thunk(self._start)

    def _start(self) -> None:
        self(True, None)

    def __call__(self, ok: Optional[bool], value) -> None:
        if ok is False:
            self.fail(value)
            return
        try:
            event = self._walk()
        except BaseException as exc:  # a step raised: the class fails
            self.fail(exc)
            return
        if event is None:
            self.succeed(self.env._now - self.start)
        else:
            _wait(self, event)

    def _start_syncs(self, view: _Round, workers, batch) -> None:
        """Start ``batch``'s syncs at ``workers``, from one queue entry."""
        sim = self.sim
        sim.env.spawn([_UnitSync(sim, worker, unit.name, view)
                       for worker in workers for unit in batch],
                      view.sync_done[self.join].arrive_with)

    def _walk(self) -> Optional[Event]:
        """Walk on until a wait: the event to wait on, or ``None`` once done."""
        sim, views, kernels = self.sim, self.views, self.kernels
        system = sim.system
        policy = system.policy
        peers = sim.num_workers > 1
        r, kernel = self.round, self.kernel
        while r < len(views):
            view = views[r]
            wfbp = view is not None and system.schedule is ScheduleMode.WFBP
            if kernel < 0:
                kernel = 0
                self.scale = sim._compute_scale(self.members[0], round_index=r)
                # SSP staleness gate: before computing round r, the sync of
                # the latest sync round at or before r - 1 - s (the last
                # multiple of the period at or before r - s, less one) must
                # have landed.  Fully asynchronous workers (staleness None)
                # never wait.
                if peers and policy.bound is not None:
                    gate = ((r - policy.bound) // policy.sync_period
                            * policy.sync_period - 1)
                    if gate >= 0:
                        self.round, self.kernel = r, kernel
                        return views[gate].sync_done[self.join]
            elif kernel and wfbp and kernels[kernel - 1][1]:  # one has ended
                self._start_syncs(view, self.members, kernels[kernel - 1][1])
            if kernel < len(kernels):
                self.round, self.kernel = r, kernel + 1
                return self.gpu.compute(kernels[kernel][0] * self.scale,
                                        self.alike)
            if view is not None:
                for member in self.members:
                    if wfbp and self.last:
                        self._start_syncs(view, (member,), self.last)
                    view.backward_done[member].succeed()
                    if not wfbp:
                        self._start_syncs(view, (member,), self.backward)
            r, kernel = r + 1, -1
        # Drain: the makespan must cover the final sync round's traffic,
        # otherwise relaxed policies would report communication as free.
        if peers and kernel < 0:
            self.round, self.kernel = r, 0
            return views[-1].sync_done[self.join]
        return None


class _UnitSync:
    """One unit's sync at one worker in one sync round: a step record.

    It holds the worker, the unit's round state, its lowered step tuple
    and a step index; it is the waiter (``sync(ok, value)``) of the event
    it waits on and walks its steps until it must wait again.  A flow step
    waits on the flow's completion event, unless the flow completed inline
    (a local copy, zero bytes).  A failed event ends the sync with that
    failure, and so does an exception raised by a step: the sync hands it
    to ``on_exit`` (its compute class's join).
    """

    __slots__ = ("sim", "worker", "round", "state", "steps", "prelude",
                 "index", "ring", "on_exit")

    def __init__(self, sim: "IterationSimulator", worker: int, name: str,
                 sync_round: _Round):
        self.sim = sim
        self.worker = worker
        self.round = sync_round
        self.state = state = sync_round.states[name]
        self.steps = state.steps.workers[worker]
        self.prelude = prelude = sim._preludes[name]
        #: Below 0, the prelude delays still to wait out (-1: none left).
        self.index = -1 - len(prelude)
        #: Half-rounds done in the current ring step.
        self.ring = 0

    def _start(self) -> None:
        if self.sim.num_workers == 1:
            self.on_exit(True, None)
        else:
            self(True, None)

    def __call__(self, ok: Optional[bool], value) -> None:
        if ok is False:
            self.on_exit(False, value)
            return
        index = self.index
        sim = self.sim
        try:
            if index < 0:
                if index < -1:
                    self.index = index + 1
                    sim.env.timeout(self.prelude[index + 1])._waiter = self
                    return
                started = self.state.started
                if not started.triggered:
                    started.succeed()
                index = 0
            steps = self.steps
            count = len(steps)
            while index < count:
                step = steps[index]
                op = step[0]
                index += 1
                if op == _TRANSFER:
                    src, dst = step[1], step[2]
                    done = sim.cluster.transfer(
                        self.worker if src == _SELF else src,
                        self.worker if dst == _SELF else dst, step[3], step[4])
                    if done is not None:
                        self.index = index
                        done._waiter = self  # a fresh flow: no waiter yet
                        return
                elif op == _ARRIVE:
                    self.state.barriers[step[1]].arrive()
                elif op == _WAIT:
                    self.index = index
                    _wait(self, self.state.barriers[step[1]])
                    return
                elif op == _RING:
                    # (send to the successor, arrive, wait for the round),
                    # ``rounds`` times: ``ring`` counts the halves done.
                    _, nbytes, tag, first, rounds, holds = step
                    half = self.ring
                    if half == 2 * rounds:
                        self.ring = 0
                        continue
                    self.ring = half + 1
                    self.index = index - 1  # this step again after the wait
                    worker = self.worker
                    if half % 2 == 0:
                        done = sim.cluster.transfer(
                            worker, (worker + 1) % sim.num_workers,
                            nbytes, tag, holds)
                        if done is not None:
                            done._waiter = self
                            return
                        index -= 1
                    else:
                        barrier = self.state.barriers[first + half // 2]
                        barrier.arrive()
                        _wait(self, barrier)
                        return
                elif op == _GATE:
                    if not sim.system.overlap_pull:
                        self.index = index
                        _wait(self, self.round.backward_done[self.worker])
                        return
                elif op == _AWAIT:
                    self.index = index
                    _wait(self, self.state.shard_events[step[1]])
                    return
                elif op == _BROADCAST:
                    done = sim.cluster.broadcast(
                        self.worker if step[1] == _SELF else step[1], step[2],
                        step[3], step[4], sim._proxy)
                    if done is not None:
                        self.index = index
                        done._waiter = self
                        return
                else:  # _SPAWN
                    src, dst = step[1], step[2]
                    self.index = index
                    _wait(self, _Detached(
                        sim.cluster, self.worker if src == _SELF else src,
                        self.worker if dst == _SELF else dst, step[3], step[4]))
                    return
        except BaseException as exc:  # a step raised: the sync fails
            self.on_exit(False, exc)
            return
        self.on_exit(True, None)


class _Detached(Event):
    """A detached fetch (``Phase.detached``): the flow is booked from a
    bootstrap entry of its own, and this event succeeds in a completion
    entry of its own once the flow has finished -- the entries of a fetch
    run as its own task."""

    __slots__ = ("cluster", "args")

    def __init__(self, cluster: ClusterModel, *args):
        super().__init__(cluster.env)
        self.cluster = cluster
        self.args = args
        cluster.env.schedule_thunk(self._start)

    def _start(self) -> None:
        try:
            done = self.cluster.transfer(*self.args)
        except BaseException as exc:
            self.fail(exc)
            return
        if done is None:
            self.succeed()
        else:
            done._waiter = self

    def __call__(self, ok: Optional[bool], value) -> None:
        self.succeed()


class _ShardSide:
    """Shard side of a unit's fabric phases in one sync round: once the
    unit has started, gather and fire each pushed phase's event when its
    barrier has; scatter, and the scatter's finish is the phase's event."""

    __slots__ = ("sim", "state", "index", "stage", "on_exit")

    def __init__(self, sim: "IterationSimulator", state: _UnitSyncState):
        self.sim = sim
        self.state = state
        self.index = 0
        #: Of a pushed phase: 0 gather next, 1 wait for the pushes, 2 fire.
        self.stage = 0

    def _start(self) -> None:
        _wait(self, self.state.started)

    def __call__(self, ok: Optional[bool], value) -> None:
        if ok is False:
            self.on_exit(False, value)
            return
        sim, state = self.sim, self.state
        shards = state.steps.shards
        index = self.index
        try:
            while index < len(shards):
                pushed, nbytes, tag, phase = shards[index]
                if pushed is None:
                    state.shard_events[phase] = sim.cluster.fabric_scatter(
                        sim.shard_nodes, nbytes, tag=tag)
                elif self.stage == 0:
                    self.index, self.stage = index, 1
                    _wait(self, sim.cluster.fabric_gather(
                        sim.shard_nodes, nbytes, tag=tag))
                    return
                elif self.stage == 1:
                    self.index, self.stage = index, 2
                    _wait(self, state.barriers[pushed])
                    return
                else:
                    self.stage = 0
                    state.shard_events[phase].succeed()
                index += 1
        except BaseException as exc:  # the shard side fails
            self.on_exit(False, exc)
            return
        self.on_exit(True, None)


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
