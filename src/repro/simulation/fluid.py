"""Fluid-mode analytic simulator: closed-form iteration times, no event loop.

The discrete-event simulator in :mod:`repro.simulation.throughput` walks one
event graph per (model, system, bandwidth, nodes, oversubscription) point,
which keeps a 10k-node sweep in minutes territory.  This module computes the
same per-iteration quantity by *replaying the DES booking arithmetic
directly*: every flow primitive of :mod:`repro.cluster.machine` collapses to
busy-tail bookkeeping (PR 3's tail-clock channels), so the iteration time is
a deterministic composition of ``max``/``+`` over per-NIC and per-rack-wire
busy intervals -- pure arithmetic over the :class:`IterationWorkload` unit
list, anchored at each unit's backward-done time (WFBP) exactly like the
event-driven model.

Two fidelity tiers share one phase structure:

* **detail** (``num_workers`` <= :data:`DETAIL_NODE_MAX`): per-node tail
  clocks, with single-source fans and SFB broadcast convoys chained copy by
  copy through a time-ordered phase heap so concurrent units interleave on
  shared channels in DES request order.  A node-symmetric plan
  (``SyncPlan.node_symmetric``, the value the DES steps one worker on)
  books node 0 alone, its all-to-all one sender.  On flat topologies the
  fabric (PS, 1-bit) and ring phases reproduce the DES to float precision;
  the convoys, owner fans and leader trees do not replay the DES's
  same-instant interleaving with other units' flows, and miss it by a
  measured, unbounded amount (flat VGG19 at 1 GbE: SFB / HybComm -26 %
  at 8 nodes, hierarchical PS -12 %).  Under rack oversubscription the
  channels' FIFO/head-of-line coupling is approximated by
  work-conserving fluid shares (see PERFORMANCE.md, "Exactness
  envelope", for both).
* **aggregate** (above :data:`DETAIL_NODE_MAX`): node-symmetric class
  clocks and *rack classes*.  Racks that share a profile (members and
  cross-rack share) and a booking history are one class with one wire
  clock per direction; a booking addressed to one rack (an owner's) splits
  that rack off first.  A unit phase costs one heap pop and a loop over a
  handful of classes at any rack count -- what makes interactive
  1k-10k-node what-if sweeps possible.  Both tiers are scalar engines
  (every clock a plain float), so :func:`sweep_axis` is one pass per axis
  element, each popping its phases in its own order: point-by-point
  evaluation by construction.

Which scheme, owner, payload and schedule each unit has comes from the
resolved :class:`~repro.simulation.plan.SyncPlan` -- the same value the DES
reads.  Both tiers are one driver over the unit's declared
:class:`~repro.comm.backend.Phase` tuple (:meth:`FluidSimulator._drive`):
the driver alone decides when a phase starts, and one booking function per
phase *kind* and tier puts its flows on the busy clocks.  A result's
per-node traffic is the plan's :func:`~repro.simulation.plan.node_traffic`
fold over the same phases.  Nothing here knows a scheme by name or prices
a payload.

Engine selection is shared with the figure/sweep layers through
:func:`resolve_engine`: ``"des"`` (default, byte-identical reports),
``"fluid"``, or ``"auto"`` -- fluid at or above
:data:`FLUID_NODE_THRESHOLD` workers, the exact DES below it, which is also
where the fluid approximation under oversubscription is weakest.
"""

from __future__ import annotations

import heapq
import numbers
from collections import Counter
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.comm.backend import Peers, Phase, PhaseKind, Scope
from repro.config import ClusterConfig, ScheduleMode, SystemConfig
from repro.core.faults import fault_overhead_factor, straggler_excess_seconds
from repro.exceptions import ConfigurationError
from repro.nn.spec import ModelSpec
from repro.simulation.plan import (
    UnitPlan,
    fan_groups,
    node_traffic,
    resolve_plan,
)
from repro.simulation.throughput import simulation_result
from repro.simulation.workload import IterationWorkload, build_workload

__all__ = [
    "ENGINES",
    "FLUID_NODE_THRESHOLD",
    "DETAIL_NODE_MAX",
    "FluidSimulator",
    "resolve_engine",
    "session_engine",
    "simulate_fluid",
    "sweep_axis",
    "use_engine",
]

#: Recognised values of the ``engine`` parameter across the public API.
ENGINES: Tuple[str, ...] = ("des", "fluid", "auto")

#: ``engine="auto"`` switches from the exact DES to the fluid engine at
#: this many workers: below it the DES is fast and the fluid approximation
#: of FIFO rack contention is at its weakest; above it the DES walk is the
#: bottleneck and the fluid tiers take over.
FLUID_NODE_THRESHOLD: int = 64

#: Largest cluster the per-node detail tier replays (an SFB convoy is
#: O(N^2) copies per unit on a plan that is not node-symmetric, O(N) on one
#: that is); beyond it the aggregate tier's symmetric class clocks are used.
DETAIL_NODE_MAX: int = 128

_SESSION_ENGINE: str = "des"


def session_engine() -> str:
    """The engine used when call sites pass ``engine=None``."""
    return _SESSION_ENGINE


@contextmanager
def use_engine(engine: str) -> Iterator[None]:
    """Temporarily change the session default engine (runner ``--engine``)."""
    global _SESSION_ENGINE
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    previous = _SESSION_ENGINE
    _SESSION_ENGINE = engine
    try:
        yield
    finally:
        _SESSION_ENGINE = previous


def resolve_engine(engine: Optional[str], num_workers: int) -> str:
    """Resolve an ``engine`` argument to ``"des"`` or ``"fluid"``.

    ``None`` defers to the session default (``"des"`` unless a
    :func:`use_engine` context is active); ``"auto"`` picks fluid at or
    above :data:`FLUID_NODE_THRESHOLD` workers and the DES below it.

    Raises:
        ConfigurationError: on any unrecognised engine name.
    """
    engine = session_engine() if engine is None else engine
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "auto":
        return "fluid" if num_workers >= FLUID_NODE_THRESHOLD else "des"
    return engine


class FluidSimulator:
    """Closed-form replay of one BSP training iteration.

    Mirrors :class:`~repro.simulation.throughput.IterationSimulator`'s
    contract (same workload/cluster/system inputs, same
    :class:`~repro.simulation.throughput.SimulationResult` output) without
    instantiating an event loop.

    Args:
        workload: per-layer compute/communication workload.
        cluster: cluster shape; ``racks``/``oversubscription`` select the
            topology-aware path exactly as in the DES.
        system: system descriptor (schedule, partitioning, comm mode).
        mode: ``"auto"`` (detail up to :data:`DETAIL_NODE_MAX`, aggregate
            beyond), or force ``"detail"``/``"aggregate"`` -- the latter is
            how the two tiers are cross-validated against each other.
        background_jobs: number of *additional* identical jobs contending
            for the same rack uplinks (multi-job what-if mode): every rack
            wire hold is stretched by ``1 + background_jobs`` -- symmetric
            fluid sharing of the uplink aggregate -- while NIC-level terms
            stay per-job (jobs run on disjoint nodes).
    """

    def __init__(self, workload: IterationWorkload, cluster: ClusterConfig,
                 system: SystemConfig, mode: str = "auto",
                 background_jobs: int = 0):
        if mode not in ("auto", "detail", "aggregate"):
            raise ConfigurationError(
                f"unknown fluid mode {mode!r}; "
                "expected 'auto', 'detail' or 'aggregate'")
        # Whole (numpy ints too): never truncated or clamped.
        if not isinstance(background_jobs, numbers.Integral) \
                or background_jobs < 0:
            raise ConfigurationError(
                f"background_jobs must be an integer >= 0, "
                f"got {background_jobs!r}")
        #: Scheme, owner, payload and encode delay of every unit, resolved
        #: once; ``workload`` is the plan's (bucketed when the system asks).
        self.plan = resolve_plan(workload, system, cluster)
        self.workload = self.plan.workload
        self.schemes = self.plan.schemes
        self.cluster_config = cluster
        self.system = system
        self.num_workers = cluster.num_workers
        self.lam = cluster.latency_seconds
        self.topo = not cluster.is_flat_topology
        self.jobs_factor = 1 + int(background_jobs)
        if self.topo:
            # Rack uplink aggregate = node_bw * members / oversubscription;
            # kept as a ratio so a sweep that swaps bandwidth_bps sees the
            # uplink scale with it.
            members = min(cluster.nodes_per_rack, self.num_workers)
            self._rack_scale = members / cluster.oversubscription
            self.nracks = cluster.racks
        else:
            self._rack_scale = float("inf")
            self.nracks = 1
        # A cross-rack flow runs at the slower of NIC and rack wire.
        self._bottleneck = min(1.0, self._rack_scale)
        detail = self.num_workers <= DETAIL_NODE_MAX
        self.detail = detail if mode == "auto" else (mode == "detail")
        self.bandwidth_bps = cluster.effective_bandwidth_bps
        # Rack profiles (``_profile``) by arithmetic, so the aggregate tier
        # holds no per-rack list: full racks, a part-filled one, then racks
        # of dedicated servers only.
        per_rack = cluster.nodes_per_rack
        full, rest = divmod(self.num_workers, per_rack)
        self._fill = (per_rack, full, rest)
        #: Aggregate tier: racks per distinct ``(members, cross)`` profile,
        #: the rack classes every pass starts from.
        self._profiles: Counter = Counter()
        for rack, count in ((0, min(full, self.nracks)),
                            (full, full < self.nracks),
                            (full + 1, self.nracks - full - 1)):
            if count > 0:
                self._profiles[self._profile(rack)] += count
        #: Detail tier: every node's rack and every rack's cross share, a
        #: list lookup per booking; the aggregate tier only asks for the
        #: owners' racks (contiguous blocks of ``per_rack`` node ids).
        if self.detail:
            self._rack = [self._rack_of(node)
                          for node in range(cluster.num_nodes)]
            self._cross = [self._profile(rack)[1]
                           for rack in range(self.nracks)]
        else:
            self._rack = {plan.owner: plan.owner // per_rack if self.topo
                          else 0 for plan in self.plan.units}
        # What no bandwidth changes, derived once: backward-done of the
        # whole iteration, and the phase heap every pass starts from -- each
        # unit's driver at its send time (its own backward-done under WFBP,
        # else the iteration's, delayed by the compressor's encode pass
        # exactly like the DES's pre-dispatch timeout).
        w = self.workload
        self._compute_end = (w.forward_seconds
                             + sum(u.backward_seconds for u in w.units)
                             + w.tail_backward_seconds)
        seq_mode = system.schedule is not ScheduleMode.WFBP
        bookers = self._DETAIL if self.detail else self._AGGREGATE
        self._first_events: List[tuple] = []
        t = w.forward_seconds
        for unit, unit_plan in enumerate(reversed(self.plan.units)):
            t += unit_plan.unit.backward_seconds
            ready = self._compute_end if seq_mode else t
            if unit_plan.encode_seconds > 0.0:
                ready = ready + unit_plan.encode_seconds
            schedule = tuple((phase, bookers[phase.kind])
                             for phase in unit_plan.phases)
            self._first_events.append(
                (ready, unit, self._drive(unit, unit_plan, schedule)))
        heapq.heapify(self._first_events)

    # -- shared arithmetic ---------------------------------------------------
    def _tn(self, nbytes: float) -> float:
        """NIC-rate transfer time of one flow (matches the DES's tn)."""
        return units.bytes_to_bits(nbytes) / self.bandwidth_bps + self.lam

    def _tfs(self, nbytes: float) -> float:
        """Cross-rack flow service time: the slower of NIC and rack wire."""
        return (units.bytes_to_bits(nbytes)
                / (self.bandwidth_bps * self._bottleneck) + self.lam)

    def _wire(self, nbytes: float) -> float:
        """Rack-switch wire hold at the rack uplink's aggregate goodput
        (infinite on a flat network); multi-job contention stretches it."""
        return (units.bytes_to_bits(nbytes)
                / (self.bandwidth_bps * self._rack_scale)) * self.jobs_factor

    def _rack_of(self, node: int) -> int:
        return self.cluster_config.rack_of(node) if self.topo else 0

    def _profile(self, rack: int) -> Tuple[int, float]:
        """``(members, cross)`` of ``rack``: its workers, and the share of a
        member's fabric traffic that leaves it (none on a flat network)."""
        per_rack, full, rest = self._fill
        members = per_rack if rack < full else rest if rack == full else 0
        return members, ((self.num_workers - members) * self.topo
                         / max(1, self.num_workers - 1))

    # -- result assembly -----------------------------------------------------
    def run(self):
        """Compute the iteration and wrap it like the DES does."""
        iteration_seconds = self.iteration_seconds()
        return simulation_result(
            self, iteration_seconds,
            self.workload.compute_seconds / iteration_seconds,
            self._per_node_traffic())

    def _per_node_traffic(self) -> List[float]:
        """Sent+received bytes per node (Figure 10 accounting): the plan's
        :func:`~repro.simulation.plan.node_traffic` fold, the figures the
        DES measures at its NICs."""
        totals = node_traffic(self.plan, self.cluster_config)
        if self.system.policy.sync_period > 1:
            # Local SGD syncs every H-th round: per-iteration wire volume
            # amortizes to 1/H of the BSP figure.
            totals = [t / self.system.policy.sync_period for t in totals]
        return totals

    def iteration_seconds(self, bandwidth_bps: Optional[float] = None
                          ) -> float:
        """Length of one BSP iteration; the core closed-form evaluation.

        ``bandwidth_bps``, one NIC goodput, re-evaluates the iteration at it
        (and stays the simulator's bandwidth).  A sweep is one call per
        axis element (:func:`sweep_axis`): every clock is a plain float.

        Raises:
            ConfigurationError: on an array of bandwidths, before the
                simulator is touched.
        """
        if bandwidth_bps is not None:
            if isinstance(bandwidth_bps, np.ndarray):
                raise ConfigurationError(
                    "iteration_seconds takes one bandwidth; sweep_axis "
                    "evaluates an axis")
            self.bandwidth_bps = float(bandwidth_bps)
        compute_end = self._compute_end
        if self.num_workers <= 1:
            return self._apply_faults(compute_end, compute_end)
        events = self._events = list(self._first_events)
        self._seq = len(events)
        self._completions: List[float] = []
        self._joins: Dict[Tuple[int, int], list] = {}
        self._init_clocks()
        while events:
            when, _seq, fn = heapq.heappop(events)
            fn(when)
        result = max(compute_end, *self._completions)
        return self._apply_faults(self._apply_policy(result, compute_end),
                                  compute_end)

    def _apply_policy(self, total, compute):
        """Rescale one BSP iteration for the system's execution semantics.

        Under a BSP-equivalent policy the BSP figure passes through
        untouched (byte-identical sweeps).  For relaxed policies the
        transform works on the *exposed* (non-hidden) communication time per
        round:

        - local SGD amortizes the sync over ``sync_period`` rounds, so the
          exposed share shrinks by ``1/H``;
        - SSP hides the remaining exposure under up to ``staleness``
          subsequent compute rounds;
        - fully asynchronous execution (no staleness bound) is the
          staleness limit: per-round time is the larger of compute and the
          NIC-serialized exposure.

        Every relaxed figure is floored at the exposed time itself -- the
        NIC must still serialize the sync bytes, however deep the
        pipeline -- which also makes throughput monotone in the staleness
        bound and continuous at ``s == 0``.
        """
        policy = self.system.policy
        if policy.is_bsp_equivalent:
            return total
        staleness, period = policy.bound, policy.sync_period
        exposed = (total - compute) / period
        if staleness is None:
            return max(compute, exposed)
        hidden = compute + max(0.0, exposed - staleness * compute)
        return max(hidden, exposed)

    def _apply_faults(self, total, compute):
        """Add the closed-form fault environment on top of one iteration.

        Under the defaults (no stragglers, no MTBF, no checkpointing) the
        figure passes through untouched -- byte-identical sweeps.
        Otherwise two effects stack:

        - the expected straggler excess per iteration
          (:func:`repro.core.faults.straggler_excess_seconds`): a barrier
          pays the slowest worker's full excess, async only the mean, and
          ssp(s) interpolates between them;
        - the checkpoint/restart expected-overhead factor
          (:func:`repro.core.faults.fault_overhead_factor`), evaluated at
          the configured interval or its Young--Daly optimum.
        """
        system = self.system
        if (system.straggler_fraction == 0.0
                and system.straggler_factor == 1.0
                and system.mtbf_seconds is None
                and system.checkpoint_interval_seconds is None
                and system.checkpoint_cost_seconds == 0.0):
            return total
        excess = straggler_excess_seconds(
            compute, system.straggler_fraction, system.straggler_factor,
            self.num_workers,
            staleness=system.policy.staleness,
            is_async=system.policy.bound is None)
        factor = fault_overhead_factor(
            system.mtbf_seconds, system.checkpoint_interval_seconds,
            system.checkpoint_cost_seconds)
        return (total + excess) * factor

    # -- phase heap ----------------------------------------------------------
    # Phases are booked at their DES request times (push at the unit's
    # ready, pull at all_sent/aggregated, ...) so bookings from different
    # units land on the shared busy clocks in the same order the
    # event-driven simulator issues them; ties pop in push order.
    def _at(self, when: float, fn: Callable) -> None:
        heapq.heappush(self._events, (when, self._seq, fn))
        self._seq += 1

    def _pull_call(self, call: float) -> float:
        """The one gate: parameter traffic waits for backward-done unless
        the system overlaps pulls."""
        if self.system.overlap_pull:
            return call
        return max(call, self._compute_end)

    # -- the phase driver ----------------------------------------------------
    def _drive(self, unit: int, plan: UnitPlan,
               schedule: Tuple[Tuple[Phase, Callable], ...]) -> Callable:
        """One unit's driver: the only code that sequences its phases.

        ``schedule`` pairs each phase with its booker (one per phase kind
        and tier, ``_DETAIL`` / ``_AGGREGATE``).  Bookers put one phase's
        flows on the clocks from ``call`` and report ``done(rack,
        finish)``; they never start a successor.  Phase ``k + 1`` starts
        -- through the gate if it is gated -- when phase ``k`` reports
        done: per rack under :attr:`Scope.GROUP`, else once every rack (or
        the one whole-phase booking) has.  The tiers differ
        in when a phase re-enters the phase heap: the detail tier at every
        phase start, so bookings of different units land on the per-node
        clocks in request order; the aggregate tier (no racks to join) only
        at a gated phase -- an ungated successor is booked in the same slot,
        the hub's class clock already carrying the intermediate finish.

        Built once per simulator; returns the entry point ``start(call)``.
        What a pass changes -- clocks, heap, and the joins of per-rack
        reports (``self._joins``, keyed by unit and phase) -- lives on the
        simulator.
        """
        def run(index: int, rack: Optional[int], call) -> None:
            if index == len(schedule):
                self._completions.append(call)
                return
            phase, booker = schedule[index]
            done = reports[index]
            if phase.gated or (index and self.detail):
                self._at(self._pull_call(call) if phase.gated else call,
                         lambda when: booker(self, plan, phase, rack, when,
                                             done))
            else:  # the unit's ready time already is a heap hop
                booker(self, plan, phase, rack, call, done)

        def report(index: int, phase: Phase) -> Callable:
            def done(group: Optional[int], fin) -> None:
                # A whole-phase booking (``group is None``) is its own join.
                if (group is not None and phase.scope is Scope.ALL
                        and index + 1 < len(schedule)):
                    pending = self._joins.setdefault(
                        (unit, index), [self.plan.shape.num_racks, fin])
                    pending[0] -= 1
                    pending[1] = max(pending[1], fin)
                    if pending[0]:
                        return
                    group, fin = None, pending[1]
                run(index + 1, group, fin)
            return done

        reports = [report(index, phase)
                   for index, (phase, _booker) in enumerate(schedule)]
        return partial(run, 0, None)

    # -- clock state ---------------------------------------------------------
    def _init_clocks(self) -> None:
        if self.detail:
            # A node-symmetric plan books node 0 alone: every node's clocks
            # would read the same.
            nodes = (1 if self.plan.node_symmetric
                     else self.cluster_config.num_nodes)
            self.up, self.down = [0.0] * nodes, [0.0] * nodes
            self.rku, self.rkd = [0.0] * self.nracks, [0.0] * self.nracks
            self.ring_clock = 0.0
            return
        # Node-symmetric class clocks: one up/down pair stands in for the
        # (statistically identical) worker NICs.  The rack wires start as
        # one class per profile; rku[k] / rkd[k] is class k's clock,
        # _class_profile[k] its (members, cross) and _class_racks[k] how
        # many racks it holds.  _alone maps a rack split off to its class.
        self.up, self.down, self.ring_clock = [0.0], [0.0], 0.0
        self._class_profile = list(self._profiles)
        self._class_racks = list(self._profiles.values())
        self.rku = [0.0] * len(self._class_profile)
        self.rkd = [0.0] * len(self._class_profile)
        self._alone: Dict[int, int] = {}

    # ========================================================================
    # detail tier: per-node replay of the DES bookings
    # ========================================================================
    # A scalar engine: every clock, call time and hold is a plain Python
    # float and "latest of" is the builtin ``max`` -- one heap hop per copy
    # leaves no room for a numpy dispatch per booking.  A phase's holds
    # depend on its bytes and the bandwidth only, so each booker computes
    # them once and hands them to the per-flow primitives.
    def _holds(self, nbytes: float) -> Tuple[float, float, float]:
        """One flow's NIC-rate time, cross-rack service time and wire hold."""
        return self._tn(nbytes), self._tfs(nbytes), self._wire(nbytes)

    def _flow(self, src: int, dst: int, nbytes: float, call, tn, fs, wr):
        """Point-to-point transfer between two nodes; returns its finish."""
        if src == dst or nbytes <= 0:
            return call
        rs, rd = self._rack[src], self._rack[dst]
        if rs == rd:
            fin = max(call, self.up[src], self.down[dst]) + tn
            self.up[src] = self.down[dst] = fin
            return fin
        # Source-side coupling: the DES acquires nic.up < rack.up <
        # rack.down < nic.down holding earlier channels while queueing at
        # later ones; the source NIC and the rack wires form the dominant
        # head-of-line chain, while the receiver downlink drains as an
        # independent work-conserving share.
        t = max(call, self.up[src], self.rku[rs], self.rkd[rd])
        self.up[src] = t + fs
        self.rku[rs] = self.rkd[rd] = t + wr
        td = max(t, self.down[dst])
        self.down[dst] = td + fs
        return max(t + wr, td + fs)

    def _fabric(self, nodes: Sequence[int], nbytes: float, call,
                outbound: bool, coupled: bool):
        """Every node's flow into (or out of) the KV fabric; the last finish.

        ``coupled`` is a worker's push or pull, which holds its NIC and its
        rack's wire together; the shards' side books the two independently.
        """
        nic, rkc = (self.up, self.rku) if outbound else (self.down, self.rkd)
        tn = self._tn(nbytes)
        # Per rack: the bytes of one member's flow that leave it, their hold.
        cross = [nbytes * share for share in self._cross]
        wire = [self._wire(leaving) for leaving in cross]
        fin = call
        for node in nodes:
            rack = self._rack[node]
            if cross[rack] <= 0.0:
                nic[node] = t = max(call, nic[node]) + tn
            elif coupled:
                t = max(call, nic[node], rkc[rack])
                nic[node] = t + tn
                rkc[rack] = t + wire[rack]
                t += max(tn, wire[rack])
            else:
                nic[node] = t = max(call, nic[node]) + tn
                rkc[rack] = tr = max(call, rkc[rack]) + wire[rack]
                t = max(t, tr)
            fin = max(fin, t)
        return fin

    def _copy(self, src: int, dst: int, when, tn, fs, wr):
        """One copy of a batch whose sender already holds its uplink."""
        rs, rd = self._rack[src], self._rack[dst]
        if rs != rd:
            tr = max(when, self.rku[rs], self.rkd[rd])
            self.rku[rs] = self.rkd[rd] = tr + wr
            td = max(tr, self.down[dst])
            self.down[dst] = td + fs
            return max(tr + wr, td + fs)
        fin = max(when, self.down[dst]) + tn
        self.down[dst] = fin
        return fin

    # -- one booker per phase kind (detail) ----------------------------------
    # ``book(plan, phase, rack, call, done)`` books the phase on every rack,
    # or on ``rack`` only, and reports once per rack (``None`` for a phase
    # booked as a whole).  Copies that chain through the phase heap stay
    # inside their booker, one cursor per sender.
    def _book_fabric(self, plan: UnitPlan, phase: Phase, rack, call,
                     done: Callable) -> None:
        """Workers against the KV fabric, the shards the other way."""
        outbound = phase.kind is PhaseKind.FABRIC_OUT
        shards, workers = ((range(1), range(1)) if self.plan.node_symmetric
                           else (self.cluster_config.server_nodes,
                                 range(self.num_workers)))
        fin = self._fabric(shards, phase.hub_bytes, call, not outbound,
                           coupled=False)
        done(None, max(fin, self._fabric(workers, phase.nbytes, call,
                                         outbound, coupled=True)))

    def _book_fan_in(self, plan: UnitPlan, phase: Phase, rack, call,
                     done: Callable) -> None:
        """Every sender's flow into its hub's downlink, all requested at once."""
        holds = self._holds(phase.nbytes)
        for group, hub, members in fan_groups(phase, self.plan.shape,
                                              plan.owner, rack):
            done(group, max([call] + [
                self._flow(member, hub, phase.nbytes, call, *holds)
                for member in members]))

    def _book_fan_out(self, plan: UnitPlan, phase: Phase, rack, call,
                      done: Callable) -> None:
        """A hub's fetches, each chained at its uplink's release.

        Each copy books its rack/receiver channels at the time the hub's
        NIC actually frees for it (its DES request time), so concurrent
        fans from different units interleave on shared channels instead of
        one fan's bookings ratcheting the busy tails past the other's.
        """
        (group, hub, members), = fan_groups(phase, self.plan.shape,
                                            plan.owner, rack)
        # A whole fan scoped per rack reports each copy as its rack's finish.
        per_rack = phase.scope is Scope.GROUP and group is None
        rack_size = self.plan.shape.rack_size
        holds = self._holds(phase.nbytes)
        i, latest = 0, call

        def step(when) -> None:
            nonlocal i, latest
            while i < len(members):
                member = members[i]
                fin = self._flow(hub, member, phase.nbytes, when, *holds)
                latest = max(latest, fin)
                if per_rack:
                    done(member // rack_size, fin)
                i += 1
                # The hub's own copy is free; it still takes its turn on
                # the heap when it reports a rack of its own.
                if (member != hub or per_rack) and i < len(members):
                    self._at(max(when, self.up[hub]), step)
                    return
            if not per_rack:
                done(group, latest)

        step(call)

    def _book_broadcast(self, plan: UnitPlan, phase: Phase, rack, call,
                        done: Callable) -> None:
        """Batches of copies, each batch holding its hub's uplink throughout.

        Every batch walks its receivers starting after its sender, as the
        DES broadcast does: copy ``k`` of sender ``s`` goes to ``(s + 1 +
        k) mod P``.  An all-to-all (every worker a hub) is a convoy: each
        sender's copies chain through the phase heap so the P batches
        interleave on the receivers' downlinks in request order.  On a
        node-symmetric plan sender 0 alone runs, booking its copies on its
        own downlink, the proxy of each receiver's (as the DES's
        representative does).  A single hub's batch is booked in one go.
        """
        tn, fs, wr = self._holds(phase.nbytes)
        up, copy, at = self.up, self._copy, self._at
        if phase.src is not Peers.WORKERS:
            nodes = len(self.up)
            for group, hub, members in fan_groups(phase, self.plan.shape,
                                                  plan.owner, rack):
                cur = call
                if len(members) > 1:
                    cur = max(call, up[hub])
                    for member in sorted(members,
                                         key=lambda dst: (dst - hub) % nodes):
                        if member != hub:
                            cur = copy(hub, member, cur, tn, fs, wr)
                    up[hub] = max(up[hub], cur)
                done(group, cur)
            return
        n = self.num_workers
        proxy = self.plan.node_symmetric
        senders, latest = 1 if proxy else n, call
        flat, down, events = not self.topo, self.down, self._events

        def sender(s: int) -> Callable:
            sent = 0  # the cursor: copies of this batch already booked

            def fire(when) -> None:
                nonlocal sent, senders, latest
                if not sent:
                    # batch uplink hold: queue behind the sender's prior
                    # holds (the DES broadcast claims the uplink once for
                    # the whole batch)
                    when = max(when, up[s])
                dst = s if proxy else (s + 1 + sent) % n
                if flat:  # _copy within one rack, inline
                    busy = down[dst]
                    fin = down[dst] = (busy if busy > when else when) + tn
                else:
                    fin = copy(s, dst, when, tn, fs, wr)
                sent += 1
                if sent + 1 < n:  # _at, inline
                    heapq.heappush(events, (fin, self._seq, fire))
                    self._seq += 1
                    return
                up[s] = fin  # batch uplink hold ends
                senders -= 1
                latest = max(latest, fin)
                if not senders:
                    done(None, latest)
            return fire

        for s in range(senders):  # before any copy fires
            at(max(call, up[s]), sender(s))

    def _book_ring(self, plan: UnitPlan, phase: Phase, rack, call,
                   done: Callable) -> None:
        """Lockstep ring steps: a full-cluster barrier on every clock."""
        start = max(call, self.ring_clock, max(self.up), max(self.down))
        fin = start + phase.repeat * self._tfs(phase.nbytes)
        self.ring_clock = fin
        self.up[:] = self.down[:] = [fin] * len(self.up)
        if self.topo:
            self.rku[:] = [max(clock, fin) for clock in self.rku]
            self.rkd[:] = [max(clock, fin) for clock in self.rkd]
        done(None, fin)

    _DETAIL = {
        PhaseKind.FABRIC_OUT: _book_fabric,
        PhaseKind.FABRIC_IN: _book_fabric,
        PhaseKind.FAN_IN: _book_fan_in,
        PhaseKind.FAN_OUT: _book_fan_out,
        PhaseKind.BROADCAST: _book_broadcast,
        PhaseKind.RING_STEP: _book_ring,
    }

    # ========================================================================
    # aggregate tier: node-symmetric class clocks, racks in rack classes
    # ========================================================================
    # Conventions: self.up[0]/self.down[0] are the worker-class NIC clocks;
    # self.rku/self.rkd hold one wire clock per rack class (``_init_clocks``),
    # so "every crossing rack" is a loop over a handful of classes at any
    # rack count.  Each class clock sees the float64 operations a per-rack
    # loop would apply to each of its racks, in the same order.  Owners are
    # round-robin over the server nodes, so with units << workers (always
    # true at 1k+ nodes) every unit's owner NIC starts from the class clock
    # -- the same approximation the cross-tier tests quantify.
    # Same booker signature as the detail tier; ``rack`` is always ``None``.
    def _split_off(self, rack: int) -> int:
        """The class holding ``rack`` alone, split off the class it shared
        (carrying that class's clocks: their history is its history)."""
        k = self._alone.get(rack)
        if k is None:
            k = self._class_profile.index(self._profile(rack))
            if self._class_racks[k] > 1:
                self._class_racks[k] -= 1
                self._class_racks.append(1)
                self._class_profile.append(self._class_profile[k])
                self.rku.append(self.rku[k])
                self.rkd.append(self.rkd[k])
                k = len(self.rku) - 1
            self._alone[rack] = k
        return k

    def _agg_fabric(self, plan: UnitPlan, phase: Phase, rack, call,
                    done: Callable) -> None:
        """Workers against the KV fabric, the shards the other way."""
        outbound = phase.kind is PhaseKind.FABRIC_OUT
        fin = call
        for nbytes, out in ((phase.nbytes, outbound),
                            (phase.hub_bytes, not outbound)):
            nic, clock = (self.up, self.rku) if out else (self.down, self.rkd)
            nic[0] = max(call, nic[0]) + self._tn(nbytes)
            fin = max(fin, nic[0])
            if self.topo:
                # Every rack with members whose traffic leaves it.
                for k, (members, cross) in enumerate(self._class_profile):
                    if members and cross:
                        clock[k] = (max(call, clock[k])
                                    + members * self._wire(nbytes * cross))
                        fin = max(fin, clock[k])
        done(None, fin)

    def _agg_fan(self, plan: UnitPlan, phase: Phase, rack, call,
                 done: Callable) -> None:
        """A hub's fan-in or fan-out on the class clocks.

        The hub's NIC drains (or serializes) the fan from its class clock:
        peers in its rack at NIC rate, the others at the slower of NIC and
        rack wire, whose holds are booked per rack class.  What else is
        booked is the recorded model of each peer pair, kept as it was
        (ROADMAP, differential-oracle item):

        * workers <-> owner: every worker's one message also holds the
          other class clock; the owner's finish is stored nowhere -- with
          units << workers the next unit's owner is another node;
        * rack members -> leader: a rack-local drain, nothing stored;
        * leaders <-> owner: the fan-in stores the root's finish in the
          class downlink clock; the fan-out hands over when the last
          leader's copy left, its rack-wire holds only bound the finish.
        """
        nbytes = phase.nbytes
        inbound = phase.kind is PhaseKind.FAN_IN
        many, hub = (self.up, self.down) if inbound else (self.down, self.up)
        start = max(call, hub[0])
        if Peers.RACK_MEMBERS in (phase.src, phase.dst):
            members = self.plan.shape.leader_fan
            done(None, start + (members - 1) * self._tn(nbytes))
            return
        leaders = Peers.RACK_LEADERS in (phase.src, phase.dst)
        o_rack = self._rack[plan.owner]
        # Peers of the owner: all of them, and those outside its rack.
        if leaders:
            peers = self.plan.shape.num_racks - 1
            cross = peers if self.topo else 0
        else:
            peers = self.num_workers - 1
            cross = (self.num_workers - self._profile(o_rack)[0]
                     if self.topo else 0)
        fan = fin = (start + (peers - cross) * self._tn(nbytes)
                     + cross * self._tfs(nbytes))
        if not leaders:
            many[0] = max(call, many[0]) + self._tn(nbytes)
            fin = max(many[0], fan)
        if cross:
            # The owner's rack carries the whole cross fan on one wire, every
            # other rack its share (one leader, or its members) on the other.
            near, far = ((self.rkd, self.rku) if inbound
                         else (self.rku, self.rkd))
            wire = self._wire(nbytes)
            owner = self._split_off(o_rack)
            near[owner] = max(call, near[owner]) + cross * wire
            fin = max(fin, near[owner])
            for k, (members, _cross) in enumerate(self._class_profile):
                share = 1 if leaders else members
                if share and k != owner:
                    far[k] = max(call, far[k]) + share * wire
                    fin = max(fin, far[k])
        if leaders and inbound:
            self.down[0] = fin
        elif leaders:
            self._completions.append(fin)
            fin = fan
        done(None, fin)

    def _agg_broadcast(self, plan: UnitPlan, phase: Phase, rack, call,
                       done: Callable) -> None:
        """Uplink-holding batches on the class clocks."""
        nbytes = phase.nbytes
        n = self.num_workers
        if phase.src is not Peers.WORKERS:
            # One hub per group; the batch leaves on the class uplink.
            copies = (self.plan.shape.leader_fan
                      if phase.src is Peers.RACK_LEADERS else n) - 1
            fin = call + copies * self._tn(nbytes)
            self.up[0] = fin
            self.down[0] = max(self.down[0], fin)
            done(None, fin)
            return
        tfs = self._tfs(nbytes)
        members = self._profile(0)[0] if self.topo else n
        drain = (members - 1) * self._tn(nbytes) + (n - members) * tfs
        # Symmetric convoy: every NIC sends N-1 and receives N-1 copies, and
        # in copy slot k sender s feeds receiver s + 1 + k alone, so from an
        # idle flat network the finish is one NIC's drain, N-1 slots.
        start = max(call, self.up[0], self.down[0])
        fin = start + drain
        self.up[0] = max(call, self.up[0]) + drain
        self.down[0] = max(call, self.down[0]) + drain
        if self.topo and n > members:
            # Each rack's wires carry its own members' cross copies, out
            # and in: members x (N - members) per direction.
            wire = self._wire(nbytes)
            for k, (size, _cross) in enumerate(self._class_profile):
                if size and n > size:
                    hold = size * (n - size) * wire
                    self.rku[k] = max(call, self.rku[k]) + hold
                    self.rkd[k] = max(call, self.rkd[k]) + hold
                    fin = max(fin, self.rku[k] + tfs, self.rkd[k] + tfs)
        done(None, fin)

    def _agg_ring(self, plan: UnitPlan, phase: Phase, rack, call,
                  done: Callable) -> None:
        """Lockstep ring steps: a full-cluster barrier on every clock."""
        fin = (max(call, self.ring_clock, self.up[0], self.down[0])
               + phase.repeat * self._tfs(phase.nbytes))
        self.ring_clock = self.up[0] = self.down[0] = fin
        if self.topo:
            self.rku[:] = [max(clock, fin) for clock in self.rku]
            self.rkd[:] = [max(clock, fin) for clock in self.rkd]
        done(None, fin)

    _AGGREGATE = {
        PhaseKind.FABRIC_OUT: _agg_fabric,
        PhaseKind.FABRIC_IN: _agg_fabric,
        PhaseKind.FAN_IN: _agg_fan,
        PhaseKind.FAN_OUT: _agg_fan,
        PhaseKind.BROADCAST: _agg_broadcast,
        PhaseKind.RING_STEP: _agg_ring,
    }


def simulate_fluid(model: ModelSpec, system: SystemConfig,
                   cluster: ClusterConfig,
                   batch_size: Optional[int] = None,
                   workload: Optional[IterationWorkload] = None,
                   background_jobs: int = 0):
    """Fluid-engine counterpart of :func:`repro.simulation.simulate_system`."""
    workload = workload or build_workload(model, batch_size=batch_size,
                                          gpu=cluster.gpu)
    return FluidSimulator(workload, cluster, system,
                          background_jobs=background_jobs).run()


# -- axis sweeps --------------------------------------------------------------
def sweep_axis(model: ModelSpec, system: SystemConfig,
               cluster: ClusterConfig,
               bandwidths_gbps: Sequence[float],
               batch_size: Optional[int] = None,
               workload: Optional[IterationWorkload] = None,
               background_jobs: int = 0) -> np.ndarray:
    """Iteration seconds across a whole bandwidth axis on the aggregate tier.

    One scalar pass per axis element, each the evaluation at that bandwidth
    alone (its phases pop in its own order).  Every pass shares one
    simulator, so the structure derivation -- resolved plan (itself
    memoized with the bandwidth normalised away) and rack profile -- is
    paid once per query; the simulator is dropped when the call returns.
    It is O(units x rack classes) at any cluster size: no node or rack
    list is built.

    Returns:
        ``np.ndarray`` of iteration seconds, same length as the axis.
    """
    workload = workload or build_workload(model, batch_size=batch_size,
                                          gpu=cluster.gpu)
    simulator = FluidSimulator(workload, cluster, system, mode="aggregate",
                               background_jobs=background_jobs)
    return np.array([
        simulator.iteration_seconds(
            cluster.with_bandwidth(bw).effective_bandwidth_bps)
        for bw in bandwidths_gbps
    ], dtype=float)
