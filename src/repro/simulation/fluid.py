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
  that rack off first.  A unit costs one heap pop per gated phase and,
  per phase, a few divisions and a loop over a handful of classes at any
  rack count -- what makes interactive 1k-10k-node what-if sweeps
  possible.  Both tiers are scalar engines
  (every clock a plain float), so :func:`sweep_axis` is one pass per axis
  element, each popping its phases in its own order: point-by-point
  evaluation by construction.

Which scheme, owner, payload and schedule each unit has comes from the
resolved :class:`~repro.simulation.plan.SyncPlan` -- the same value the DES
reads.  A simulator *lowers* each unit's declared
:class:`~repro.comm.backend.Phase` tuple once (:meth:`FluidSimulator._lower`,
as the DES's ``_lower_unit`` does): one linked record per (unit, phase)
holding its booking function (one per phase *kind* and tier), its gate and
join, its message bits and the node groups it books -- everything the
bandwidth does not change.  A pass is then one flat heap loop over those
records: phase starts, and a fan's or convoy's chained copies, pop in DES
request order, and each phase's holds are ``bits / bandwidth + latency``
once per pass.  Only the loop decides when a phase starts; a booking
function puts one phase's flows on the busy clocks.  A result's
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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.comm.backend import Peers, Phase, PhaseKind, Scope
from repro.config import ClusterConfig, ScheduleMode, SystemConfig
from repro.core.faults import fault_overhead_factor, straggler_excess_seconds
from repro.exceptions import ConfigurationError
from repro.nn.spec import ModelSpec
from repro.simulation.plan import (
    _FABRIC_KINDS,
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

_FAN_KINDS = (PhaseKind.FAN_IN, PhaseKind.FAN_OUT)


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


class _Step:
    """One ``(unit, phase)`` of the lowered plan.

    Built once per simulator (:meth:`FluidSimulator._lower`) with what no
    bandwidth changes.  Slots a phase kind or tier does not use stay unset.

    Attributes:
        enter: what a heap entry for this phase runs, ``(simulator, step,
            rack, when)``: the booker itself on the detail tier, the unit's
            chain (:meth:`FluidSimulator._chain`) on the aggregate tier.
        book: the booker of the phase's kind and tier.
        phase: the declared phase (kind, peers, scope, repeat).
        next: the unit's next phase (``None``: the unit completes).
        gated: the phase waits for the gate
            (:meth:`FluidSimulator._pull_call`).
        owner: the unit's owner node.
        join: reports the successor waits for when they come per rack (the
            plan's racks under :attr:`Scope.ALL`; 0: each report starts it).
        bits / hub_bits: ``bytes_to_bits`` of ``nbytes`` / ``hub_bytes``.
        xbits / hub_xbits: detail fabric -- per rack, the bits of one
            member's flow that leave it (``None`` where none do).
        groups: detail fans and hub broadcasts -- rack (or ``None``: the
            whole phase) -> the resolved
            :func:`~repro.simulation.plan.fan_groups`, shared by the units
            whose phases have the same roles (a fan's owner hub ``None``).
        fixed: aggregate tier -- a fabric phase's two sides ``(bits, bits
            leaving each rack profile, outbound)``, a fan's or broadcast's
            counts.
        tn / tfs / wr / hub_tn / wires / hub_wires: detail tier -- the holds
            at the pass's bandwidth (:meth:`FluidSimulator._set_holds`): one
            flow's NIC-rate time, cross-rack service time and rack-wire
            hold; a fabric's shard-side NIC time and per-rack wire holds.
    """

    __slots__ = ("enter", "book", "phase", "next", "gated", "owner", "join",
                 "bits", "hub_bits", "xbits", "hub_xbits", "groups", "fixed",
                 "tn", "tfs", "wr", "hub_tn", "wires", "hub_wires")


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
        #: the rack classes every pass starts from (class ``k < len`` is
        #: profile ``k``).
        self._profiles: Counter = Counter()
        for rack, count in ((0, min(full, self.nracks)),
                            (full, full < self.nracks),
                            (full + 1, self.nracks - full - 1)):
            if count > 0:
                self._profiles[self._profile(rack)] += count
        self._profile_members = tuple(members for members, _ in self._profiles)
        #: Detail tier: every node's rack, a list lookup per booking; every
        #: rack's cross share; the shard and worker nodes of a fabric phase
        #: (a node-symmetric plan books node 0 for both).
        if self.detail:
            self._rack = [self._rack_of(node)
                          for node in range(cluster.num_nodes)]
            self._cross = [self._profile(rack)[1]
                           for rack in range(self.nracks)]
            self._fabric_nodes = (
                (range(1), range(1)) if self.plan.node_symmetric
                else (cluster.server_nodes, range(self.num_workers)))
        # What no bandwidth changes, derived once: backward-done of the
        # whole iteration, every (unit, phase) lowered to a step, and the
        # phase heap every pass starts from -- each unit's first phase at
        # its send time (its own backward-done under WFBP, else the
        # iteration's, delayed by the compressor's encode pass exactly like
        # the DES's pre-dispatch timeout).
        w = self.workload
        self._compute_end = (w.forward_seconds
                             + sum(u.backward_seconds for u in w.units)
                             + w.tail_backward_seconds)
        seq_mode = system.schedule is not ScheduleMode.WFBP
        self._steps: List[_Step] = []
        self._first_events: List[tuple] = []
        t = w.forward_seconds
        shared: Dict[tuple, tuple] = {}  # node groups, shared by the units
        for unit, unit_plan in enumerate(reversed(self.plan.units)):
            t += unit_plan.unit.backward_seconds
            ready = self._compute_end if seq_mode else t
            if unit_plan.encode_seconds > 0.0:
                ready = ready + unit_plan.encode_seconds
            first = self._lower(unit_plan, shared)
            self._first_events.append(
                (ready, unit,
                 FluidSimulator._defer if first.gated else first.enter,
                 first, None))
        heapq.heapify(self._first_events)

    # -- shared arithmetic ---------------------------------------------------
    def _rack_of(self, node: int) -> int:
        return self.cluster_config.rack_of(node) if self.topo else 0

    def _profile(self, rack: int) -> Tuple[int, float]:
        """``(members, cross)`` of ``rack``: its workers, and the share of a
        member's fabric traffic that leaves it (none on a flat network)."""
        per_rack, full, rest = self._fill
        members = per_rack if rack < full else rest if rack == full else 0
        return members, ((self.num_workers - members) * self.topo
                         / max(1, self.num_workers - 1))

    # -- the lowering --------------------------------------------------------
    def _lower(self, plan: UnitPlan, shared: Dict[tuple, tuple]) -> _Step:
        """Lower one unit's phases to linked steps; returns the first.

        Each step holds its booker (one per phase kind and tier, ``_DETAIL``
        / ``_AGGREGATE``) and what the booker would otherwise re-derive per
        booking: the message bits, the rack-leaving bits of a fabric phase,
        the node groups of a detail fan or broadcast, an aggregate fan's
        counts and owner rack.
        """
        shape = self.plan.shape
        bookers = self._DETAIL if self.detail else self._AGGREGATE
        steps: List[_Step] = []
        racks = {None}  # what the phase is booked on: racks, or the whole
        for index, phase in enumerate(plan.phases):
            step = _Step()
            step.book = bookers[phase.kind]
            step.enter = step.book if self.detail else FluidSimulator._chain
            step.phase, step.gated, step.owner = phase, phase.gated, plan.owner
            step.bits = units.bytes_to_bits(phase.nbytes)
            step.xbits = None
            last = index + 1 == len(plan.phases)
            step.join = (shape.num_racks
                         if phase.scope is Scope.ALL and not last else 0)
            reported = {None}  # the racks the phase reports on
            if phase.kind in _FABRIC_KINDS:
                step.hub_bits = units.bytes_to_bits(phase.hub_bytes)
                self._lower_fabric(step, phase)
            elif self.detail:
                if phase.kind in _FAN_KINDS or (
                        phase.kind is PhaseKind.BROADCAST
                        and phase.src is not Peers.WORKERS):
                    reported = self._lower_groups(step, plan.owner, racks,
                                                  shared)
            else:
                step.fixed = self._agg_counts(phase, plan.owner)
            # Per-rack reports join into one start under Scope.ALL.
            racks = {None} if step.join else reported
            steps.append(step)
        for step, successor in zip(steps, steps[1:] + [None]):
            step.next = successor
        self._steps.extend(steps)
        return steps[0]

    def _lower_fabric(self, step: _Step, phase: Phase) -> None:
        if self.detail:
            # Per rack: the bits of one member's flow that leave it.
            step.xbits, step.hub_xbits = (
                [units.bytes_to_bits(nbytes * cross)
                 if nbytes * cross > 0.0 else None for cross in self._cross]
                for nbytes in (phase.nbytes, phase.hub_bytes))
            return
        # Per profile: every rack with members whose traffic leaves it --
        # of the workers' side, then of the shards'.
        outbound = phase.kind is PhaseKind.FABRIC_OUT
        step.fixed = tuple(
            (bits, [units.bytes_to_bits(nbytes * cross) if members and cross
                    else None for members, cross in self._profiles], out)
            for bits, nbytes, out in (
                (step.bits, phase.nbytes, outbound),
                (step.hub_bits, phase.hub_bytes, not outbound)))

    def _lower_groups(self, step: _Step, owner: int, racks,
                      shared: Dict[tuple, tuple]) -> set:
        """The node groups of a fan or hub broadcast on each of ``racks``
        (``None``: the whole phase); returns the racks it reports on.

        Groups follow from the peer roles and the scope, so units whose
        phases agree on those share them (``shared``): a tree's rack groups
        are resolved once per simulator.  The owner only ever is a hub: a
        fan's groups leave it ``None`` for the booker to fill in, while an
        owner broadcast, whose receivers are ordered from their hub, is
        resolved per owner.
        """
        phase = step.phase
        if (phase.kind is not PhaseKind.BROADCAST
                or Peers.OWNER not in (phase.src, phase.dst)):
            owner = None
        roles = (phase.kind, phase.src, phase.dst, phase.scope, owner)
        by_rack = shared.setdefault(roles, {})
        step.groups, reported = {}, set()
        for rack in racks:
            resolved = by_rack.get(rack)
            if resolved is None:
                resolved = by_rack[rack] = self._resolve_groups(phase, owner,
                                                                rack)
            step.groups[rack] = resolved[0]
            if not step.join:  # only a per-rack successor asks
                reported |= resolved[1]
        return reported

    def _resolve_groups(self, phase: Phase, owner: Optional[int],
                        rack) -> tuple:
        """``(groups, racks reported on)`` of one booking of ``phase``."""
        shape = self.plan.shape
        groups = fan_groups(phase, shape, owner, rack)
        if phase.kind is PhaseKind.FAN_OUT:
            # A whole fan scoped per rack reports each copy as its rack's
            # finish.
            (group, hub, members), = groups
            per_rack = phase.scope is Scope.GROUP and group is None
            return ((group, hub, members, per_rack),
                    {member // shape.rack_size for member in members}
                    if per_rack else {group})
        reported = {group for group, _hub, _members in groups}
        if phase.kind is PhaseKind.BROADCAST:
            # Receivers in batch order, from the one after the hub.
            nodes = (1 if self.plan.node_symmetric
                     else self.cluster_config.num_nodes)
            groups = [(group, hub, len(members) > 1, tuple(
                member for member in sorted(
                    members, key=lambda dst, hub=hub: (dst - hub) % nodes)
                if member != hub)) for group, hub, members in groups]
        return groups, reported

    def _agg_counts(self, phase: Phase, owner: int) -> tuple:
        """An aggregate fan's or broadcast's counts, from its roles and the
        rack profiles."""
        n, shape = self.num_workers, self.plan.shape
        if phase.kind is PhaseKind.BROADCAST:
            if phase.src is not Peers.WORKERS:
                # One hub per group; the batch leaves on the class uplink.
                return ((shape.leader_fan if phase.src is Peers.RACK_LEADERS
                         else n) - 1,)
            # An all-to-all sender's rack-local peers (itself included).
            return (self._profile(0)[0] if self.topo else n,)
        if phase.kind in _FAN_KINDS:
            if Peers.RACK_MEMBERS in (phase.src, phase.dst):
                return (None, shape.leader_fan, 0, None, None)
            leaders = Peers.RACK_LEADERS in (phase.src, phase.dst)
            o_rack = owner // self._fill[0] if self.topo else 0
            members = self._profile(o_rack)[0]
            # Peers of the owner: all of them, and those outside its rack.
            if leaders:
                peers = shape.num_racks - 1
                cross = peers if self.topo else 0
            else:
                peers = n - 1
                cross = n - members if self.topo else 0
            profile = (list(self._profiles).index(self._profile(o_rack))
                       if cross else None)
            return (leaders, peers, cross, o_rack, profile)
        return ()

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
        A pass (after the detail tier set every step's holds) is one heap
        loop: each entry ``(when, seq, enter, step, arg)`` runs
        ``enter(self, step, arg, when)`` -- a phase start (``arg`` its
        rack) or a chained copy (``arg`` its cursor).

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
        bandwidth = self.bandwidth_bps
        self._fs_bw = bandwidth * self._bottleneck
        self._rack_bw = bandwidth * self._rack_scale
        if self.detail:
            self._set_holds()
        events = self._events = list(self._first_events)
        self._seq = len(events)
        self._completions: List[float] = []
        self._joins: Dict[_Step, list] = {}
        self._init_clocks()
        pop = heapq.heappop
        while events:
            when, _seq, enter, step, arg = pop(events)
            enter(self, step, arg, when)
        result = max(compute_end, *self._completions)
        return self._apply_faults(self._apply_policy(result, compute_end),
                                  compute_end)

    def _set_holds(self) -> None:
        """Detail tier: every step's holds at the pass's bandwidth, bits /
        bandwidth (+ latency), once per pass -- a detail phase is booked
        per rack and per copy.  (An aggregate phase is booked once per
        pass; its booker divides the bits itself.)"""
        bandwidth, lam, jobs = self.bandwidth_bps, self.lam, self.jobs_factor
        bottleneck, rack = self._fs_bw, self._rack_bw
        for step in self._steps:
            bits = step.bits
            step.tn = bits / bandwidth + lam
            step.tfs = bits / bottleneck + lam
            step.wr = (bits / rack) * jobs
            if step.xbits is not None:
                step.hub_tn = step.hub_bits / bandwidth + lam
                step.wires = [None if leaving is None
                              else (leaving / rack) * jobs
                              for leaving in step.xbits]
                step.hub_wires = [None if leaving is None
                                  else (leaving / rack) * jobs
                                  for leaving in step.hub_xbits]

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
    # event-driven simulator issues them; ties pop in push order.  The tiers
    # differ in when a phase re-enters the heap: the detail tier at every
    # phase start, so bookings of different units land on the per-node
    # clocks in request order; the aggregate tier (no racks to join) only at
    # a gated phase -- an ungated successor is booked in the same slot, the
    # hub's class clock already carrying the intermediate finish.
    def _pull_call(self, call: float) -> float:
        """The one gate: parameter traffic waits for backward-done unless
        the system overlaps pulls."""
        if self.system.overlap_pull:
            return call
        return max(call, self._compute_end)

    def _defer(self, step: _Step, rack, when) -> None:
        """A gated first phase: enter it through the gate."""
        heapq.heappush(self._events, (self._pull_call(when), self._seq,
                                      step.enter, step, rack))
        self._seq += 1

    def _report(self, step: _Step, group: Optional[int], fin) -> None:
        """A detail booker's report: phase ``step`` finished at ``fin`` on
        rack ``group`` (``None``: as a whole).  The successor starts --
        through the gate if it is gated -- per rack under
        :attr:`Scope.GROUP`, else once every rack (or the one whole-phase
        booking) has reported; the last phase completes the unit."""
        if group is not None and step.join:
            pending = self._joins.get(step)
            if pending is None:
                pending = self._joins[step] = [step.join, fin]
            pending[0] -= 1
            pending[1] = max(pending[1], fin)
            if pending[0]:
                return
            group, fin = None, pending[1]
        successor = step.next
        if successor is None:
            self._completions.append(fin)
            return
        heapq.heappush(self._events, (
            self._pull_call(fin) if successor.gated else fin, self._seq,
            successor.enter, successor, group))
        self._seq += 1

    def _chain(self, step: _Step, _rack, call) -> None:
        """An aggregate unit from ``step`` on: each booker returns its
        phase's finish, which starts the next phase in the same slot up to
        a gated one, pushed through the gate."""
        while True:
            call = step.book(self, step, call)
            step = step.next
            if step is None:
                self._completions.append(call)
                return
            if step.gated:
                heapq.heappush(self._events, (self._pull_call(call),
                                              self._seq, FluidSimulator._chain,
                                              step, None))
                self._seq += 1
                return

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
        # _class_profile[k] its profile (an index into _profiles) and
        # _class_racks[k] how many racks it holds.  _alone maps a rack
        # split off to its class.
        self.up, self.down, self.ring_clock = [0.0], [0.0], 0.0
        self._class_profile = list(range(len(self._profiles)))
        self._class_racks = list(self._profiles.values())
        self.rku = [0.0] * len(self._class_profile)
        self.rkd = [0.0] * len(self._class_profile)
        self._alone: Dict[int, int] = {}

    # ========================================================================
    # detail tier: per-node replay of the DES bookings
    # ========================================================================
    # A scalar engine: every clock, call time and hold is a plain Python
    # float and "latest of" is the builtin ``max`` -- one heap hop per copy
    # leaves no room for a numpy dispatch per booking.  The per-node and
    # per-copy paths spell it as a comparison instead (``b if b > a else
    # a`` is ``max(a, b)``, the same float, without the call).  A phase's
    # holds depend on its bytes and the bandwidth only: the pass sets them
    # on the step, and the bookers hand them to the per-flow primitives.
    def _flow(self, src: int, dst: int, bits: float, call, tn, fs, wr):
        """Point-to-point transfer between two nodes; returns its finish."""
        if src == dst or bits <= 0:
            return call
        rs, rd = self._rack[src], self._rack[dst]
        if rs == rd:
            sending, receiving = self.up[src], self.down[dst]
            start = sending if sending > call else call
            fin = (receiving if receiving > start else start) + tn
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

    def _fabric(self, nodes: Sequence[int], tn, wires, call,
                outbound: bool, coupled: bool):
        """Every node's flow into (or out of) the KV fabric; the last finish.

        ``wires`` is each rack's wire hold of one member's flow (``None``
        where nothing leaves the rack).  ``coupled`` is a worker's push or
        pull, which holds its NIC and its rack's wire together; the shards'
        side books the two independently.
        """
        nic, rkc = (self.up, self.rku) if outbound else (self.down, self.rkd)
        fin = call
        for node in nodes:
            rack = self._rack[node]
            wire = wires[rack]
            if wire is None:
                busy = nic[node]
                nic[node] = t = (busy if busy > call else call) + tn
            elif coupled:
                t = max(call, nic[node], rkc[rack])
                nic[node] = t + tn
                rkc[rack] = t + wire
                t += max(tn, wire)
            else:
                nic[node] = t = max(call, nic[node]) + tn
                rkc[rack] = tr = max(call, rkc[rack]) + wire
                t = max(t, tr)
            if t > fin:
                fin = t
        return fin

    def _copy(self, src: int, dst: int, when, tn, fs, wr):
        """One copy of a batch whose sender already holds its uplink."""
        rs, rd = self._rack[src], self._rack[dst]
        down = self.down
        if rs != rd:
            up_wire, down_wire = self.rku[rs], self.rkd[rd]
            tr = up_wire if up_wire > when else when
            tr = down_wire if down_wire > tr else tr
            self.rku[rs] = self.rkd[rd] = wired = tr + wr
            busy = down[dst]
            down[dst] = fin = (busy if busy > tr else tr) + fs
            return fin if fin > wired else wired
        busy = down[dst]
        fin = down[dst] = (busy if busy > when else when) + tn
        return fin

    # -- one booker per phase kind (detail) ----------------------------------
    # ``book(step, rack, call)`` books the phase on every rack, or on
    # ``rack`` only, and reports once per rack (``None`` for a phase booked
    # as a whole).  Copies that chain through the phase heap carry a cursor:
    # their heap entry's ``arg``.
    def _book_fabric(self, step: _Step, rack, call) -> None:
        """Workers against the KV fabric, the shards the other way."""
        outbound = step.phase.kind is PhaseKind.FABRIC_OUT
        shards, workers = self._fabric_nodes
        fin = self._fabric(shards, step.hub_tn, step.hub_wires, call,
                           not outbound, coupled=False)
        self._report(step, None, max(fin, self._fabric(
            workers, step.tn, step.wires, call, outbound, coupled=True)))

    def _book_fan_in(self, step: _Step, rack, call) -> None:
        """Every sender's flow into its hub's downlink, all requested at once."""
        bits, tn, fs, wr, flow = (step.bits, step.tn, step.tfs, step.wr,
                                  self._flow)
        for group, hub, members in step.groups[rack]:
            hub = step.owner if hub is None else hub
            fin = call
            for member in members:
                finish = flow(member, hub, bits, call, tn, fs, wr)
                if finish > fin:
                    fin = finish
            self._report(step, group, fin)

    def _book_fan_out(self, step: _Step, rack, call) -> None:
        """A hub's fetches, each chained at its uplink's release.

        Each copy books its rack/receiver channels at the time the hub's
        NIC actually frees for it (its DES request time), so concurrent
        fans from different units interleave on shared channels instead of
        one fan's bookings ratcheting the busy tails past the other's.
        """
        group, hub, members, per_rack = step.groups[rack]
        self._fan_out(step, [0, call, group,
                             step.owner if hub is None else hub, members,
                             per_rack], call)

    def _fan_out(self, step: _Step, cursor: list, when) -> None:
        """The fetches of one fan-out from its cursor ``[copies booked,
        latest finish, group, hub, members, per rack]`` on, up to the next
        heap hop."""
        i, latest, group, hub, members, per_rack = cursor
        bits, tn, fs, wr = step.bits, step.tn, step.tfs, step.wr
        while i < len(members):
            member = members[i]
            fin = self._flow(hub, member, bits, when, tn, fs, wr)
            if fin > latest:
                latest = fin
            if per_rack:
                self._report(step, member // self.plan.shape.rack_size, fin)
            i += 1
            # The hub's own copy is free; it still takes its turn on the
            # heap when it reports a rack of its own.
            if (member != hub or per_rack) and i < len(members):
                cursor[0], cursor[1] = i, latest
                heapq.heappush(self._events, (max(when, self.up[hub]),
                                              self._seq,
                                              FluidSimulator._fan_out, step,
                                              cursor))
                self._seq += 1
                return
        if not per_rack:
            self._report(step, group, latest)

    def _book_broadcast(self, step: _Step, rack, call) -> None:
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
        up = self.up
        if step.phase.src is not Peers.WORKERS:
            tn, fs, wr, copy = step.tn, step.tfs, step.wr, self._copy
            for group, hub, many, receivers in step.groups[rack]:
                cur = call
                if many:
                    cur = max(call, up[hub])
                    for member in receivers:
                        cur = copy(hub, member, cur, tn, fs, wr)
                    up[hub] = max(up[hub], cur)
                self._report(step, group, cur)
            return
        senders = 1 if self.plan.node_symmetric else self.num_workers
        # Shared by the batches: senders still sending, the latest finish.
        convoy = [senders, call]
        events = self._events
        for s in range(senders):  # before any copy fires
            heapq.heappush(events, (max(call, up[s]), self._seq,
                                    FluidSimulator._convoy, step,
                                    [s, 0, convoy]))
            self._seq += 1

    def _convoy(self, step: _Step, cursor: list, when) -> None:
        """One copy of an all-to-all batch, from its sender's cursor ``[s,
        copies booked, convoy]``; the next copy chains at its finish."""
        s, sent, convoy = cursor
        n, up = self.num_workers, self.up
        if not sent:
            # batch uplink hold: queue behind the sender's prior holds (the
            # DES broadcast claims the uplink once for the whole batch)
            busy = up[s]
            if busy > when:
                when = busy
        dst = s if self.plan.node_symmetric else (s + 1 + sent) % n
        if self._rack[s] == self._rack[dst]:  # _copy within one rack, inline
            down = self.down
            busy = down[dst]
            fin = down[dst] = (busy if busy > when else when) + step.tn
        else:
            fin = self._copy(s, dst, when, step.tn, step.tfs, step.wr)
        sent += 1
        if sent + 1 < n:
            cursor[1] = sent
            heapq.heappush(self._events, (fin, self._seq,
                                          FluidSimulator._convoy, step,
                                          cursor))
            self._seq += 1
            return
        up[s] = fin  # batch uplink hold ends
        convoy[0] -= 1
        convoy[1] = max(convoy[1], fin)
        if not convoy[0]:
            self._report(step, None, convoy[1])

    def _book_ring(self, step: _Step, rack, call) -> None:
        """Lockstep ring steps: a full-cluster barrier on every clock."""
        start = max(call, self.ring_clock, max(self.up), max(self.down))
        fin = start + step.phase.repeat * step.tfs
        self.ring_clock = fin
        self.up[:] = self.down[:] = [fin] * len(self.up)
        if self.topo:
            self.rku[:] = [max(clock, fin) for clock in self.rku]
            self.rkd[:] = [max(clock, fin) for clock in self.rkd]
        self._report(step, None, fin)

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
    # ``book(step, call)`` books the whole phase and returns its finish.
    def _split_off(self, rack: int, profile: int) -> int:
        """The class holding ``rack`` (of ``profile``) alone, split off the
        class it shared (carrying that class's clocks: their history is its
        history)."""
        k = self._alone.get(rack)
        if k is None:
            k = profile  # the profile's own class: its racks not split off
            if self._class_racks[k] > 1:
                self._class_racks[k] -= 1
                self._class_racks.append(1)
                self._class_profile.append(profile)
                self.rku.append(self.rku[k])
                self.rkd.append(self.rkd[k])
                k = len(self.rku) - 1
            self._alone[rack] = k
        return k

    def _agg_fabric(self, step: _Step, call):
        """Workers against the KV fabric, the shards the other way: on each
        side the class NIC, then every rack class with members whose
        traffic leaves it."""
        bandwidth, lam, rack_bw, jobs = (self.bandwidth_bps, self.lam,
                                         self._rack_bw, self.jobs_factor)
        sizes, fin = self._profile_members, call
        for bits, xbits, out in step.fixed:
            nic, clock = (self.up, self.rku) if out else (self.down, self.rkd)
            busy = nic[0]
            nic[0] = t = (busy if busy > call else call) + (bits / bandwidth
                                                             + lam)
            if t > fin:
                fin = t
            for k, profile in enumerate(self._class_profile):
                leaving = xbits[profile]
                if leaving is not None:
                    busy = clock[k]
                    clock[k] = t = ((busy if busy > call else call)
                                    + sizes[profile] * ((leaving / rack_bw)
                                                        * jobs))
                    if t > fin:
                        fin = t
        return fin

    def _agg_fan(self, step: _Step, call):
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
        inbound = step.phase.kind is PhaseKind.FAN_IN
        many, hub = (self.up, self.down) if inbound else (self.down, self.up)
        start = max(call, hub[0])
        leaders, peers, cross, o_rack, o_profile = step.fixed
        bits = step.bits
        tn = bits / self.bandwidth_bps + self.lam
        if leaders is None:  # rack members -> leader; ``peers`` the members
            return start + (peers - 1) * tn
        fan = fin = (start + (peers - cross) * tn
                     + cross * (bits / self._fs_bw + self.lam))
        if not leaders:
            many[0] = max(call, many[0]) + tn
            fin = max(many[0], fan)
        if cross:
            # The owner's rack carries the whole cross fan on one wire, every
            # other rack its share (one leader, or its members) on the other.
            near, far = ((self.rkd, self.rku) if inbound
                         else (self.rku, self.rkd))
            wire = (bits / self._rack_bw) * self.jobs_factor
            owner = self._split_off(o_rack, o_profile)
            near[owner] = max(call, near[owner]) + cross * wire
            fin = max(fin, near[owner])
            sizes = self._profile_members
            for k, profile in enumerate(self._class_profile):
                share = 1 if leaders else sizes[profile]
                if share and k != owner:
                    busy = far[k]
                    far[k] = t = (busy if busy > call else call) + share * wire
                    if t > fin:
                        fin = t
        if leaders and inbound:
            self.down[0] = fin
        elif leaders:
            self._completions.append(fin)
            fin = fan
        return fin

    def _agg_broadcast(self, step: _Step, call):
        """Uplink-holding batches on the class clocks."""
        bits = step.bits
        tn = bits / self.bandwidth_bps + self.lam
        if step.phase.src is not Peers.WORKERS:
            copies, = step.fixed
            fin = call + copies * tn
            self.up[0] = fin
            self.down[0] = max(self.down[0], fin)
            return fin
        n, tfs = self.num_workers, bits / self._fs_bw + self.lam
        members, = step.fixed
        drain = (members - 1) * tn + (n - members) * tfs
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
            wire = (bits / self._rack_bw) * self.jobs_factor
            sizes = self._profile_members
            for k, profile in enumerate(self._class_profile):
                size = sizes[profile]
                if size and n > size:
                    hold = size * (n - size) * wire
                    self.rku[k] = max(call, self.rku[k]) + hold
                    self.rkd[k] = max(call, self.rkd[k]) + hold
                    fin = max(fin, self.rku[k] + tfs, self.rkd[k] + tfs)
        return fin

    def _agg_ring(self, step: _Step, call):
        """Lockstep ring steps: a full-cluster barrier on every clock."""
        fin = (max(call, self.ring_clock, self.up[0], self.down[0])
               + step.phase.repeat * (step.bits / self._fs_bw + self.lam))
        self.ring_clock = self.up[0] = self.down[0] = fin
        if self.topo:
            self.rku[:] = [max(clock, fin) for clock in self.rku]
            self.rkd[:] = [max(clock, fin) for clock in self.rkd]
        return fin

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
    memoized with the bandwidth normalised away), rack profile and the
    plan's lowering -- is paid once per query; the simulator is dropped
    when the call returns.
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
