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
  shared channels in DES request order.  On flat topologies this reproduces
  the DES to float precision; under rack oversubscription the channels'
  FIFO/head-of-line coupling is approximated by work-conserving fluid
  shares (see PERFORMANCE.md for the measured envelope).
* **aggregate** (above :data:`DETAIL_NODE_MAX`): node-symmetric class
  clocks and per-rack wire loads, O(units x racks) per point and entirely
  numpy-vectorizable, which is what makes interactive 1k-10k-node what-if
  sweeps possible.  :func:`sweep_axis` evaluates a whole bandwidth axis in
  one pass by carrying every clock as a vector over the axis, warm-starting
  from the memoized simulator and its resolved per-unit byte terms.

Which scheme, owner and payload each unit has comes from the resolved
:class:`~repro.simulation.plan.SyncPlan` -- the same value the DES reads --
and which replay runs it from the backend's declared
:attr:`~repro.comm.backend.UnitBytes.replay` (:data:`REPLAYS`);
nothing here knows a scheme by name or prices a payload.

Engine selection is shared with the figure/sweep layers through
:func:`resolve_engine`: ``"des"`` (default, byte-identical reports),
``"fluid"``, or ``"auto"`` -- fluid at or above
:data:`FLUID_NODE_THRESHOLD` workers, the exact DES below it, which is also
where the fluid approximation under oversubscription is weakest.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.comm.backend import registry_generation
from repro.config import ClusterConfig
from repro.core.faults import fault_overhead_factor, straggler_excess_seconds
from repro.core.wfbp import ScheduleMode
from repro.engines.base import SystemConfig
from repro.exceptions import ConfigurationError
from repro.memo import Memo
from repro.nn.spec import ModelSpec
from repro.simulation.plan import UnitPlan, resolve_plan
from repro.simulation.throughput import simulation_result
from repro.simulation.workload import IterationWorkload, build_workload

__all__ = [
    "ENGINES",
    "FLUID_NODE_THRESHOLD",
    "DETAIL_NODE_MAX",
    "FluidSimulator",
    "REPLAYS",
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

#: Largest cluster the per-node detail tier replays (the SFB convoy replay
#: is O(N^2) copies per unit); beyond it the aggregate tier's symmetric
#: class clocks are used.
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
        #: Scheme, owner, payload and encode delay of every unit, resolved
        #: once; ``workload`` is the plan's (bucketed when the system asks).
        self.plan = resolve_plan(workload, system, cluster)
        for unit_plan in self.plan.units:
            if unit_plan.bytes.replay not in REPLAYS:
                raise ConfigurationError(
                    f"backend {unit_plan.backend.name!r} declares no fluid "
                    f"replay (got {unit_plan.bytes.replay!r}, known: "
                    f"{sorted(REPLAYS)}); simulate it with engine='des'")
        self.workload = self.plan.workload
        self.schemes = self.plan.schemes
        self.server_nodes = cluster.server_nodes
        self.cluster_config = cluster
        self.system = system
        self.num_workers = cluster.num_workers
        self.lam = cluster.latency_seconds
        self.topo = not cluster.is_flat_topology
        self.jobs_factor = 1 + max(0, int(background_jobs))
        if self.topo:
            # Rack uplink aggregate = node_bw * members / oversubscription;
            # kept as a ratio so axis sweeps that swap bandwidth_bps see the
            # uplink scale with it (rack_bw is a property).
            members = min(cluster.nodes_per_rack, self.num_workers)
            self._rack_scale = members / cluster.oversubscription
            self.nracks = cluster.racks
        else:
            self._rack_scale = float("inf")
            self.nracks = 1
        detail = self.num_workers <= DETAIL_NODE_MAX
        self.detail = detail if mode == "auto" else (mode == "detail")
        self.bandwidth_bps = cluster.effective_bandwidth_bps

    # -- shared arithmetic ---------------------------------------------------
    @property
    def rack_bw(self):
        """Aggregate rack-uplink goodput at the current (axis) bandwidth."""
        if not self.topo:
            return float("inf")
        return self.bandwidth_bps * self._rack_scale

    def _tn(self, nbytes):
        """NIC-rate transfer time of one flow (matches the DES's tn)."""
        return units.bytes_to_bits(nbytes) / self.bandwidth_bps + self.lam

    def _tfs(self, nbytes):
        """Cross-rack flow service time: the slower of NIC and rack wire."""
        if not self.topo:
            return self._tn(nbytes)
        bw = np.minimum(self.bandwidth_bps, self.rack_bw)
        return units.bytes_to_bits(nbytes) / bw + self.lam

    def _wire(self, nbytes):
        """Rack-switch wire hold; multi-job contention stretches it."""
        return (units.bytes_to_bits(nbytes) / self.rack_bw) * self.jobs_factor

    def _rack_of(self, node: int) -> int:
        return self.cluster_config.rack_of(node) if self.topo else 0

    def _rack_members(self, rack: int) -> int:
        first = rack * self.cluster_config.nodes_per_rack
        return max(0, min(self.cluster_config.nodes_per_rack,
                          self.num_workers - first))

    def _cross_fraction(self, node: int) -> float:
        if not self.topo or self.num_workers <= 1:
            return 0.0
        members = self._rack_members(self._rack_of(node))
        return (self.num_workers - members) / (self.num_workers - 1)

    # -- result assembly -----------------------------------------------------
    def run(self):
        """Compute the iteration and wrap it like the DES does."""
        iteration_seconds = float(self.iteration_seconds())
        return simulation_result(
            self, iteration_seconds,
            self.workload.compute_seconds / iteration_seconds,
            self._per_node_traffic())

    def _per_node_traffic(self) -> List[float]:
        """Analytic sent+received bytes per node (Figure 10 accounting).

        Sums every unit's declared per-role traffic
        (:class:`~repro.comm.backend.UnitBytes`) over the nodes holding
        each role -- the same figures the DES measures at its NICs.
        """
        totals = [0.0] * self.cluster_config.num_nodes
        if self.num_workers <= 1:
            return totals
        worker = server = 0.0
        for unit_plan in self.plan.units:
            nbytes = unit_plan.bytes
            worker += nbytes.worker
            server += nbytes.server
            totals[unit_plan.owner] += nbytes.owner
            for node, extra in nbytes.nodes:
                totals[node] += extra
        for node in range(self.num_workers):
            totals[node] += worker
        for node in set(self.server_nodes):
            totals[node] += server
        if self.system.sync_period > 1:
            # Local SGD syncs every H-th round: per-iteration wire volume
            # amortizes to 1/H of the BSP figure.
            totals = [t / self.system.sync_period for t in totals]
        return totals

    def iteration_seconds(self, bandwidth_bps=None):
        """Length of one BSP iteration; the core closed-form evaluation.

        ``bandwidth_bps`` may be a numpy array (an entire sweep axis): every
        busy clock is then carried as a vector over the axis and the result
        has the same shape.  Axis evaluation requires the aggregate tier
        (per-copy chaining orders events per axis element).
        """
        if bandwidth_bps is not None:
            self.bandwidth_bps = bandwidth_bps
            if np.ndim(bandwidth_bps) > 0 and self.detail:
                raise ConfigurationError(
                    "vectorized axis evaluation requires the aggregate tier")
        w = self.workload
        compute_end = (w.forward_seconds
                       + sum(u.backward_seconds for u in w.units)
                       + w.tail_backward_seconds)
        if self.num_workers <= 1:
            return self._apply_faults(compute_end, compute_end)
        self._compute_end = compute_end
        self._events: List[Tuple[float, int, Callable]] = []
        self._seq = 0
        self._completions: List = []
        seq_mode = self.system.schedule is not ScheduleMode.WFBP
        self._init_clocks()
        t = w.forward_seconds
        for unit_plan in reversed(self.plan.units):
            t += unit_plan.unit.backward_seconds
            ready = compute_end if seq_mode else t
            if unit_plan.encode_seconds > 0.0:
                # The compressor's encode pass delays the send, exactly
                # like the DES's pre-dispatch timeout.
                ready = ready + unit_plan.encode_seconds
            self._at(ready, self._head_phase(unit_plan))
        while self._events:
            when, _seq, fn = heapq.heappop(self._events)
            fn(when)
        result = compute_end
        for completion in self._completions:
            result = np.maximum(result, completion)
        return self._apply_faults(self._apply_policy(result, compute_end),
                                  compute_end)

    def _apply_policy(self, total, compute):
        """Rescale one BSP iteration for the system's execution semantics.

        Under the defaults (``staleness == 0``, ``sync_period == 1``) the
        BSP figure passes through untouched (byte-identical sweeps).  For
        relaxed policies the transform works on the *exposed* (non-hidden)
        communication time per round:

        - local SGD amortizes the sync over ``sync_period`` rounds, so the
          exposed share shrinks by ``1/H``;
        - SSP hides the remaining exposure under up to ``staleness``
          subsequent compute rounds;
        - fully asynchronous execution (``staleness is None``) is the
          staleness limit: per-round time is the larger of compute and the
          NIC-serialized exposure.

        Every relaxed figure is floored at the exposed time itself -- the
        NIC must still serialize the sync bytes, however deep the
        pipeline -- which also makes throughput monotone in the staleness
        bound and continuous at ``s == 0``.
        """
        staleness = self.system.staleness
        period = self.system.sync_period
        if staleness == 0 and period == 1:
            return total
        exposed = (total - compute) / period
        if staleness is None:
            return np.maximum(compute, exposed)
        hidden = compute + np.maximum(0.0, exposed - staleness * compute)
        return np.maximum(hidden, exposed)

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
            staleness=(0 if system.staleness is None else system.staleness),
            is_async=system.staleness is None)
        factor = fault_overhead_factor(
            system.mtbf_seconds, system.checkpoint_interval_seconds,
            system.checkpoint_cost_seconds)
        return (total + excess) * factor

    # -- phase heap ----------------------------------------------------------
    # Phases are booked at their DES request times (push at the unit's
    # ready, pull at all_sent/aggregated, ...) so bookings from different
    # units land on the shared busy clocks in the same order the
    # event-driven simulator issues them.  With a vector axis, ordering
    # uses the first axis element; the booking arithmetic itself stays
    # exact per element (ordering is bandwidth-invariant for the unit
    # structures the workloads produce).
    def _at(self, when, fn: Callable) -> None:
        key = float(np.asarray(when).flat[0])
        heapq.heappush(self._events, (key, self._seq, _TimedPhase(when, fn)))
        self._seq += 1

    def _head_phase(self, plan: UnitPlan):
        replay = REPLAYS[plan.bytes.replay][0 if self.detail else 1]

        def fire(call):
            replay(self, plan, call, self._completions.append)
        return fire

    def _pull_call(self, all_sent):
        if self.system.overlap_pull:
            return all_sent
        return np.maximum(all_sent, self._compute_end)

    # -- clock state ---------------------------------------------------------
    def _init_clocks(self) -> None:
        if self.detail:
            self.up = [0.0] * self.cluster_config.num_nodes
            self.down = [0.0] * self.cluster_config.num_nodes
        else:
            # Node-symmetric class clocks: one up/down pair stands in for
            # the (statistically identical) worker NICs.
            zero = np.zeros_like(np.asarray(self.bandwidth_bps, dtype=float))
            self.up = [zero + 0.0]
            self.down = [zero + 0.0]
        zero = 0.0 if self.detail else np.zeros_like(
            np.asarray(self.bandwidth_bps, dtype=float))
        self.rku = [zero + 0.0 for _ in range(self.nracks)]
        self.rkd = [zero + 0.0 for _ in range(self.nracks)]
        self.ring_clock = zero + 0.0

    # ========================================================================
    # detail tier: per-node replay of the DES bookings
    # ========================================================================
    def _flow(self, src: int, dst: int, nbytes: float, call):
        """Point-to-point transfer between two nodes; returns its finish."""
        if src == dst or nbytes <= 0:
            return call
        if not self.topo or self._rack_of(src) == self._rack_of(dst):
            t = np.maximum(np.maximum(call, self.up[src]), self.down[dst])
            fin = t + self._tn(nbytes)
            self.up[src] = fin
            self.down[dst] = fin
            return fin
        rs, rd = self._rack_of(src), self._rack_of(dst)
        fs = self._tfs(nbytes)
        wr = self._wire(nbytes)
        # Source-side coupling: the DES acquires nic.up < rack.up <
        # rack.down < nic.down holding earlier channels while queueing at
        # later ones; the source NIC and the rack wires form the dominant
        # head-of-line chain, while the receiver downlink drains as an
        # independent work-conserving share.
        t = np.maximum(np.maximum(call, self.up[src]),
                       np.maximum(self.rku[rs], self.rkd[rd]))
        self.up[src] = t + fs
        self.rku[rs] = t + wr
        self.rkd[rd] = t + wr
        td = np.maximum(t, self.down[dst])
        self.down[dst] = td + fs
        return np.maximum(t + wr, td + fs)

    def _fabric_out(self, node: int, nbytes: float, call):
        """node -> fabric flow (fine-PS push against the KV store)."""
        cross = nbytes * self._cross_fraction(node)
        if cross <= 0.0:
            t = np.maximum(call, self.up[node])
            fin = t + self._tn(nbytes)
            self.up[node] = fin
            return fin
        rack = self._rack_of(node)
        t = np.maximum(np.maximum(call, self.up[node]), self.rku[rack])
        self.up[node] = t + self._tn(nbytes)
        self.rku[rack] = t + self._wire(cross)
        return t + np.maximum(self._tn(nbytes), self._wire(cross))

    def _fabric_in(self, node: int, nbytes: float, call):
        """fabric -> node flow (fine-PS pull)."""
        cross = nbytes * self._cross_fraction(node)
        if cross <= 0.0:
            t = np.maximum(call, self.down[node])
            fin = t + self._tn(nbytes)
            self.down[node] = fin
            return fin
        rack = self._rack_of(node)
        t = np.maximum(np.maximum(call, self.down[node]), self.rkd[rack])
        self.down[node] = t + self._tn(nbytes)
        self.rkd[rack] = t + self._wire(cross)
        return t + np.maximum(self._tn(nbytes), self._wire(cross))

    def _fabric_fan(self, nodes: Sequence[int], nbytes: float, call,
                    outbound: bool):
        """Independent (nic, rack-wire) bookings; returns the last finish."""
        nic = self.up if outbound else self.down
        rkc = self.rku if outbound else self.rkd
        fin = call
        for node in nodes:
            t = np.maximum(call, nic[node])
            nic[node] = t + self._tn(nbytes)
            fin = np.maximum(fin, nic[node])
            cross = nbytes * self._cross_fraction(node)
            if cross > 0.0:
                rack = self._rack_of(node)
                tr = np.maximum(call, rkc[rack])
                rkc[rack] = tr + self._wire(cross)
                fin = np.maximum(fin, rkc[rack])
        return fin

    def _chain_fan(self, src: int, dsts: Sequence[int], nbytes: float, call,
                   on_done: Callable, copy_done: Optional[Callable] = None):
        """Single-source fan with copies chained at the uplink's release.

        Each copy books its rack/receiver channels at the time the source
        NIC actually frees for it (its DES request time), so concurrent
        fans from different units interleave on shared channels instead of
        one fan's bookings ratcheting the busy tails past the other's.
        """
        if not dsts:
            on_done(call)
            return
        state = [call]

        def step(i: int):
            def fire(when):
                fin = self._flow(src, dsts[i], nbytes, when)
                state[0] = np.maximum(state[0], fin)
                if copy_done is not None:
                    copy_done(dsts[i], fin)
                if i + 1 < len(dsts):
                    self._at(np.maximum(when, self.up[src]), step(i + 1))
                else:
                    on_done(state[0])
            return fire

        self._at(call, step(0))

    # -- per-scheme replays (detail) -----------------------------------------
    def _sync_ps_fine(self, plan: UnitPlan, ready, finish: Callable):
        """Fine-grained PS: fabric push, shard gather/scatter, fabric pull."""
        push, server = plan.bytes.push, plan.bytes.shard
        all_sent = ready
        for worker in range(self.num_workers):
            all_sent = np.maximum(
                all_sent, self._fabric_out(worker, push, ready))
        gather = self._fabric_fan(self.server_nodes, server, ready,
                                  outbound=False)
        aggregated = np.maximum(all_sent, gather)

        def tail_phase(call):
            scatter = self._fabric_fan(self.server_nodes, server, call,
                                       outbound=True)
            pull = call
            for worker in range(self.num_workers):
                pull = np.maximum(pull, self._fabric_in(worker, push, call))
            finish(np.maximum(pull, scatter))

        self._at(self._pull_call(aggregated), tail_phase)

    def _sync_owner_fan(self, plan: UnitPlan, ready, finish: Callable):
        """Adam / coarse PS: everyone pushes to the owner, then pulls."""
        owner = plan.owner
        push_bytes, pull_bytes = plan.bytes.push, plan.bytes.pull
        all_sent = ready
        for worker in range(self.num_workers):
            if worker != owner:
                all_sent = np.maximum(
                    all_sent, self._flow(worker, owner, push_bytes, ready))
        dsts = [w for w in range(self.num_workers) if w != owner]
        self._chain_fan(owner, dsts, pull_bytes, self._pull_call(all_sent),
                        finish)

    def _sync_sfb(self, plan: UnitPlan, ready, finish: Callable):
        """SFB all-to-all broadcast convoy, chained copy by copy."""
        sf = plan.bytes.push
        tn = self._tn(sf)
        fs = self._tfs(sf)
        wr = self._wire(sf)
        n = self.num_workers
        pending = [n, ready]

        def sender_done(fin):
            pending[0] -= 1
            pending[1] = np.maximum(pending[1], fin)
            if pending[0] == 0:
                finish(pending[1])

        def step(s: int, peers: Sequence[int], i: int):
            def fire(when):
                if i == 0:
                    # batch uplink hold: queue behind the sender's prior
                    # holds (the DES broadcast claims the uplink once for
                    # the whole batch)
                    when = np.maximum(when, self.up[s])
                dst = peers[i]
                if self.topo and self._rack_of(s) != self._rack_of(dst):
                    rs, rd = self._rack_of(s), self._rack_of(dst)
                    tr = np.maximum(when,
                                    np.maximum(self.rku[rs], self.rkd[rd]))
                    self.rku[rs] = tr + wr
                    self.rkd[rd] = tr + wr
                    td = np.maximum(tr, self.down[dst])
                    self.down[dst] = td + fs
                    fin = np.maximum(tr + wr, td + fs)
                else:
                    t = np.maximum(when, self.down[dst])
                    fin = t + tn
                    self.down[dst] = fin
                if i + 1 < len(peers):
                    self._at(fin, step(s, peers, i + 1))
                else:
                    self.up[s] = fin  # batch uplink hold ends
                    sender_done(fin)
            return fire

        for s in range(n):
            peers = [p for p in range(n) if p != s]
            self._at(np.maximum(ready, self.up[s]), step(s, peers, 0))

    def _sync_ring(self, plan: UnitPlan, ready, finish: Callable):
        """Chunked ring all-reduce: a full-cluster barrier per unit."""
        n = self.num_workers
        step = self._tfs(plan.bytes.push)
        start = np.maximum(ready, self.ring_clock)
        for clock in self.up:
            start = np.maximum(start, clock)
        for clock in self.down:
            start = np.maximum(start, clock)
        done = start + 2 * (n - 1) * step
        self.ring_clock = done
        for i in range(len(self.up)):
            self.up[i] = done
            self.down[i] = done
        if self.topo:
            for r in range(self.nracks):
                self.rku[r] = np.maximum(self.rku[r], done)
                self.rkd[r] = np.maximum(self.rkd[r], done)
        finish(done)

    def _sync_tree(self, plan: UnitPlan, ready, finish: Callable):
        """Rack-local aggregation, leader forward, root distribute."""
        owner, dense = plan.owner, plan.bytes.push
        racks = self.plan.shape.racks
        rack_done = []
        for members in racks:
            leader = members[0]
            done = ready
            for member in members[1:]:
                done = np.maximum(done,
                                  self._flow(member, leader, dense, ready))
            rack_done.append(done)
        pending = [len(racks), ready]

        def forward_phase(members: List[int]):
            def fire(call):
                fin = self._flow(members[0], owner, dense, call)
                pending[0] -= 1
                pending[1] = np.maximum(pending[1], fin)
                if pending[0] == 0:
                    self._at(self._pull_call(pending[1]), distribute_phase)
            return fire

        def distribute_phase(call):
            done = [call, len(racks)]

            def rack_finished(fin):
                done[0] = np.maximum(done[0], fin)
                done[1] -= 1
                if done[1] == 0:
                    finish(done[0])

            def bcast_phase(members: List[int]):
                def fire(when):
                    leader = members[0]
                    # the leader's uplink holds the batch; copies sequential
                    cur = np.maximum(when, self.up[leader])
                    for member in members[1:]:
                        start = np.maximum(cur, self.down[member])
                        cur = start + self._tn(dense)
                        self.down[member] = cur
                    self.up[leader] = np.maximum(self.up[leader], cur)
                    rack_finished(cur)
                return fire

            def pull_done(leader: int, fin):
                members = racks[leaders.index(leader)]
                if len(members) > 1:
                    self._at(fin, bcast_phase(members))
                else:
                    rack_finished(fin)

            leaders = [m[0] for m in racks]
            self._chain_fan(owner, leaders, dense, call,
                            on_done=lambda fin: None, copy_done=pull_done)

        for members, done in zip(racks, rack_done):
            self._at(done, forward_phase(members))

    # ========================================================================
    # aggregate tier: node-symmetric class clocks, O(units x racks)
    # ========================================================================
    # Conventions: self.up[0]/self.down[0] are the worker-class NIC clocks;
    # rack wires keep per-rack clocks (numpy-friendly).  Owners are
    # round-robin over the server nodes, so with units << workers (always
    # true at 1k+ nodes) every unit's owner NIC starts from the class
    # clock -- the same approximation the cross-tier tests quantify.
    def _rack_profile(self) -> List[Tuple[int, float]]:
        """(members, cross_fraction) of each rack."""
        out = []
        for rack in range(self.nracks):
            members = self._rack_members(rack)
            cross = ((self.num_workers - members) / (self.num_workers - 1)
                     if self.topo and self.num_workers > 1 else 0.0)
            out.append((members, cross))
        return out

    def _agg_ps_fine(self, plan: UnitPlan, ready, finish: Callable):
        push, server = plan.bytes.push, plan.bytes.shard
        profile = self._rack_profile()

        def fabric(direction_nic: int, nbytes: float, call, outbound: bool):
            nic = self.up if outbound else self.down
            fin = nic[0] = np.maximum(call, nic[0]) + self._tn(nbytes)
            rkc = self.rku if outbound else self.rkd
            for rack, (members, cross) in enumerate(profile):
                if cross > 0.0 and members > 0:
                    rkc[rack] = (np.maximum(call, rkc[rack])
                                 + members * self._wire(nbytes * cross))
                    fin = np.maximum(fin, rkc[rack])
            return fin

        all_sent = fabric(0, push, ready, outbound=True)
        gather = fabric(0, server, ready, outbound=False)
        aggregated = np.maximum(all_sent, gather)

        def tail_phase(call):
            scatter = fabric(0, server, call, outbound=True)
            pull = fabric(0, push, call, outbound=False)
            finish(np.maximum(pull, scatter))

        self._at(self._pull_call(aggregated), tail_phase)

    def _agg_owner_fan(self, plan: UnitPlan, ready, finish: Callable):
        owner = plan.owner
        push_bytes, pull_bytes = plan.bytes.push, plan.bytes.pull
        n = self.num_workers
        m_owner = self._rack_members(self._rack_of(owner)) if self.topo else n
        intra, cross = m_owner - 1, n - m_owner
        # Push: every worker sends once; the owner's downlink drains the
        # fan FIFO (intra at NIC rate, cross at the slower of NIC/wire).
        self.up[0] = np.maximum(ready, self.up[0]) + self._tn(push_bytes)
        drain = (np.maximum(ready, self.down[0])
                 + intra * self._tn(push_bytes)
                 + cross * self._tfs(push_bytes))
        all_sent = np.maximum(self.up[0], drain)
        if self.topo and cross:
            o_rack = self._rack_of(owner)
            per_src = self._wire(push_bytes)
            for rack, (members, _cf) in enumerate(self._rack_profile()):
                if rack == o_rack or members == 0:
                    continue
                self.rku[rack] = (np.maximum(ready, self.rku[rack])
                                  + members * per_src)
                all_sent = np.maximum(all_sent, self.rku[rack])
            self.rkd[o_rack] = (np.maximum(ready, self.rkd[o_rack])
                                + cross * self._wire(push_bytes))
            all_sent = np.maximum(all_sent, self.rkd[o_rack])

        def tail_phase(call):
            # Pull: the owner's uplink serializes the fan; every worker
            # receives one copy.
            fan = (np.maximum(call, self.up[0])
                   + intra * self._tn(pull_bytes)
                   + cross * self._tfs(pull_bytes))
            self.down[0] = np.maximum(call, self.down[0]) \
                + self._tn(pull_bytes)
            fin = np.maximum(fan, self.down[0])
            if self.topo and cross:
                o_rack = self._rack_of(owner)
                self.rku[o_rack] = (np.maximum(call, self.rku[o_rack])
                                    + cross * self._wire(pull_bytes))
                fin = np.maximum(fin, self.rku[o_rack])
                for rack, (members, _cf) in enumerate(self._rack_profile()):
                    if rack == o_rack or members == 0:
                        continue
                    self.rkd[rack] = (np.maximum(call, self.rkd[rack])
                                      + members * self._wire(pull_bytes))
                    fin = np.maximum(fin, self.rkd[rack])
            finish(fin)

        self._at(self._pull_call(all_sent), tail_phase)

    def _agg_sfb(self, plan: UnitPlan, ready, finish: Callable):
        sf = plan.bytes.push
        n = self.num_workers
        slot = self._tn(sf)
        members = self._rack_members(0) if self.topo else n
        intra, cross = members - 1, n - members
        drain = intra * slot + cross * self._tfs(sf)
        # Symmetric convoy: every NIC sends N-1 and receives N-1 copies;
        # from an idle network the exact flat finish is (2N-3) slots
        # (pipeline fill of N-2 plus one receiver's full drain).
        start = np.maximum(ready, np.maximum(self.up[0], self.down[0]))
        fin = start + (n - 2) * slot + drain
        self.up[0] = np.maximum(ready, self.up[0]) + drain
        self.down[0] = np.maximum(ready, self.down[0]) + drain
        if self.topo and cross:
            # The broadcast convoys sweep the racks in sender order, so the
            # per-copy max-coupling of (source rack up, dest rack down)
            # ratchets every rack-wire clock to the global maximum: cross
            # copies serialize globally, not per rack pair.  Book the whole
            # unit's cross traffic on one lockstep clock.
            lock = np.maximum(ready, self.rku[0])
            for rack in range(self.nracks):
                lock = np.maximum(lock,
                                  np.maximum(self.rku[rack], self.rkd[rack]))
            lock = lock + n * cross * self._wire(sf)
            for rack in range(self.nracks):
                self.rku[rack] = lock
                self.rkd[rack] = lock
            fin = np.maximum(fin, lock + self._tfs(sf))
        finish(fin)

    def _agg_tree(self, plan: UnitPlan, ready, finish: Callable):
        owner, dense = plan.owner, plan.bytes.push
        racks = self.plan.shape.racks
        nracks = len(racks)
        members = len(racks[0])
        forward_t = self._tfs(dense) if self.topo else self._tn(dense)
        # Rack-local aggregation onto each leader's downlink.
        rack_done = (np.maximum(ready, self.down[0])
                     + (members - 1) * self._tn(dense))
        # Leaders forward to the root, serialized on the root's downlink.
        root_done = rack_done + max(0, nracks - 1) * forward_t
        if self.topo and nracks > 1:
            o_rack = self._rack_of(owner)
            for rack in range(self.nracks):
                if rack == o_rack:
                    self.rkd[rack] = (np.maximum(rack_done, self.rkd[rack])
                                      + (nracks - 1) * self._wire(dense))
                    root_done = np.maximum(root_done, self.rkd[rack])
                else:
                    self.rku[rack] = (np.maximum(rack_done, self.rku[rack])
                                      + self._wire(dense))
                    root_done = np.maximum(root_done, self.rku[rack])
        self.down[0] = root_done

        def distribute_phase(call):
            # Root fans to the leaders (serialized on its uplink), each
            # leader then broadcasts inside its rack.
            dist = np.maximum(call, self.up[0]) \
                + max(0, nracks - 1) * forward_t
            fin = dist + (members - 1) * self._tn(dense)
            self.up[0] = fin
            self.down[0] = np.maximum(self.down[0], fin)
            if self.topo and nracks > 1:
                o_rack = self._rack_of(owner)
                for rack in range(self.nracks):
                    if rack == o_rack:
                        self.rku[rack] = (np.maximum(call, self.rku[rack])
                                          + (nracks - 1) * self._wire(dense))
                        fin = np.maximum(fin, self.rku[rack])
                    else:
                        self.rkd[rack] = (np.maximum(call, self.rkd[rack])
                                          + self._wire(dense))
                        fin = np.maximum(fin, self.rkd[rack])
            finish(fin)

        self._at(self._pull_call(root_done), distribute_phase)


class _TimedPhase:
    """Phase callback carrying its (possibly vector) firing time.

    The heap orders by a scalar key; the stored time preserves the full
    axis vector so vectorized bookings stay exact per element.
    """

    __slots__ = ("when", "fn")

    def __init__(self, when, fn: Callable):
        self.when = when
        self.fn = fn

    def __call__(self, _key: float) -> None:
        self.fn(self.when)


#: Replay kinds a backend may declare (``UnitBytes.replay``): each is one
#: phase structure as its (detail, aggregate) tier implementations,
#: parameterised only by the unit's resolved owner and
#: :class:`~repro.comm.backend.UnitBytes`.
REPLAYS: Dict[str, Tuple[Callable, Callable]] = {
    "fabric": (FluidSimulator._sync_ps_fine, FluidSimulator._agg_ps_fine),
    "owner_fan": (FluidSimulator._sync_owner_fan,
                  FluidSimulator._agg_owner_fan),
    "sfb": (FluidSimulator._sync_sfb, FluidSimulator._agg_sfb),
    "ring": (FluidSimulator._sync_ring, FluidSimulator._sync_ring),
    "tree": (FluidSimulator._sync_tree, FluidSimulator._agg_tree),
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


# -- vectorized axis sweeps --------------------------------------------------
#: Warm aggregate-tier simulators, one per what-if query shape.
_AXIS_SIMULATORS = Memo(registry_generation)


def sweep_axis(model: ModelSpec, system: SystemConfig,
               cluster: ClusterConfig,
               bandwidths_gbps: Sequence[float],
               batch_size: Optional[int] = None,
               workload: Optional[IterationWorkload] = None,
               background_jobs: int = 0) -> np.ndarray:
    """Iteration seconds across a whole bandwidth axis in one fluid pass.

    The entire axis is evaluated as numpy array ops over the precomputed
    per-unit byte terms: every busy clock is a vector over the axis, so
    adjacent sweep points share all structure derivation.  Repeat calls
    with the same workload, system and cluster (bandwidth aside) reuse the
    memoized simulator -- resolved plan and rack profile survive a change
    of axis, so incremental what-if re-evaluation only pays the numpy
    arithmetic (:func:`repro.memo.clear_all` forces the cold path).

    Returns:
        ``np.ndarray`` of iteration seconds, same length as the axis.
    """
    workload = workload or build_workload(model, batch_size=batch_size,
                                          gpu=cluster.gpu)
    # Keyed on the whole frozen inputs -- only the bandwidth, which is the
    # axis itself, is normalised away -- so no system or cluster field can
    # be forgotten: a query differing in any of them builds its own state.
    simulator = _AXIS_SIMULATORS.get(
        (workload, system, replace(cluster, bandwidth_gbps=1.0),
         int(background_jobs)),
        lambda: FluidSimulator(workload, cluster, system, mode="aggregate",
                               background_jobs=background_jobs))
    axis = np.asarray([
        cluster.with_bandwidth(bw).effective_bandwidth_bps
        for bw in bandwidths_gbps
    ], dtype=float)
    return np.asarray(simulator.iteration_seconds(bandwidth_bps=axis))
