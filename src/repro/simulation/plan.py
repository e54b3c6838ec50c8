"""The resolved per-unit synchronization plan both engines execute.

Poseidon's coordinator makes one static decision per layer -- which scheme
carries it and how many bytes that puts on the wire, from the layer's
shape, its factor rows (batch size times factor rank) and the cluster
(Algorithm 1).  :func:`resolve_plan`
makes it once per ``(workload, system, cluster)``: check the scheme can
carry the system's compressor, assign every unit a scheme
(:func:`decide_schemes`), apply the bucketed wire granularity, place each
unit on its owner shard and ask the scheme's backend for the unit's
:class:`~repro.comm.backend.Phase` schedule, message sizes included,
checked here against the closed phase vocabulary.  The DES interpreter and
both fluid tiers read the frozen :class:`SyncPlan`; none of them prices a
payload or sequences a scheme itself.  Every node's traffic is a fold over
the same phases (:func:`node_traffic`), so a scheme is stated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.machine import FABRIC
from repro.comm.backend import (
    PHASE_PEERS,
    CommBackend,
    Peers,
    Phase,
    PhaseKind,
    Scope,
    SyncShape,
    check_compression,
    choose_scheme,
    get_backend,
    registry_generation,
    tree_rack_size,
)
from repro.comm.wire import unit_compression_flops
from repro.config import ClusterConfig, Partitioning, SystemConfig
from repro.exceptions import ConfigurationError
from repro.memo import Memo
from repro.simulation.workload import IterationWorkload, SyncUnit

__all__ = ["SyncPlan", "UnitPlan", "decide_schemes", "fan_groups",
           "node_traffic", "resolve_plan"]

#: Plans kept by the plan memo (and DES lowerings by theirs): the most
#: recently used.  A what-if query over a cluster no run asks about again
#: leaves its plans behind; ``runner --quick`` resolves 209 distinct plans
#: and comes back to early ones late, so fewer would re-resolve some.
MEMO_PLANS = 256

#: Plans never depend on the link bandwidth, so a bandwidth axis shares one.
_PLANS = Memo(registry_generation, limit=MEMO_PLANS)


def decide_schemes(workload: IterationWorkload, comm: str,
                   cluster: ClusterConfig) -> Dict[str, str]:
    """Unit name -> scheme name (:func:`~repro.comm.backend.choose_scheme`).

    On a rack-oversubscribed ``cluster`` the ``"hybrid"`` decisions are
    rack-aware (cross-rack premiums plus the topology-candidate
    collectives); a flat one reproduces the paper's Algorithm-1 table.
    """
    return {
        unit.name: choose_scheme(comm, unit.fc_dims, unit.sf_eligible,
                                 cluster, workload.batch_size,
                                 factor_rank=unit.factor_rank)
        for unit in workload.units
    }


@dataclass(frozen=True)
class UnitPlan:
    """Everything static about synchronizing one unit.

    Attributes:
        unit: the (possibly bucket-merged) sync unit.
        backend: the registered backend of the scheme that carries it.
        owner: node of the server shard the unit is placed on (round-robin
            over the server nodes; the root of owner-fan and tree schemes).
        phases: the backend's declared schedule for the unit, message
            sizes included.
        encode_seconds: GPU seconds the active compressor spends encoding
            the unit before its send (0 when it ships dense).
    """

    unit: SyncUnit
    backend: CommBackend
    owner: int
    phases: Tuple[Phase, ...]
    encode_seconds: float


@dataclass(frozen=True, eq=False)
class SyncPlan:
    """The resolved synchronization plan of one (workload, system, cluster).

    Plans are memoized, so identity is equality (and the hash engines key
    their own derived views on).

    Attributes:
        workload: the workload at its wire granularity (bucketed when the
            system sets ``bucket_bytes``).
        shape: the cluster/system shape the payloads were priced under.
        units: one :class:`UnitPlan` per workload unit, in forward order.
        node_symmetric: every node's channels see the same bytes at the
            same instants, so an engine may run node 0 for all ``P``.  The
            network is flat (rack members share their switch: PS at 4:1
            6.031 -> 2.343 s when forced), every worker hosts a shard (of 8
            shards node 0 hosts one: 33.3 -> 50.6 GB; dedicated servers
            host them all: 36.8 -> 19.5 GB), and every phase is a fabric
            phase, an all-to-all broadcast or a ring step -- anything else
            lands on a peer's NIC (coarse PS 18.36 -> 1.73 s).  The forced
            figures are the DES's on the 16-node vgg19 point.
    """

    workload: IterationWorkload
    shape: SyncShape
    units: Tuple[UnitPlan, ...]
    node_symmetric: bool

    @cached_property
    def schemes(self) -> Dict[str, str]:
        """Unit name -> scheme name (shared; do not mutate)."""
        return {plan.unit.name: plan.backend.name for plan in self.units}

    @cached_property
    def by_name(self) -> Dict[str, UnitPlan]:
        """Unit name -> :class:`UnitPlan` (shared; do not mutate)."""
        return {plan.unit.name: plan for plan in self.units}


def resolve_plan(workload: IterationWorkload, system: SystemConfig,
                 cluster: ClusterConfig) -> SyncPlan:
    """Resolve (or fetch the memoized) :class:`SyncPlan`.

    Raises:
        ConfigurationError: on a compressor the system's ``comm`` cannot
            carry (:func:`~repro.comm.backend.check_compression`), a unit
            whose scheme cannot run under the system's policy (the
            trainer's :meth:`~repro.comm.backend.CommBackend.supports_policy`
            check), or a scheme whose backend declares no ``unit_phases``,
            no phases, or a phase outside the vocabulary (unknown kind or
            peer role, a repeat count no interpreter runs, a negative or
            non-finite size).
    """
    return _PLANS.get((workload, system, replace(cluster, bandwidth_gbps=1.0)),
                      lambda: _resolve(workload, system, cluster))


def _resolve(workload: IterationWorkload, system: SystemConfig,
             cluster: ClusterConfig) -> SyncPlan:
    # Imported here: bucketing imports repro.simulation.workload, whose
    # package imports the engines (and through them this module).
    from repro.comm.bucketing import bucket_workload

    compression = check_compression(system.comm, system.compressor)
    num_workers, num_servers = cluster.num_workers, cluster.num_servers
    schemes = decide_schemes(workload, system.comm, cluster)
    workload, schemes = bucket_workload(workload, schemes, system.bucket_bytes)
    shape = SyncShape(
        num_workers=num_workers, num_servers=num_servers,
        batch_size=workload.batch_size,
        fine=system.partitioning is Partitioning.FINE,
        colocated=cluster.colocate_servers,
        rack_size=tree_rack_size(cluster),
        compression=compression)
    units = []
    for index, unit in enumerate(workload.units):
        backend = get_backend(schemes[unit.name])
        backend.check_policy(system.policy)
        owner = cluster.server_node(index % num_servers)
        encode_seconds = 0.0
        if compression is not None and backend.compressible:
            encode_seconds = cluster.gpu.compute_seconds(unit_compression_flops(
                compression, unit.fc_dims, unit.payload_parts))
        phases = backend.unit_phases(unit, shape, owner)
        _check_phases(backend.name, phases, shape)
        units.append(UnitPlan(unit, backend, owner, phases, encode_seconds))
    symmetric = (cluster.is_flat_topology and cluster.colocate_servers
                 and num_servers == num_workers and all(
                     phase.kind in _SYMMETRIC_KINDS or (
                         phase.kind is PhaseKind.BROADCAST
                         and phase.src is Peers.WORKERS)
                     for plan in units for phase in plan.phases))
    return SyncPlan(workload, shape, tuple(units), symmetric)


_FABRIC_KINDS = (PhaseKind.FABRIC_OUT, PhaseKind.FABRIC_IN)
#: Phase kinds that book only a node's own channels, or lock every node's.
_SYMMETRIC_KINDS = _FABRIC_KINDS + (PhaseKind.RING_STEP,)
_RACK_PEERS = (Peers.RACK_LEADERS, Peers.RACK_MEMBERS)


def _check_phases(backend: str, phases: Sequence[Phase],
                  shape: SyncShape) -> None:
    """Refuse a schedule no interpreter could run, before any engine exists."""
    problem = None if phases else "it declares no phases"
    for index, phase in enumerate(phases):
        before = phases[index - 1] if index else None
        racked = phase.src in _RACK_PEERS or phase.dst in _RACK_PEERS
        if phase.kind not in PHASE_PEERS:
            problem = (f"unknown phase kind {phase.kind!r} (known: "
                       f"{[kind.value for kind in PhaseKind]})")
        elif (phase.src, phase.dst) not in PHASE_PEERS[phase.kind]:
            problem = (f"unknown peer roles {phase.src!r} -> {phase.dst!r} "
                       f"for a {phase.kind.value} phase")
        elif phase.kind is PhaseKind.FABRIC_IN and (
                before is None or before.kind is not PhaseKind.FABRIC_OUT):
            problem = "a fabric_in phase must directly follow a fabric_out"
        elif (phase.kind is PhaseKind.BROADCAST and phase.src is Peers.OWNER
                and not shape.colocated):
            problem = ("an owner broadcast needs the owner to be a worker "
                       "(colocated shards)")
        elif not racked and Scope.GROUP in (phase.scope,
                                            before and before.scope):
            problem = (f"phase {index} ({phase.kind.value}) is scoped per "
                       f"rack but names no rack peers")
        elif phase.repeat < 1 or (phase.repeat > 1
                                  and phase.kind is not PhaseKind.RING_STEP):
            problem = (f"phase {index} ({phase.kind.value}) repeats "
                       f"{phase.repeat} times (>= 1; only a ring_step > 1)")
        elif not (0.0 <= phase.nbytes < math.inf
                  and 0.0 <= phase.hub_bytes < math.inf):
            problem = (f"phase {index} ({phase.kind.value}) moves a negative "
                       f"or non-finite size ({phase.nbytes}, {phase.hub_bytes})")
    if problem:
        raise ConfigurationError(
            f"backend {backend!r} cannot be simulated: {problem}")


def fan_groups(phase: Phase, shape: SyncShape, owner: int,
               rack: Optional[int] = None
               ) -> List[Tuple[Optional[int], int, Sequence[int]]]:
    """Node ids behind a phase's symbolic peers, for engines that need them.

    Returns ``(rack, hub, members)`` entries -- on every rack of
    ``shape.racks``, or on ``rack`` only.  ``members`` are the non-hub side
    (a fan-in's senders, a fan-out's or broadcast's receivers) and include
    the hub itself when it belongs to the role; a node's own copy never
    crosses the network.  ``rack`` is ``None`` on entries that span the
    cluster: the owner's or the fabric's one, an all-to-all's one per worker.
    """
    workers = range(shape.num_workers)
    inbound = phase.kind in (PhaseKind.FAN_IN, PhaseKind.FABRIC_OUT)
    hub_role, member_role = ((phase.dst, phase.src) if inbound
                             else (phase.src, phase.dst))
    if hub_role is Peers.WORKERS:
        return [(None, worker, workers) for worker in workers]
    if Peers.RACK_LEADERS not in (hub_role, member_role):
        return [(None, FABRIC if hub_role is Peers.SHARDS else owner, workers)]
    racks = (list(enumerate(shape.racks)) if rack is None
             else [(rack, shape.racks[rack])])
    if hub_role is Peers.RACK_LEADERS:
        return [(index, members[0], members) for index, members in racks]
    return [(rack, owner, tuple(members[0] for _, members in racks))]


def node_traffic(plan: SyncPlan, cluster: ClusterConfig) -> List[float]:
    """Sent+received bytes of every node for one sync, folded from the phases.

    Every ``(kind, src, dst)`` pair of
    :data:`~repro.comm.backend.PHASE_PEERS` has a rule (pairs that move
    alike share one) charging a phase's messages to roles: every worker,
    every node hosting a shard, the unit's owner, every full rack's leader,
    the part-filled last rack's leader.  A node moves the sum of the roles
    it holds.  A node's own copy never crosses the network, so a colocated
    owner, or a leader that owns the unit, exchanges with one peer fewer.
    O(units x phases), then one pass over the nodes: a result carries one
    figure per node.  The DES measures the same figures at its NICs.
    """
    shape = plan.shape
    workers, size = shape.num_workers, shape.rack_size
    totals = [0.0] * cluster.num_nodes
    if workers <= 1:
        return totals
    short = workers % size
    # Copies an owner fan adds at the owner beyond a worker share: one per
    # worker, less a colocated owner's own and the one its share counted.
    fan = workers - 2 if shape.colocated else workers
    worker = server = full = last = 0.0
    for unit in plan.units:
        leads = unit.owner < workers and unit.owner % size == 0
        w = s = o = lead_full = lead_last = 0.0
        for phase in unit.phases:
            n, roles = phase.nbytes, (phase.src, phase.dst)
            if phase.kind is PhaseKind.RING_STEP:
                # One chunk out and one in per step.
                w += 2.0 * phase.repeat * n
            elif phase.kind in _FABRIC_KINDS:
                w += n
                s += phase.hub_bytes
            elif Peers.RACK_MEMBERS in roles:
                # A member's one copy; a leader moves its other members'.
                w += n
                lead_full += (size - 2) * n
                lead_last += (short - 2) * n
            elif Peers.RACK_LEADERS in roles:
                # One copy between every leader and the owner; a leading
                # owner keeps its own, which its leader share counted.
                lead_full += n
                lead_last += n
                o += (shape.num_racks - 2 * leads) * n
            elif Peers.OWNER in roles:
                w += n
                o += fan * n
            else:  # all-to-all: one copy to and one from every peer
                w += 2.0 * (workers - 1) * n
        worker += w
        server += s
        full += lead_full
        last += lead_last
        totals[unit.owner] += o
    for leader in range(0, workers, size):
        totals[leader] += full if leader + size <= workers else last
    for node in range(workers):
        totals[node] += worker
    for node in set(cluster.server_nodes):
        totals[node] += server
    return totals
