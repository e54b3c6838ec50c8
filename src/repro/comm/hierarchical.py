"""Hierarchical parameter server: rack-local aggregation, then a root shard.

Datacenter Ethernet is typically oversubscribed above the top-of-rack
switch, so a flat parameter server pays cross-rack bandwidth for every
worker's gradient.  The hierarchical scheme aggregates gradients inside
each rack first (workers push to their rack leader), ships one pre-reduced
gradient per rack to the root shard that owns the layer, and distributes
the updated parameters back down the same tree -- cross-rack traffic drops
from ``P1`` flows to ``ceil(P1 / R)`` flows per layer.

Like :mod:`repro.comm.ring`, this module is a complete self-registering
communication backend: functional substrate
(:class:`HierarchicalParameterServer`, which reuses
:class:`~repro.comm.parameter_server.ShardedParameterServer` as its root),
trainer syncer (:class:`HierPSSyncer`), the simulators' four-phase tree
schedule (:meth:`HierPSBackend.unit_bytes`) and Algorithm-1 cost
(:class:`HierPSBackend`).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.backend import (
    DEFAULT_RACK_SIZE,
    CommBackend,
    Peers,
    Phase,
    PhaseKind,
    Scope,
    TrainerContext,
    UnitBytes,
    WorkerResources,
    reduce_in_worker_order,
    register_backend,
)
from repro.comm.parameter_server import ShardedParameterServer
from repro.core.syncer import Syncer
from repro.exceptions import CommunicationError, TrainingError
from repro.nn.optim import SGD

#: A layer's parameters or gradients: parameter name -> array.
ArrayDict = Dict[str, np.ndarray]


class HierarchicalParameterServer:
    """Two-level BSP parameter server: rack accumulators over a root PS.

    Workers are grouped into racks of ``rack_size`` consecutive ids.  A
    ``push`` lands in the worker's rack accumulator; once the rack is
    complete its gradients are reduced **in worker-id order** and forwarded
    (as one contribution per rack) to the root
    :class:`ShardedParameterServer`, which applies the optimiser step after
    the last rack arrives -- rack forwarding order is likewise fixed by the
    root's ordered reduction, so the whole tree is bit-reproducible.

    With ``aggregation="mean"`` each rack's partial sum is pre-scaled by
    ``1/P1`` and the root aggregates with ``"sum"``, which reproduces the
    flat PS mean exactly (up to float associativity).
    """

    def __init__(self, initial_params: Dict[str, ArrayDict], num_workers: int,
                 rack_size: int = DEFAULT_RACK_SIZE,
                 optimizer: Optional[SGD] = None, aggregation: str = "mean"):
        if num_workers < 1:
            raise CommunicationError(f"num_workers must be >= 1, got {num_workers}")
        if rack_size < 1:
            raise CommunicationError(f"rack_size must be >= 1, got {rack_size}")
        if aggregation not in ("mean", "sum"):
            raise CommunicationError(
                f"aggregation must be 'mean' or 'sum', got {aggregation!r}"
            )
        self.num_workers = int(num_workers)
        self.rack_size = int(rack_size)
        self.num_racks = math.ceil(self.num_workers / self.rack_size)
        self.aggregation = aggregation
        self.root = ShardedParameterServer(
            initial_params, num_workers=self.num_racks, optimizer=optimizer,
            aggregation="sum", ordered=True,
        )
        self._pending: Dict[Tuple[str, int], Dict[int, ArrayDict]] = {}
        self._lock = threading.Lock()

    # -- topology ---------------------------------------------------------------
    def rack_of(self, worker_id: int) -> int:
        """Rack index of a worker."""
        if not 0 <= worker_id < self.num_workers:
            raise CommunicationError(
                f"worker_id {worker_id} out of range [0, {self.num_workers})"
            )
        return worker_id // self.rack_size

    def rack_members(self, rack: int) -> List[int]:
        """Worker ids aggregated under one rack."""
        first = rack * self.rack_size
        return list(range(first, min(first + self.rack_size, self.num_workers)))

    def leader_of(self, rack: int) -> int:
        """The rack's aggregating worker (its first member)."""
        return self.rack_members(rack)[0]

    # -- worker-facing API --------------------------------------------------------
    def push(self, worker_id: int, layer: str, grads: ArrayDict) -> int:
        """Contribute one worker's gradient; returns its wire bytes.

        The rack-completing push reduces the rack and forwards the partial
        aggregate to the root shard; the last rack's forward triggers the
        root's optimiser step.
        """
        rack = self.rack_of(worker_id)
        nbytes = sum(int(g.nbytes) for g in grads.values())
        key = (layer, rack)
        with self._lock:
            # The root's abort rule covers the rack buffers too: nothing
            # is buffered on an aborted tree.
            self.root._admit(rack, "push to layer {!r} {verb}", layer)
            pending = self._pending.setdefault(key, {})
            if worker_id in pending:
                raise CommunicationError(
                    f"worker {worker_id} already pushed {layer!r} this iteration"
                )
            pending[worker_id] = grads
            if len(pending) < len(self.rack_members(rack)):
                return nbytes
            del self._pending[key]
        partial = self._reduce_rack(pending)
        self.root.push(rack, layer, partial)
        return nbytes

    def pull(self, worker_id: int, layer: str, min_version: int,
             timeout: Optional[float] = 30.0,
             out: Optional[ArrayDict] = None) -> ArrayDict:
        """Block until the root reaches ``min_version``; see the root's ``pull``."""
        return self.root.pull(worker_id, layer, min_version, timeout=timeout,
                              out=out)

    def version(self, layer: str) -> int:
        """Aggregated updates applied to ``layer`` at the root."""
        return self.root.version(layer)

    def global_params(self, layer: str) -> ArrayDict:
        """Copy of the root's current global parameters of ``layer``."""
        return self.root.global_params(layer)

    # -- fault tolerance ----------------------------------------------------------
    def checkpoint(self, include_optimizer: bool = False) -> Dict[str, ArrayDict]:
        """Snapshot the root's global state (rack buffers never persist)."""
        return self.root.checkpoint(include_optimizer=include_optimizer)

    def restore(self, snapshot: Dict[str, ArrayDict]) -> None:
        """Restore the root and discard partially-aggregated rack buffers."""
        with self._lock:
            self._pending.clear()
        self.root.restore(snapshot)

    def abort(self, exc: BaseException) -> None:
        """Wake every blocked root ``pull`` with a failure."""
        self.root.abort(exc)

    def clear_abort(self) -> None:
        """Re-arm the tree after recovery handled the abort."""
        self.root.clear_abort()

    # -- reduction ----------------------------------------------------------------
    def _reduce_rack(self, pending: Dict[int, ArrayDict]) -> ArrayDict:
        """Sum one rack's contributions in worker-id order (pre-scaled mean)."""
        divisor = self.num_workers if self.aggregation == "mean" else None
        return reduce_in_worker_order(pending, mean_divisor=divisor)


class HierPSSyncer(Syncer):
    """Per-layer syncer pushing through the rack tree, pulling the root."""

    def __init__(self, worker_id: int, layer, hier: HierarchicalParameterServer,
                 aggregation: str = "mean", policy=None,
                 sync_timeout: Optional[float] = 30.0):
        self.hier = hier
        super().__init__(worker_id, layer, "hierps",
                         aggregation=aggregation, policy=policy,
                         sync_timeout=sync_timeout)

    def _validate_backends(self) -> None:
        if self.hier is None:
            raise TrainingError(
                f"syncer for {self.layer.name!r}: hierarchical PS needs a "
                f"HierarchicalParameterServer"
            )

    def _scheme_handler(self):
        return self._sync_hier

    def _sync_hier(self, iteration: int) -> None:
        assert self._staged_grads is not None
        sent = self.hier.push(self.worker_id, self.layer.name, self._staged_grads)
        params = self.hier.pull(self.worker_id, self.layer.name,
                                min_version=iteration + 1,
                                timeout=self.sync_timeout,
                                out=self.layer.params)
        self.stats.bytes_sent += sent
        self.stats.bytes_received += sum(int(p.nbytes) for p in params.values())


class HierPSBackend(CommBackend):
    """Rack-aggregated parameter server as a pluggable backend."""

    name = "hierps"
    #: Joins Algorithm 1 only on oversubscribed networks: rack aggregation
    #: shrinks cross-rack traffic from one flow per worker to one per rack.
    topology_candidate = True
    hybrid_rank = 3  # never steals a flat tie from SFB (0) or PS (1)

    def _cost_rack_size(self, num_workers: int, topology=None) -> int:
        """Aggregation rack size: physical racks when oversubscribed."""
        if topology is not None and not topology.is_flat:
            return topology.nodes_per_rack(num_workers)
        return DEFAULT_RACK_SIZE

    def cost(self, m, n, num_workers, num_servers, batch_size,
             bandwidth_bps=None, topology=None):
        """Transmit+receive volume at the busiest node of the tree.

        A rack leader exchanges the whole rack's gradients and parameters
        (``2 R M N``); the root owner exchanges one aggregate per rack
        (``2 ceil(P1/R) M N``).  The hotspot is whichever fan is wider.
        On an oversubscribed cluster the tree follows the physical racks,
        and the cross-rack premium applies only to the per-rack aggregates
        (see :meth:`rack_uplink_params`).
        """
        if num_workers <= 1:
            return 0.0
        rack_size = self._cost_rack_size(num_workers, topology)
        local_fan = min(rack_size, num_workers)
        num_racks = math.ceil(num_workers / rack_size)
        flat = 2.0 * m * n * max(local_fan, num_racks)
        return self._topology_cost(flat, m, n, num_workers, num_servers,
                                   batch_size, topology)

    def rack_uplink_params(self, m, n, num_workers, num_servers, batch_size,
                           topology):
        # Only the pre-reduced per-rack aggregates cross rack boundaries.
        # The root owner's rack is the hotspot: every other rack's
        # aggregate comes in and the updated parameters go back out.
        return 2.0 * m * n * (topology.num_racks(num_workers) - 1)

    def latency_messages(self, num_workers, num_servers):
        # Two tree levels, each a push + pull round trip.
        return 4.0

    def unit_bytes(self, unit, shape, owner):
        dense = unit.param_bytes / self.compression
        # A member sends one gradient up and gets one parameter copy back.
        # A leader instead fans in and out its rack's other members and,
        # unless it is the root owner itself, exchanges one aggregate with
        # the root; the root sees one such exchange per remote leader.
        # Leaders are every rack_size-th worker: the full racks' (split
        # around an owner that leads one), then a short last rack's.
        size = shape.rack_size
        full, short = divmod(shape.num_workers, size)
        end = full * size
        leads = owner < shape.num_workers and owner % size == 0
        remote_leaders = shape.num_racks - leads

        def lead(nodes: range, members: int, remote: bool = True):
            return nodes, 2.0 * dense * (members - 2 + remote)

        if leads and owner < end:
            leaders = [lead(range(0, owner, size), size),
                       lead(range(owner + size, end, size), size),
                       lead(range(owner, owner + 1), size, remote=False)]
        else:
            leaders = [lead(range(0, end, size), size)]
        if short:
            leaders.append(lead(range(end, end + 1), short, owner != end))
        # The tree follows ``shape.rack_size`` -- the physical racks of an
        # oversubscribed cluster (the whole point of the scheme), logical
        # racks of DEFAULT_RACK_SIZE on a flat one: members push to their
        # leader, each complete rack's leader forwards one aggregate to the
        # root owner, and once every aggregate arrived the leaders fetch
        # the fresh parameters and redistribute them inside their racks.
        return UnitBytes(
            worker=2.0 * dense,
            owner=2.0 * dense * remote_leaders,
            nodes=tuple(entry for entry in leaders if entry[0]),
            phases=(
                Phase(PhaseKind.FAN_IN, Peers.RACK_MEMBERS,
                      Peers.RACK_LEADERS, dense, scope=Scope.GROUP),
                Phase(PhaseKind.FAN_IN, Peers.RACK_LEADERS, Peers.OWNER,
                      dense),
                Phase(PhaseKind.FAN_OUT, Peers.OWNER, Peers.RACK_LEADERS,
                      dense, scope=Scope.GROUP, gated=True),
                Phase(PhaseKind.BROADCAST, Peers.RACK_LEADERS,
                      Peers.RACK_MEMBERS, dense, scope=Scope.GROUP,
                      rejoin=True)))

    def build_substrate(self, initial_layers, ctx: TrainerContext):
        return HierarchicalParameterServer(
            initial_layers, ctx.num_workers,
            optimizer=ctx.make_optimizer(), aggregation=ctx.aggregation,
        )

    def make_syncer(self, layer, substrate, resources: WorkerResources,
                    ctx: TrainerContext, policy=None):
        return HierPSSyncer(resources.worker_id, layer, substrate,
                            aggregation=ctx.aggregation,
                            policy=ctx.policy if policy is None else policy,
                            sync_timeout=ctx.sync_timeout)


HIERPS_BACKEND = register_backend(HierPSBackend())
