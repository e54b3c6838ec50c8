"""Hierarchical parameter server: rack-local aggregation, then a root shard.

Datacenter Ethernet is typically oversubscribed above the top-of-rack
switch, so a flat parameter server pays cross-rack bandwidth for every
worker's gradient.  The hierarchical scheme aggregates gradients inside
each rack first (workers push to their rack leader), ships one pre-reduced
gradient per rack to the root shard that owns the layer, and distributes
the updated parameters back down the same tree -- cross-rack traffic drops
from ``P1`` flows to ``ceil(P1 / R)`` flows per layer.

This module is the scheme's trainer half: the functional substrate
(:class:`HierarchicalParameterServer`, which reuses
:class:`~repro.comm.parameter_server.ShardedParameterServer` as its root)
and the per-layer syncer (:class:`HierPSSyncer`).  Its plan half -- the
Algorithm-1 cost and the four-phase tree schedule -- is
:class:`~repro.comm.backend.HierPSBackend`, which imports this module on
its first ``build_substrate`` / ``make_syncer``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.backend import DEFAULT_RACK_SIZE
from repro.comm.parameter_server import ShardedParameterServer
from repro.core.syncer import Syncer
from repro.exceptions import CommunicationError, TrainingError
from repro.nn.optim import SGD, reduce_in_worker_order

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
