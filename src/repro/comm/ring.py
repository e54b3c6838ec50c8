"""Ring all-reduce: the substrate of a bandwidth-optimal peer-to-peer scheme.

The classic chunked ring (Baidu/Horovod style): the ``P`` workers form a
logical ring and run ``2(P-1)`` lockstep steps -- ``P-1`` reduce-scatter
steps followed by ``P-1`` all-gather steps -- each moving ``1/P`` of the
gradient to the next neighbour.  Every worker therefore sends (and receives)
``2 (P-1)/P`` times the gradient size regardless of cluster size, which is
the bandwidth-optimal bound for an all-reduce.  Like SFB, the scheme is
server-free: every replica applies the same aggregate update locally, so
replicas stay consistent without a parameter server.

This module is the scheme's trainer half: the functional substrate
(:class:`RingAllReducer`) and the per-layer syncer (:class:`RingSyncer`).
Its plan half -- the Algorithm-1 cost and the one ring-step
:class:`~repro.comm.backend.Phase` the simulators run -- is
:class:`~repro.comm.backend.RingBackend`, which imports this module on its
first ``build_substrate`` / ``make_syncer``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.consistency import KeyedBoard
from repro.core.syncer import Syncer
from repro.exceptions import CommunicationError, TrainingError
from repro.nn.optim import ArrayDict, fold_per_key


class RingAllReducer(KeyedBoard):
    """A BSP all-reduce board with ring wire-cost accounting.

    Functionally the all-reduce is modelled like the SFB bulletin board:
    every worker posts its gradient dict for (layer, iteration), the
    collectors fold all contributions **in worker-id order**, one parameter
    name per block (so the result is bit-identical run-to-run regardless of
    thread arrival order), and the reduced dict is shared read-only by every
    collector.  The wire cost charged per worker is the chunked ring's
    ``2 (P-1)/P`` of the dense gradient size in each direction.
    """

    _WHAT = "ring all-reduce of {!r}@{} {verb}"

    def wire_bytes(self, dense_bytes: int) -> int:
        """Ring traffic one worker sends (= receives) for a dense payload."""
        if self.num_workers == 1:
            return 0
        return int(dense_bytes * 2 * (self.num_workers - 1) / self.num_workers)

    def allreduce(self, worker_id: int, layer: str, iteration: int,
                  grads: ArrayDict, aggregation: str = "mean",
                  timeout: Optional[float] = 30.0,
                  nbytes: Optional[int] = None
                  ) -> Tuple[ArrayDict, int, int]:
        """Contribute ``grads`` and block for the aggregate of all workers.

        Args:
            nbytes: wire size of one worker's payload; defaults to the
                dense size of ``grads``.  Compressed payloads pass the
                compressed size here -- both ring phases carry the
                compressed representation, so the ``2 (P-1)/P`` factor
                applies to it directly.

        Returns:
            ``(reduced, bytes_sent, bytes_received)``.  The reduced arrays
            are shared between all collectors of the iteration and must be
            treated as read-only (optimisers read gradients, never write
            them).

        Raises:
            CommunicationError: on double contribution.
            SyncTimeout: on timeout.
        """
        if aggregation not in ("mean", "sum"):
            raise CommunicationError(
                f"aggregation must be 'mean' or 'sum', got {aggregation!r}"
            )
        key = (layer, int(iteration))
        payload = (sum(int(g.nbytes) for g in grads.values())
                   if nbytes is None else int(nbytes))
        wire = self.wire_bytes(payload)

        def plan(entry: Dict[int, ArrayDict]):
            # Worker-id order, whichever threads fold which keys; the mean
            # is over the live workers when the entry completes.
            return fold_per_key(entry, mean_divisor=(
                self.num_workers if aggregation == "mean" else None))

        reduced = self._exchange(key, worker_id, grads, plan, timeout,
                                 self._WHAT, layer, iteration)
        return reduced, wire, wire


class RingSyncer(Syncer):
    """Per-layer syncer speaking the ring all-reduce protocol.

    Like the SFB syncer, it applies the aggregate update to the worker's
    own replica with a local optimiser -- no central parameter copy exists.
    """

    def __init__(self, worker_id: int, layer, ring: RingAllReducer,
                 local_optimizer, aggregation: str = "mean", policy=None,
                 compressor=None, sync_timeout: Optional[float] = 30.0):
        self.ring = ring
        super().__init__(worker_id, layer, "ring",
                         local_optimizer=local_optimizer, aggregation=aggregation,
                         compressor=compressor, policy=policy,
                         sync_timeout=sync_timeout)

    def _validate_backends(self) -> None:
        if self.ring is None or self.local_optimizer is None:
            raise TrainingError(
                f"syncer for {self.layer.name!r}: ring all-reduce needs a "
                f"RingAllReducer and a local optimizer"
            )

    def _scheme_handler(self):
        return self._sync_ring

    def _sync_ring(self, iteration: int) -> None:
        assert self._staged_grads is not None
        grads, nbytes = self._staged_grads, None
        if self.compressor is not None:
            # Compress-then-all-reduce: every replica reduces the lossy
            # gradients, so all replicas still apply the identical update.
            grads, nbytes = self.compressor.compress(self.layer.name, grads)
        reduced, sent, received = self.ring.allreduce(
            self.worker_id, self.layer.name, iteration, grads,
            aggregation=self.aggregation, timeout=self.sync_timeout,
            nbytes=nbytes)
        for key, grad in reduced.items():
            self.local_optimizer.apply(
                f"{self.layer.name}/{key}", self.layer.params[key], grad)
        self.stats.bytes_sent += sent
        self.stats.bytes_received += received
