"""Sufficient-factor broadcasting (SFB).

The peer-to-peer scheme of Figure 2(b): every worker broadcasts the
sufficient factors of its FC-layer gradients to all peers, reconstructs the
full gradient locally from everyone's factors, and applies the update to its
own model replica.  Because every replica applies the same aggregate update
(the sum of everyone's outer products) with the same optimiser state,
replicas stay bit-wise consistent without a central server.

The functional implementation below is a shared bulletin board with BSP
semantics: ``publish`` posts a worker's factors for (layer, iteration) and
``collect`` blocks until all workers have posted.

Under this scheme the factors are the only weight-gradient representation
that crosses a boundary: the layer hands over ``(x, dy)`` by reference and
never forms its local ``dW`` (:meth:`Dense.publish_factors_only
<repro.nn.layers.dense.Dense.publish_factors_only>`), the board holds and
hands out factors only, and a dense ``M x N`` matrix exists in exactly one
place -- the aggregate :meth:`SufficientFactorBroadcaster.aggregate`
reconstructs from everyone's factors, written into the ``out`` buffer the
collecting syncer owns and overwritten at its next sync.  That buffer is
never posted, staged or handed to a peer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.message import ByteMeter
from repro.core.consistency import KeyedBoard
from repro.exceptions import CommunicationError
from repro.nn.sufficient_factors import SufficientFactors, batch_reconstruct

#: Extra (non-factorisable) arrays sent alongside the factors, e.g. the bias
#: gradient of an FC layer.  name -> array.
ExtraDict = Dict[str, np.ndarray]


class SufficientFactorBroadcaster(KeyedBoard):
    """A BSP bulletin board for sufficient factors."""

    _WHAT = "SFB exchange of {!r}@{} {verb}"

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self.meter = ByteMeter()

    def publish(self, worker_id: int, layer: str, iteration: int,
                factors: SufficientFactors, extras: Optional[ExtraDict] = None) -> int:
        """Post a worker's factors; returns the wire bytes of the broadcast.

        The wire cost counts ``num_workers - 1`` copies (one per peer), the
        P2P fan-out of Figure 2(b).
        """
        extras = extras or {}
        with self._condition:
            self._post((layer, int(iteration)), worker_id,
                       (factors, {k: np.asarray(v) for k, v in extras.items()}),
                       self._WHAT, layer, iteration)
        per_peer = factors.nbytes + sum(int(v.nbytes) for v in extras.values())
        nbytes = per_peer * (self.num_workers - 1)
        self.meter.record(nbytes, "sent", tag=f"sfb:{layer}")
        return nbytes

    def collect(self, worker_id: int, layer: str, iteration: int,
                timeout: Optional[float] = 30.0
                ) -> List[Tuple[int, SufficientFactors, ExtraDict]]:
        """Block until every worker has published (layer, iteration).

        Returns:
            A list of ``(worker_id, factors, extras)`` sorted by worker id,
            including the caller's own contribution (so aggregation is simply
            a sum over the list).

        Once every worker has collected an iteration its board entry is
        garbage-collected automatically (the board would otherwise grow
        without bound over a long BSP run); a worker collecting the same
        iteration a second time after that point times out like a missing
        iteration would.

        Raises:
            SyncTimeout: on timeout.
        """
        key = (layer, int(iteration))
        with self._condition:
            entry = self._await(key, timeout, self._WHAT, layer, iteration)
            result = [(wid, factors, extras)
                      for wid, (factors, extras) in sorted(entry.items())]
            self._release(key, worker_id)
        received = sum(
            factors.nbytes + sum(int(v.nbytes) for v in extras.values())
            for wid, factors, extras in result if wid != worker_id
        )
        self.meter.record(received, "received", tag=f"sfb:{layer}")
        return result

    def garbage_collect(self, before_iteration: int) -> int:
        """Drop board entries older than ``before_iteration``; returns count dropped."""
        with self._condition:
            stale = [key for key in self._board if key[1] < before_iteration]
            for key in stale:
                del self._board[key]
                self._collected.pop(key, None)
        return len(stale)

    @staticmethod
    def aggregate(contributions: List[Tuple[int, SufficientFactors, ExtraDict]],
                  aggregation: str = "mean",
                  out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, ExtraDict]:
        """Reconstruct and combine everyone's gradients.

        The weight gradient is computed with one GEMM over the
        row-concatenated factors (``concat(U)^T @ concat(V)``), which equals
        the sum of the per-contribution outer-product reconstructions
        (Eq. 1) without materialising one dense ``M x N`` temporary per
        worker.  Extras accumulate in place into a single buffer per key.

        Args:
            out: optional ``(M, N)`` array of the factors' dtype the product
                (and its mean) is written into instead of a fresh one.

        Returns:
            ``(weight_gradient, extra_gradients)`` where the weight gradient
            is the sum (or mean) of all reconstructed outer products.
        """
        if not contributions:
            raise CommunicationError("cannot aggregate an empty contribution list")
        if aggregation not in ("mean", "sum"):
            raise CommunicationError(
                f"aggregation must be 'mean' or 'sum', got {aggregation!r}"
            )
        weight_grad = batch_reconstruct(
            [factors for _, factors, _ in contributions], out=out)
        extra_totals: ExtraDict = {}
        for _, _, extras in contributions:
            for key, value in extras.items():
                total = extra_totals.get(key)
                if total is None:
                    extra_totals[key] = np.array(value, copy=True)
                elif total.dtype == value.dtype and total.shape == value.shape:
                    np.add(total, value, out=total)
                else:  # mixed dtypes: fall back to upcasting semantics
                    extra_totals[key] = total + value
        if aggregation == "mean":
            count = float(len(contributions))
            if np.issubdtype(weight_grad.dtype, np.floating):
                weight_grad /= count
            else:
                weight_grad = weight_grad / count
            for key, total in extra_totals.items():
                if np.issubdtype(total.dtype, np.floating):
                    total /= count
                else:
                    extra_totals[key] = total / count
        return weight_grad, extra_totals
