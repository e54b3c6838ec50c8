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
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.message import ByteMeter
from repro.exceptions import CommunicationError, SyncTimeout, WorkerFailure
from repro.nn.sufficient_factors import SufficientFactors, batch_reconstruct

#: Extra (non-factorisable) arrays sent alongside the factors, e.g. the bias
#: gradient of an FC layer.  name -> array.
ExtraDict = Dict[str, np.ndarray]


class SufficientFactorBroadcaster:
    """A BSP bulletin board for sufficient factors."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise CommunicationError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._board: Dict[Tuple[str, int], Dict[int, Tuple[SufficientFactors, ExtraDict]]] = {}
        #: Workers that have collected each (layer, iteration); once all
        #: workers have, the entry is dropped automatically.
        self._collected: Dict[Tuple[str, int], set] = {}
        self._condition = threading.Condition()
        self.meter = ByteMeter()
        self._abort_reason: Optional[BaseException] = None

    def publish(self, worker_id: int, layer: str, iteration: int,
                factors: SufficientFactors, extras: Optional[ExtraDict] = None) -> int:
        """Post a worker's factors; returns the wire bytes of the broadcast.

        The wire cost counts ``num_workers - 1`` copies (one per peer), the
        P2P fan-out of Figure 2(b).
        """
        if not 0 <= worker_id < self.num_workers:
            raise CommunicationError(
                f"worker_id {worker_id} out of range [0, {self.num_workers})"
            )
        extras = extras or {}
        key = (layer, int(iteration))
        with self._condition:
            entry = self._board.setdefault(key, {})
            if worker_id in entry:
                raise CommunicationError(
                    f"worker {worker_id} already published {layer!r} at iteration {iteration}"
                )
            entry[worker_id] = (factors, {k: np.asarray(v) for k, v in extras.items()})
            self._condition.notify_all()
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
            CommunicationError: on timeout.
        """
        key = (layer, int(iteration))
        with self._condition:
            def _complete() -> bool:
                return (self._abort_reason is not None
                        or len(self._board.get(key, {})) >= self.num_workers)

            if not self._condition.wait_for(_complete, timeout=timeout):
                have = len(self._board.get(key, {}))
                raise SyncTimeout(
                    f"collect of {layer!r}@{iteration} timed out with "
                    f"{have}/{self.num_workers} contributions"
                )
            if (self._abort_reason is not None
                    and len(self._board.get(key, {})) < self.num_workers):
                raise self._wrap_abort(layer, iteration)
            entry = self._board[key]
            result = [(wid, factors, extras)
                      for wid, (factors, extras) in sorted(entry.items())]
            seen = self._collected.setdefault(key, set())
            seen.add(worker_id)
            if len(seen) >= self.num_workers:
                del self._board[key]
                del self._collected[key]
        received = sum(
            factors.nbytes + sum(int(v.nbytes) for v in extras.values())
            for wid, factors, extras in result if wid != worker_id
        )
        self.meter.record(received, "received", tag=f"sfb:{layer}")
        return result

    # -- fault tolerance ----------------------------------------------------------------
    def checkpoint(self, include_optimizer: bool = False) -> dict:
        """The board carries no state across BSP iterations; nothing to save."""
        return {}

    def restore(self, snapshot: dict) -> None:
        """Clear all in-flight board state (restart recovery)."""
        with self._condition:
            self._board.clear()
            self._collected.clear()
            self._abort_reason = None
            self._condition.notify_all()

    def abort(self, exc: BaseException) -> None:
        """Wake every blocked ``collect`` with a failure."""
        with self._condition:
            self._abort_reason = exc
            self._condition.notify_all()

    def clear_abort(self) -> None:
        """Re-arm the board after recovery handled the abort."""
        with self._condition:
            self._abort_reason = None

    def _wrap_abort(self, layer: str, iteration: int) -> BaseException:
        reason = self._abort_reason
        if isinstance(reason, WorkerFailure):
            return WorkerFailure(
                f"SFB collect of {layer!r}@{iteration} aborted: {reason}",
                worker_id=reason.worker_id, iteration=reason.iteration,
                cascade=True)
        return CommunicationError(
            f"SFB collect of {layer!r}@{iteration} aborted: {reason}")

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
                  aggregation: str = "mean") -> Tuple[np.ndarray, ExtraDict]:
        """Reconstruct and combine everyone's gradients.

        The weight gradient is computed with one GEMM over the
        row-concatenated factors (``concat(U)^T @ concat(V)``), which equals
        the sum of the per-contribution outer-product reconstructions
        (Eq. 1) without materialising one dense ``M x N`` temporary per
        worker.  Extras accumulate in place into a single buffer per key.

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
        weight_grad = batch_reconstruct([factors for _, factors, _ in contributions])
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
