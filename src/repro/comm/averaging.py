"""Periodic parameter averaging -- the wire substrate of local SGD.

Local SGD workers take ``H`` purely local optimizer steps, then rendezvous
to average their *parameters* (not gradients) across the cluster.  The
:class:`ParameterAverager` is that rendezvous: a BSP-style board keyed by
(layer, round) where every worker deposits its parameter arrays and blocks
until the worker-id-ordered mean is available.

Averaging rounds happen every ``H``-th iteration, so wire traffic drops by
``H``x versus per-iteration gradient sync -- the byte accounting in
:class:`repro.core.syncer.LocalSGDSyncer` reflects exactly that.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import CommunicationError, SyncTimeout, WorkerFailure

#: A layer's parameters: parameter name -> array.
ArrayDict = Dict[str, np.ndarray]


class _Round:
    """One (layer, round) averaging rendezvous."""

    __slots__ = ("contributions", "result", "readers")

    def __init__(self) -> None:
        self.contributions: Dict[int, ArrayDict] = {}
        self.result: Optional[ArrayDict] = None
        self.readers = 0


class ParameterAverager:
    """All-worker parameter averaging board, deterministic by construction.

    Contributions are buffered per worker id and reduced in ascending
    worker-id order once all ``num_workers`` have arrived (floating-point
    addition is not associative; a fixed reduction order keeps consecutive
    runs bit-identical regardless of thread scheduling).  The averaged
    result is shared read-only between all workers of the round and the
    round's state is garbage-collected once every worker has read it.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise CommunicationError(
                f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._rounds: Dict[Tuple[str, int], _Round] = {}
        self._condition = threading.Condition()
        self._abort_reason: Optional[BaseException] = None
        self._dropped: set = set()

    def average(self, worker_id: int, layer: str, round_index: int,
                params: ArrayDict,
                timeout: Optional[float] = 60.0) -> ArrayDict:
        """Deposit one worker's parameters; block for the cluster mean.

        Args:
            worker_id: contributing worker (each may contribute once per
                round).
            layer: layer name keying the board.
            round_index: averaging round (monotonic per layer).
            params: the worker's current parameter arrays (buffered by
                reference; the worker blocks here until the mean is built,
                so the arrays are not mutated concurrently).
            timeout: deadlock guard for the all-worker wait.

        Returns:
            The worker-id-ordered mean of all contributions, shared
            read-only across workers -- install via a copying setter such
            as ``Layer.set_params`` and never mutate it.
        """
        key = (layer, int(round_index))
        with self._condition:
            if self._abort_reason is not None:
                raise self._wrap_abort(layer, round_index)
            if worker_id in self._dropped:
                raise WorkerFailure(
                    f"dropped worker {worker_id} joined averaging round "
                    f"{round_index} of layer {layer!r}",
                    worker_id=worker_id, cascade=True)
            board = self._rounds.get(key)
            if board is None:
                board = self._rounds[key] = _Round()
            if worker_id in board.contributions:
                raise CommunicationError(
                    f"layer {layer!r} round {round_index}: worker "
                    f"{worker_id} contributed twice")
            board.contributions[worker_id] = params
            if len(board.contributions) >= self.num_workers:
                board.result = self._reduce(board.contributions)
                self._condition.notify_all()
            elif not self._condition.wait_for(
                    lambda: (board.result is not None
                             or self._abort_reason is not None),
                    timeout=timeout):
                raise SyncTimeout(
                    f"parameter averaging of layer {layer!r} round "
                    f"{round_index} timed out with "
                    f"{len(board.contributions)}/{self.num_workers} workers")
            if board.result is None:
                raise self._wrap_abort(layer, round_index)
            result = board.result
            board.readers += 1
            if board.readers >= self.num_workers:
                del self._rounds[key]
        return result

    # -- fault tolerance ----------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Rounds never span checkpoints under BSP; nothing to save."""
        return {}

    def restore(self, snapshot: dict) -> None:
        """Clear all in-flight rounds (restart recovery)."""
        with self._condition:
            self._rounds.clear()
            self._dropped.clear()
            self._abort_reason = None
            self._condition.notify_all()

    def remove_worker(self, worker_id: int) -> None:
        """Drop a dead worker: future rounds average over P-1 survivors.

        A pending round the survivors have already fully joined is reduced
        immediately so nobody waits for the ghost.
        """
        with self._condition:
            if worker_id in self._dropped:
                return
            if self.num_workers <= 1:
                raise CommunicationError("cannot drop the last remaining worker")
            self._dropped.add(worker_id)
            self.num_workers -= 1
            for board in self._rounds.values():
                board.contributions.pop(worker_id, None)
                if (board.result is None
                        and len(board.contributions) >= self.num_workers):
                    board.result = self._reduce(board.contributions)
            self._condition.notify_all()

    def abort(self, exc: BaseException) -> None:
        """Wake every blocked ``average`` with a failure."""
        with self._condition:
            self._abort_reason = exc
            self._condition.notify_all()

    def clear_abort(self) -> None:
        """Re-arm the board after recovery handled the abort."""
        with self._condition:
            self._abort_reason = None

    def _wrap_abort(self, layer: str, round_index: int) -> BaseException:
        reason = self._abort_reason
        if isinstance(reason, WorkerFailure):
            return WorkerFailure(
                f"averaging of layer {layer!r} round {round_index} aborted: "
                f"{reason}", worker_id=reason.worker_id,
                iteration=reason.iteration, cascade=True)
        return CommunicationError(
            f"averaging of layer {layer!r} round {round_index} aborted: "
            f"{reason}")

    def _reduce(self, contributions: Dict[int, ArrayDict]) -> ArrayDict:
        """Mean of the contributions, folded in ascending worker-id order."""
        # Imported here: repro.comm.backend's registry imports the syncers,
        # which import this module.
        from repro.comm.backend import reduce_in_worker_order
        total = reduce_in_worker_order(contributions,
                                       mean_divisor=self.num_workers)
        for value in total.values():
            value.setflags(write=False)
        return total
