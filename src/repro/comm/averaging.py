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

from typing import Optional

from repro.core.consistency import KeyedBoard
from repro.nn.optim import ArrayDict, fold_per_key


class ParameterAverager(KeyedBoard):
    """All-worker parameter averaging board, deterministic by construction.

    Contributions are buffered per worker id and reduced in ascending
    worker-id order once all ``num_workers`` have arrived (floating-point
    addition is not associative; a fixed reduction order keeps consecutive
    runs bit-identical regardless of thread scheduling).  The averaged
    result is shared read-only between all workers of the round and the
    round's state is garbage-collected once every worker has read it.
    Dropping a dead worker makes pending and future rounds average over the
    ``P - 1`` survivors; restart recovery re-admits everyone.
    """

    _WHAT = "parameter averaging of layer {!r} round {} {verb}"

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
        # The mean over the live workers when the round completes, folded
        # in ascending worker id.
        return self._exchange(
            (layer, int(round_index)), worker_id, params,
            lambda entry: fold_per_key(entry, mean_divisor=self.num_workers),
            timeout, self._WHAT, layer, round_index)
