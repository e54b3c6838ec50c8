"""Project Adam's communication strategy for FC layers.

Instead of broadcasting sufficient factors peer-to-peer (SFB) or pushing
dense gradients (PS), Adam workers *push* sufficient factors to the single
parameter-server shard that owns the layer and then *pull back the full
updated parameter matrix* (Section 3.2).  This reduces the push direction
but makes the owning server broadcast ``P1`` full matrices per iteration,
which is the load imbalance Figure 10 visualises.

:class:`AdamSFServer` is a :class:`~repro.comm.parameter_server.
ShardedParameterServer` whose contributions are factors: slots, versions,
the pull wait, ``checkpoint`` / ``restore``, abort and membership are the
parameter server's; only the factor push and the reconstruct-then-fold
reduction live here.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.comm.parameter_server import ShardedParameterServer, _LayerSlot
from repro.nn.optim import SGD
from repro.nn.sufficient_factors import SufficientFactors

ArrayDict = Dict[str, np.ndarray]


class AdamSFServer(ShardedParameterServer):
    """Functional model of Adam's SF-push / matrix-pull synchronization.

    With ``ordered=True`` the per-iteration reduction runs in worker-id
    order instead of push-arrival order, making the aggregate bit-identical
    run-to-run under the threaded trainer.
    """

    _pull_tag = "adam-pull"

    def __init__(self, initial_params: Dict[str, ArrayDict], num_workers: int,
                 optimizer: Optional[SGD] = None, aggregation: str = "mean",
                 ordered: bool = False):
        super().__init__(initial_params, num_workers, optimizer=optimizer,
                         aggregation=aggregation, ordered=ordered)

    def push_factors(self, worker_id: int, layer: str, factors: SufficientFactors,
                     extras: Optional[ArrayDict] = None) -> int:
        """Push one worker's sufficient factors to the owning shard."""
        slot = self._slot(layer)
        extras = extras or {}
        nbytes = factors.nbytes + sum(int(v.nbytes) for v in extras.values())
        with slot.condition:
            self._contribute_locked(
                worker_id, layer, slot,
                (factors, {k: np.asarray(v) for k, v in extras.items()}))
        self.meter.record(nbytes, "received", tag=f"adam-push:{layer}")
        return nbytes

    def pull_matrix(self, worker_id: int, layer: str, min_version: int,
                    timeout: Optional[float] = 30.0) -> ArrayDict:
        """Pull the full updated parameter matrix (the expensive direction)."""
        return self.pull(worker_id, layer, min_version, timeout=timeout)

    def checkpoint(self, include_optimizer: bool = True
                   ) -> Dict[str, ArrayDict]:
        """Deep-copy snapshot of parameters, versions and optimiser state.

        Unlike the plain PS (whose snapshot schema predates fault
        tolerance), the Adam server includes its optimiser state by
        default: its momentum velocities live server-side, so an exact
        restart is impossible without them.
        """
        return super().checkpoint(include_optimizer=include_optimizer)

    def _step_locked(self, layer: str, slot: _LayerSlot, contributions) -> None:
        """Reconstruct every worker's dense gradient, fold them, then step."""
        weight_total = None
        extra_totals: ArrayDict = {}
        for factors, extras in contributions:
            dense = factors.reconstruct()
            weight_total = dense if weight_total is None else weight_total + dense
            for key, value in extras.items():
                extra_totals[key] = extra_totals.get(key, 0.0) + value
        if self.aggregation == "mean":
            weight_total = weight_total / float(self.num_workers)
            extra_totals = {k: v / float(self.num_workers) for k, v in extra_totals.items()}
        for key, grad in {"weight": weight_total, **extra_totals}.items():
            if key in slot.params:
                self.optimizer.apply(f"{layer}/{key}", slot.params[key], grad)
