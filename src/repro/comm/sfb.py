"""Sufficient-factor broadcasting (SFB).

The peer-to-peer scheme of Figure 2(b): every worker broadcasts the
sufficient factors of its FC-layer gradients to all peers, reconstructs the
full gradient locally from everyone's factors, and applies the update to its
own model replica.  Because every replica applies the same aggregate update
(the sum of everyone's outer products) with the same optimiser state,
replicas stay bit-wise consistent without a central server.

The functional implementation below is a shared bulletin board with BSP
semantics: ``publish`` posts a worker's factors for (layer, iteration) and
``collect`` blocks until all workers have posted, then returns the
aggregate.

Under this scheme the factors are the only weight-gradient representation
that crosses a boundary: the layer hands over ``(x, dy)`` by reference and
never forms its local ``dW`` (:meth:`Dense.publish_factors_only
<repro.nn.layers.dense.Dense.publish_factors_only>`), and the board only
reads the posted factors.  Every machine of the paper rebuilds the same
``sum_p U_p^T V_p``; in process the board builds it once per (layer,
iteration): a dense ``M x N`` aggregate that the collectors fill together,
row slab by row slab (:meth:`KeyedBoard._share
<repro.core.consistency.KeyedBoard._share>`), and then share read-only --
each steps its own replica from it and none keeps it past the iteration.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.consistency import KeyedBoard
from repro.exceptions import CommunicationError
from repro.nn.optim import fold_in_order
from repro.nn.sufficient_factors import SufficientFactors

#: Extra (non-factorisable) arrays sent alongside the factors, e.g. the bias
#: gradient of an FC layer.  name -> array.
ExtraDict = Dict[str, np.ndarray]

#: Elements per row slab of an aggregate (1 MiB of float32): a 1024 x 1024
#: layer is four slabs.  Every slab's GEMM packs all of ``concat(V)`` again,
#: so thinner slabs cost more in total: on the two-worker sync cycle of
#: ``train_mlp_hybrid``'s layer 128 K and 256 K elements ran fastest (64 K
#: +4 %, one slab that leaves the peer idle +15 %), and 256 K re-packs half
#: as often as 128 K when one thread runs every block.
SLAB_ELEMENTS = 1 << 18

#: Fewest rows of an aggregate slab.  A thinner GEMM may take BLAS's
#: matrix-vector or small-matrix path, whose sums are ordered differently
#: from the full product's; at eight rows and up a slab is bit-identical to
#: the same rows of the full ``concat(U)^T @ concat(V)``.
MIN_SLAB_ROWS = 8


class SufficientFactorBroadcaster(KeyedBoard):
    """A BSP bulletin board for sufficient factors."""

    _WHAT = "SFB exchange of {!r}@{} {verb}"

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
        return per_peer * (self.num_workers - 1)

    def collect(self, worker_id: int, layer: str, iteration: int,
                aggregation: str = "mean", timeout: Optional[float] = 30.0
                ) -> Tuple[np.ndarray, ExtraDict, int]:
        """Block until every worker has published (layer, iteration).

        The collectors then build the aggregate together
        (:func:`plan_aggregate`) and each is handed the same arrays; once
        every worker has collected an iteration its board entry is dropped,
        so collecting it again times out like a missing iteration would.

        Returns:
            ``(weight_gradient, extra_gradients, bytes_received)``: the sum
            (or mean) of everyone's reconstructed outer products and
            extras, read-only, and the bytes of the peers' contributions.

        Raises:
            CommunicationError: on an unknown ``aggregation``.
            SyncTimeout: on timeout.
        """
        if aggregation not in ("mean", "sum"):
            raise CommunicationError(
                f"aggregation must be 'mean' or 'sum', got {aggregation!r}"
            )
        weight, extras, received = self._share(
            (layer, int(iteration)), worker_id,
            functools.partial(plan_aggregate, aggregation=aggregation),
            timeout, self._WHAT, layer, iteration)
        weight.setflags(write=False)        # every block is written
        return weight, extras, received[worker_id]


def plan_aggregate(contributions: Dict[int, Tuple[SufficientFactors, ExtraDict]],
                   aggregation: str = "mean"
                   ) -> Tuple[Tuple[np.ndarray, ExtraDict, Dict[int, int]],
                              List[Callable[[], None]]]:
    """Lay out the aggregate of everyone's factors as independent blocks.

    The weight gradient is one GEMM over the row-concatenated factors,
    ``concat(U)^T @ concat(V)``, which equals the sum of the per-worker
    outer-product reconstructions (Eq. 1) without a dense temporary per
    worker.  It is cut into row slabs of about :data:`SLAB_ELEMENTS`
    elements, none thinner than :data:`MIN_SLAB_ROWS`; each block computes
    its rows and divides them by the contribution count (``"mean"``).  One
    more block folds the extras in ascending worker id.  The contributions
    are only read.

    Returns:
        ``((weight, extras, received), blocks)``: the weight and extras
        gradients are complete once every block has run, in any order, on
        any threads; ``received`` maps each worker to the bytes of everyone
        else's contributions.
    """
    if not contributions:
        raise CommunicationError("cannot aggregate an empty contribution list")
    ids = sorted(contributions)
    factors = [contributions[wid][0] for wid in ids]
    m, n = factors[0].weight_shape
    u = np.concatenate([f.u for f in factors], axis=0)
    v = np.concatenate([f.v for f in factors], axis=0)
    weight = np.empty((m, n), dtype=np.result_type(u, v))
    count = float(len(ids)) if aggregation == "mean" else None
    per_key: Dict[str, list] = {}
    for wid in ids:
        for key, value in contributions[wid][1].items():
            per_key.setdefault(key, []).append(value)
    extras: ExtraDict = dict.fromkeys(per_key)

    def slab(start: int, stop: int) -> None:
        rows = weight[start:stop]
        np.matmul(u[:, start:stop].T, v, out=rows)
        if count is not None:
            rows /= count

    def fold_extras() -> None:
        for key, values in per_key.items():
            total = fold_in_order(values)
            extras[key] = total if count is None else total / count
            extras[key].setflags(write=False)

    slabs = max(1, min(-(-m * n // SLAB_ELEMENTS), m // MIN_SLAB_ROWS))
    blocks = [fold_extras] + [
        functools.partial(slab, m * i // slabs, m * (i + 1) // slabs)
        for i in range(slabs)]
    sizes = {wid: contributions[wid][0].nbytes
             + sum(int(x.nbytes) for x in contributions[wid][1].values())
             for wid in ids}
    total = sum(sizes.values())
    received = {wid: total - size for wid, size in sizes.items()}
    return (weight, extras, received), blocks
