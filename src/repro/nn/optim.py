"""Optimisers.

Only plain SGD (with optional momentum and weight decay) is provided -- the
same update rule used throughout the paper's evaluation (Eq. 1/2).  The
optimiser can apply updates either to a :class:`~repro.nn.network.Network`
directly (single-node training) or to a bare dictionary of parameter arrays
(the form the parameter server holds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.domains import NONNEGATIVE, POSITIVE, fraction, require
from repro.exceptions import ConfigurationError

#: Elements per block of a folded step (256 KiB of float32): scratch,
#: parameter block and contribution blocks stay cache-resident from fold to
#: write-back.  The in-process analogue of the paper's fixed-size KV pair.
BLOCK_ELEMENTS = 1 << 16

#: A layer's parameters or gradients: parameter name -> array.
ArrayDict = Dict[str, np.ndarray]


@dataclass(frozen=True)
class SparseGradient:
    """A gradient zero outside ``indices`` (sorted, distinct int32 C-order
    flat positions into ``shape``), ``values`` there: the top-k payload.
    ``payload.reshape(-1)[start:stop]`` is the payload of that flat block.
    """

    shape: Tuple[int, ...]
    indices: np.ndarray
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.indices.nbytes + self.values.nbytes)

    def reshape(self, size: int) -> "SparseGradient":   # size: -1
        return replace(self, shape=(math.prod(self.shape),))

    def __getitem__(self, block: slice) -> "SparseGradient":
        start, stop, _ = block.indices(self.shape[0])
        lo, hi = np.searchsorted(self.indices, (start, stop))
        return SparseGradient((stop - start,), self.indices[lo:hi] - start,
                              self.values[lo:hi])


def fold_in_order(grads: Sequence[Union[np.ndarray, SparseGradient]],
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Left fold ``((g0 + g1) + g2) + ...``, the first two in one ``np.add``.

    Into ``out`` (cast to its dtype) when given; otherwise into a fresh
    array, mixed dtypes upcasting.  The inputs are only read.  Sparse
    payloads (all or none) are scatter-added in order into a ``+0.0``
    total: the dense fold of their zero-filled arrays, bit for bit, unless
    one holds ``-0.0`` (a top-k payload never does).
    """
    if isinstance(grads[0], SparseGradient):
        if out is None:
            out = np.empty(grads[0].shape, grads[0].values.dtype)
        out.fill(0)
        for grad in grads:
            out.reshape(-1)[grad.indices] += grad.values
        return out
    if len(grads) > 1:
        total = np.add(grads[0], grads[1], out=out, casting="unsafe")
    elif out is None:
        total = np.array(grads[0], copy=True)
    else:
        total = out
        np.copyto(total, grads[0], casting="unsafe")
    for grad in grads[2:]:
        if out is None and (total.dtype != grad.dtype or total.shape != grad.shape):
            total = total + grad    # mixed dtypes: upcasting semantics
        else:
            np.add(total, grad, out=total, casting="unsafe")
    return total


def fold_per_key(contributions: Dict[int, ArrayDict],
                 mean_divisor: Optional[float] = None
                 ) -> Tuple[ArrayDict, List[Callable[[], None]]]:
    """:func:`reduce_in_worker_order` cut into one fold per parameter name.

    Returns the totals dict, its keys already in place, and one callable per
    key that fills that key's total.  The callables touch disjoint keys, so
    they may run in any order and on any threads (a board's collectors
    split them, :meth:`~repro.core.consistency.KeyedBoard._share`).  Every
    total is a fresh buffer, read-only once folded: a reduction is shared
    by all of its readers.
    """
    per_key: Dict[str, list] = {}
    for worker_id in sorted(contributions):
        for name, grad in contributions[worker_id].items():
            per_key.setdefault(name, []).append(grad)
    scale = None if mean_divisor is None else 1.0 / float(mean_divisor)
    totals: ArrayDict = dict.fromkeys(per_key)

    def fold(name: str) -> None:
        total = fold_in_order(per_key[name])
        if scale is not None:
            if np.issubdtype(total.dtype, np.floating):
                total *= scale
            else:
                total = total * scale
        total.setflags(write=False)
        totals[name] = total

    return totals, [functools.partial(fold, name) for name in per_key]


def reduce_in_worker_order(contributions: Dict[int, ArrayDict],
                           mean_divisor: Optional[float] = None) -> ArrayDict:
    """Sum per-worker gradient dicts in worker-id order, one pass per hop.

    The reduction of every substrate whose aggregate has several readers
    (ring all-reduce, rack accumulators, parameter averager); the parameter
    server applies the same :func:`fold_in_order` block by block inside its
    optimiser step, so they all stay bit-identical to each other.  The fixed fold order makes the result independent of
    which thread contributed first (floating-point addition is not
    associative).  Every key gets a fresh, read-only buffer.  With
    ``mean_divisor`` the totals are scaled in place by the reciprocal
    ``1.0 / mean_divisor``, as :func:`~repro.parallel.serial.
    simulate_synchronous_sgd` does: a float32 multiply costs a third of
    the divide and equals it exactly whenever the divisor is a power of
    two (at most 1 ulp apart otherwise).
    """
    totals, folds = fold_per_key(contributions, mean_divisor)
    for fold in folds:
        fold()
    return totals


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        # The domains of the TrainingConfig fields these come from.
        require("learning_rate", learning_rate, POSITIVE)
        require("momentum", momentum, fraction(high_open=True))
        require("weight_decay", weight_decay, NONNEGATIVE)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[str, np.ndarray] = {}

    def apply(self, key: str, param: np.ndarray,
              grad: Union[np.ndarray, Sequence[np.ndarray]], *,
              scale: Optional[float] = None) -> None:
        """Apply one gradient to one parameter array in place.

        Args:
            key: unique name for the parameter (used to track momentum state).
            param: parameter array, modified in place.
            grad: gradient of the loss with respect to ``param`` -- or the
                ordered contributions that sum to it (the parameter
                server's step), which are folded, scaled and stepped one
                :data:`BLOCK_ELEMENTS` block at a time through a scratch
                private to this call: element for element the arithmetic
                of folding first, with no full-size aggregate or step
                temporary.  ``param`` must then be C-contiguous.
            scale: multiplier of the folded contributions (a mean's ``1/P``).
        """
        folded = not isinstance(grad, np.ndarray)
        if scale is not None and not folded:
            raise ConfigurationError(
                f"parameter {key!r}: scale is for a sequence of contributions")
        grads = list(grad) if folded else [grad]
        for array in grads:
            if param.shape != array.shape:
                raise ConfigurationError(
                    f"parameter {key!r}: shape mismatch {param.shape} vs {array.shape}")
        velocity = None
        if self.momentum:
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = self._velocity[key] = np.zeros_like(param)
        if not folded:
            self._step(param, grad, velocity, False)
            return
        if not param.flags.c_contiguous:    # reshape would step a copy
            raise ConfigurationError(
                f"parameter {key!r}: a folded step needs a C-contiguous array")
        flat = param.reshape(-1)
        grads = [array.reshape(-1) for array in grads]
        if velocity is not None:
            velocity = velocity.reshape(-1)
        scratch = np.empty(min(flat.size, BLOCK_ELEMENTS), dtype=param.dtype)
        for start in range(0, flat.size, BLOCK_ELEMENTS):
            stop = start + BLOCK_ELEMENTS
            block = flat[start:stop]
            update = fold_in_order([array[start:stop] for array in grads],
                                   out=scratch[:block.size])
            if scale is not None:
                update *= scale
            self._step(block, update,
                       None if velocity is None else velocity[start:stop], True)

    def _step(self, param: np.ndarray, update: np.ndarray,
              velocity: Optional[np.ndarray], update_is_scratch: bool) -> None:
        """The elementwise step on a whole array or on one block of it."""
        if self.weight_decay:
            update = update + self.weight_decay * param
            update_is_scratch = True    # a fresh array: ours to overwrite
        if update_is_scratch:
            step = np.multiply(update, self.learning_rate, out=update)
        else:
            step = self.learning_rate * update
        if velocity is None:
            param -= step
        else:
            velocity *= self.momentum
            velocity -= step
            param += velocity

    def get_state(self) -> Dict[str, np.ndarray]:
        """Deep copy of the momentum state (for checkpointing)."""
        return {key: velocity.copy() for key, velocity in self._velocity.items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore momentum state from a :meth:`get_state` snapshot."""
        self._velocity = {key: np.array(velocity, copy=True, order="C")
                          for key, velocity in state.items()}
