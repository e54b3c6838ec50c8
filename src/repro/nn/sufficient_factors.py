"""Sufficient factors of fully-connected gradients.

For an FC layer trained with SGD, the gradient of the weight matrix over a
batch of ``K`` samples is ``dW = sum_i u_i v_i^T`` where ``u_i`` is the
layer's input activation for sample ``i`` and ``v_i`` the gradient of the
loss w.r.t. the layer's pre-activation output for sample ``i``.  The pair
``(u_i, v_i)`` are the *sufficient factors* (SFs, Section 2.1).  Transmitting
the factors instead of the dense ``M x N`` matrix costs ``K (M + N)`` floats
instead of ``M N``, which is the saving sufficient-factor broadcasting and
the Adam strategy exploit.

This module packages factor pairs for the wire and reconstructs dense
gradients on the receiving side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ShapeError


@dataclass(frozen=True)
class SufficientFactors:
    """A batch of sufficient factors for one FC layer's weight gradient.

    Attributes:
        u: ``(K, M)`` input activations.
        v: ``(K, N)`` output gradients.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ShapeError(
                f"sufficient factors must be 2-D, got u={self.u.shape} v={self.v.shape}"
            )
        if self.u.shape[0] != self.v.shape[0]:
            raise ShapeError(
                "sufficient factor batch sizes differ: "
                f"u has {self.u.shape[0]} rows, v has {self.v.shape[0]}"
            )

    @property
    def batch_size(self) -> int:
        """Number of samples (``K``) represented by these factors."""
        return int(self.u.shape[0])

    @property
    def weight_shape(self) -> Tuple[int, int]:
        """Shape ``(M, N)`` of the dense gradient these factors reconstruct."""
        return int(self.u.shape[1]), int(self.v.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes needed to transmit the factors."""
        return int(self.u.nbytes + self.v.nbytes)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the dense gradient ``dW = U^T @ V``."""
        return self.u.T @ self.v


def factorize_dense_gradient(inputs: np.ndarray, grad_output: np.ndarray) -> SufficientFactors:
    """Package a layer's cached activations/gradients as sufficient factors.

    Args:
        inputs: ``(K, M)`` input activations of the FC layer.
        grad_output: ``(K, N)`` gradients w.r.t. the layer's outputs.
    """
    return SufficientFactors(u=np.ascontiguousarray(inputs),
                             v=np.ascontiguousarray(grad_output))
