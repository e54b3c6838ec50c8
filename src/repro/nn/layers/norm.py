"""Layer normalisation over the last (channel) axis.

Unlike batch norm, layer norm carries no running statistics: every forward
pass normalises each token independently, so the layer is deterministic and
identical between training and inference -- a property the bit-reproducibility
suite relies on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer


class LayerNorm(Layer):
    """Normalise the last axis to zero mean / unit variance, then scale+shift.

    Accepts any input of shape ``(..., C)``; the affine parameters ``gain``
    and ``bias`` are per-channel vectors of length ``C``.
    """

    def __init__(self, name: str, dim: int, epsilon: float = 1e-5):
        super().__init__(name)
        self.dim = int(dim)
        self.epsilon = float(epsilon)
        self.params = {
            "gain": np.ones((self.dim,), dtype=np.float32),
            "bias": np.zeros((self.dim,), dtype=np.float32),
        }
        self.zero_grads()
        self._normalized: Optional[np.ndarray] = None
        self._inv_std: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if inputs.ndim < 2 or inputs.shape[-1] != self.dim:
            raise ShapeError(
                f"layer {self.name!r}: expected shape (..., {self.dim}), "
                f"got {inputs.shape}"
            )
        mean = inputs.mean(axis=-1, keepdims=True)
        var = inputs.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalized = (inputs - mean) * inv_std
        if training:
            self._normalized = normalized
            self._inv_std = inv_std
        return normalized * self.params["gain"] + self.params["bias"]

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._normalized is None or self._inv_std is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        normalized = self._normalized
        reduce_axes = tuple(range(grad_output.ndim - 1))
        self.grads["gain"] = (grad_output * normalized).sum(axis=reduce_axes)
        self.grads["bias"] = grad_output.sum(axis=reduce_axes)
        grad_normalized = grad_output * self.params["gain"]
        mean_grad = grad_normalized.mean(axis=-1, keepdims=True)
        mean_grad_norm = (grad_normalized * normalized).mean(axis=-1, keepdims=True)
        return self._inv_std * (
            grad_normalized - mean_grad - normalized * mean_grad_norm)


__all__ = ["LayerNorm"]
