"""Activation layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer


class ReLU(Layer):
    """Rectified linear unit, applied elementwise."""

    def __init__(self, name: str):
        super().__init__(name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        mask = inputs > 0
        if training:
            self._mask = mask
        return inputs * mask

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        return grad_output * self._mask


class GELU(Layer):
    """Gaussian error linear unit (tanh approximation), applied elementwise.

    Uses the tanh form standard in GPT-family models:
    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))``.

    The cube is spelled ``x * x * x`` (numpy's generic ``pow`` is two orders
    of magnitude slower) and the training forward keeps ``tanh(inner)`` so
    the backward pass does no transcendental work.
    """

    _COEFF = 0.044715
    _SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

    def __init__(self, name: str):
        super().__init__(name)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        # inner = sqrt(2/pi) * (x + c x^3), factored as x * (1 + c x^2).
        tanh_inner = inputs * inputs
        tanh_inner *= self._COEFF
        tanh_inner += 1.0
        tanh_inner *= inputs
        tanh_inner *= self._SQRT_2_OVER_PI
        np.tanh(tanh_inner, out=tanh_inner)
        if training:
            self._cache = (inputs, tanh_inner)
        out = tanh_inner + 1.0
        out *= inputs
        out *= 0.5
        return out

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        x, tanh_inner = self._cache
        # local = 0.5 * (1 + t + x * (1 - t^2) * d_inner), with
        # d_inner = sqrt(2/pi) * (1 + 3 c x^2).
        sech2 = tanh_inner * tanh_inner
        np.subtract(1.0, sech2, out=sech2)
        local = x * x
        local *= 3.0 * self._COEFF * self._SQRT_2_OVER_PI
        local += self._SQRT_2_OVER_PI
        local *= x
        local *= sech2
        local += tanh_inner
        local += 1.0
        local *= 0.5
        return grad_output * local
