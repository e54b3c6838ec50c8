"""Inverted dropout layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer


class Dropout(Layer):
    """Inverted dropout: activations are scaled at train time, identity at eval."""

    def __init__(self, name: str, rate: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        kept = self._rng.random(inputs.shape) < keep
        self._mask = kept.astype(inputs.dtype) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
