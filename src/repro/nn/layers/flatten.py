"""Flatten layer bridging convolutional and fully-connected stacks."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer


class Flatten(Layer):
    """Reshape ``(B, C, H, W)`` activations into ``(B, C*H*W)`` vectors."""

    def __init__(self, name: str):
        super().__init__(name)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        return grad_output.reshape(self._input_shape)
