"""Max and average pooling layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import im2col


class MaxPool2D(Layer):
    """Max pooling over square windows."""

    def __init__(self, name: str, kernel: int, stride: Optional[int] = None, pad: int = 0):
        super().__init__(name)
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        self.pad = int(pad)
        self._cache = None
        # Scatter buffer reused across training iterations (same input shape
        # -> zero allocation per backward), mirroring Conv2D's column buffers.
        self._grad_col_buffer: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 4)
        batch, channels, height, width = inputs.shape
        cols, out_h, out_w = im2col(inputs, self.kernel, self.stride, self.pad)
        cols = cols.reshape(batch * out_h * out_w, channels, self.kernel * self.kernel)
        arg_max = cols.argmax(axis=2)
        out = np.take_along_axis(cols, arg_max[:, :, None], axis=2).squeeze(2)
        out = out.reshape(batch, out_h, out_w, channels).transpose(0, 3, 1, 2)
        if training:
            self._cache = (arg_max, inputs.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        from repro.nn.layers.conv import col2im

        arg_max, input_shape, out_h, out_w = self._cache
        batch, channels, _, _ = input_shape
        grad = grad_output.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, channels)
        shape = (batch * out_h * out_w, channels, self.kernel * self.kernel)
        grad_cols = self._grad_col_buffer
        if (grad_cols is not None and grad_cols.shape == shape
                and grad_cols.dtype == grad_output.dtype):
            grad_cols.fill(0)
        else:
            grad_cols = np.zeros(shape, dtype=grad_output.dtype)
            self._grad_col_buffer = grad_cols
        np.put_along_axis(grad_cols, arg_max[:, :, None], grad[:, :, None], axis=2)
        flat_cols = grad_cols.reshape(batch * out_h * out_w, -1)
        return col2im(flat_cols, input_shape, self.kernel, self.stride, self.pad)
