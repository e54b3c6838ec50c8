"""2-D convolution implemented with im2col.

This is a correctness-oriented CPU implementation: it exists so that the
functional distributed trainer can train real (small) convolutional networks
-- e.g. the CIFAR-10 quick model of Figure 11 -- with exactly the gradients a
GPU framework would compute.  Throughput of the big ImageNet models is
handled by the simulator, not by this class.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ShapeError
from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer


def im2col(inputs: np.ndarray, kernel: int, stride: int, pad: int,
           out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, int, int]:
    """Unfold ``(B, C, H, W)`` inputs into ``(B*OH*OW, C*k*k)`` columns.

    The unfold is a zero-copy ``sliding_window_view`` over the padded input
    (strided for ``stride > 1``); the only data movement is the final
    gather into the column layout, which lands in ``out`` when a matching
    preallocated buffer is supplied.
    """
    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"im2col produces empty output for input {inputs.shape} "
            f"kernel={kernel} stride={stride} pad={pad}"
        )
    if pad:
        padded = np.pad(
            inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    else:
        padded = inputs
    # (B, C, OH', OW', k, k) view, strided down to (B, C, OH, OW, k, k).
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    # Column layout: (B, OH, OW, C, k, k) -> (B*OH*OW, C*k*k).
    windows = windows.transpose(0, 2, 3, 1, 4, 5)
    shape = (batch * out_h * out_w, channels * kernel * kernel)
    if out is not None and out.shape == shape and out.dtype == inputs.dtype:
        np.copyto(
            out.reshape(batch, out_h, out_w, channels, kernel, kernel), windows
        )
        return out, out_h, out_w
    cols = np.ascontiguousarray(windows).reshape(shape)
    return cols, out_h, out_w


def col2im(cols: np.ndarray, input_shape: Tuple[int, int, int, int], kernel: int,
           stride: int, pad: int) -> np.ndarray:
    """Fold ``(B*OH*OW, C*k*k)`` columns back into ``(B, C, H, W)`` gradients."""
    batch, channels, height, width = input_shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad), dtype=cols.dtype
    )
    if stride >= kernel:
        # Non-overlapping windows: the scatter-add is a plain (disjoint)
        # strided assignment into a writeable window view -- no k x k loop.
        windows = sliding_window_view(
            padded, (kernel, kernel), axis=(2, 3), writeable=True
        )[:, :, ::stride, ::stride]
        np.add(windows, cols.transpose(0, 1, 4, 5, 2, 3), out=windows)
    else:
        # Overlapping windows scatter-add into aliased memory, which a
        # single strided ufunc call cannot express safely; accumulate one
        # kernel offset at a time (each offset's writes are disjoint).
        for y in range(kernel):
            y_max = y + stride * out_h
            for x in range(kernel):
                x_max = x + stride * out_w
                padded[:, :, y:y_max:stride, x:x_max:stride] += cols[:, :, y, x, :, :]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def _im2col_packed(inputs: np.ndarray, kernel: int, stride: int, pad: int,
                   out: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, int, int]:
    """Unfold ``(B, C, H, W)`` inputs into packed ``(B, C*k*k, OH*OW)`` columns.

    The packed layout keeps the batch axis outermost, which makes the window
    gather a long-contiguous-run copy (about 4x faster than gathering into
    the ``(B*OH*OW, C*k*k)`` layout for small kernels) and lets the forward
    output, the backward gradient and col2im all reshape as views instead of
    transposing.  The GEMMs become batched over ``B``.
    """
    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"im2col produces empty output for input {inputs.shape} "
            f"kernel={kernel} stride={stride} pad={pad}"
        )
    if pad:
        padded = np.pad(
            inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    else:
        padded = inputs
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    # (B, C, OH, OW, ky, kx) -> (B, C, ky, kx, OH, OW), gathered contiguously.
    windows = windows.transpose(0, 1, 4, 5, 2, 3)
    shape = (batch, channels * kernel * kernel, out_h * out_w)
    if out is not None and out.shape == shape and out.dtype == inputs.dtype:
        np.copyto(
            out.reshape(batch, channels, kernel, kernel, out_h, out_w), windows
        )
        return out, out_h, out_w
    cols = np.ascontiguousarray(windows).reshape(shape)
    return cols, out_h, out_w


def _col2im_packed(cols: np.ndarray, input_shape: Tuple[int, int, int, int],
                   kernel: int, stride: int, pad: int) -> np.ndarray:
    """Fold packed ``(B, C*k*k, OH*OW)`` columns back into ``(B, C, H, W)``."""
    batch, channels, height, width = input_shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    cols = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad), dtype=cols.dtype
    )
    if stride >= kernel:
        windows = sliding_window_view(
            padded, (kernel, kernel), axis=(2, 3), writeable=True
        )[:, :, ::stride, ::stride]
        np.add(windows, cols.transpose(0, 1, 4, 5, 2, 3), out=windows)
    else:
        for y in range(kernel):
            y_max = y + stride * out_h
            for x in range(kernel):
                x_max = x + stride * out_w
                padded[:, :, y:y_max:stride, x:x_max:stride] += cols[:, :, y, x]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


class Conv2D(Layer):
    """2-D convolution with square kernels over ``(B, C, H, W)`` inputs."""

    def __init__(self, name: str, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, pad: int = 0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.pad = int(pad)
        fan_in = self.in_channels * self.kernel * self.kernel
        self.params = {
            "weight": he_normal(
                (self.out_channels, self.in_channels, self.kernel, self.kernel),
                fan_in=fan_in,
                rng=rng,
            ),
            "bias": zeros((self.out_channels,)),
        }
        self.zero_grads()
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], int, int]] = None
        # Column buffers reused across training iterations (same input shape
        # -> zero allocation on the forward/backward GEMM staging).
        self._col_buffer: Optional[np.ndarray] = None
        self._grad_col_buffer: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 4)
        if inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"layer {self.name!r}: expected {self.in_channels} input channels, "
                f"got {inputs.shape[1]}"
            )
        if training:
            # The buffer may still be referenced by a pending backward of a
            # *previous* training forward; overwriting matches the seed
            # semantics (backward always uses the latest training forward).
            cols, out_h, out_w = _im2col_packed(inputs, self.kernel, self.stride,
                                                self.pad, out=self._col_buffer)
            self._col_buffer = cols
        else:
            # Inference forwards must not clobber a pending backward's cache.
            cols, out_h, out_w = _im2col_packed(inputs, self.kernel, self.stride,
                                                self.pad)
        weight_matrix = self.params["weight"].reshape(self.out_channels, -1)
        # (O, C*k*k) @ (B, C*k*k, P) -> (B, O, P); the output reshapes to
        # (B, O, OH, OW) as a view -- no transpose.
        out = np.matmul(weight_matrix, cols)
        out += self.params["bias"][:, None]
        out = out.reshape(inputs.shape[0], self.out_channels, out_h, out_w)
        if training:
            self._cache = (cols, inputs.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        cols, input_shape, out_h, out_w = self._cache
        self._check_input(grad_output, 4, "gradient")
        batch = grad_output.shape[0]
        # (B, O, OH, OW) -> (B, O, P) is a view for contiguous gradients.
        grad_mat = grad_output.reshape(batch, self.out_channels, out_h * out_w)
        weight_matrix = self.params["weight"].reshape(self.out_channels, -1)
        grad_weight = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
        self.grads["weight"] = grad_weight.reshape(self.params["weight"].shape)
        self.grads["bias"] = grad_mat.sum(axis=(0, 2))
        if not need_input_grad:
            return None
        buf = self._grad_col_buffer
        if (buf is not None and buf.shape == cols.shape
                and buf.dtype == np.result_type(grad_mat, weight_matrix)):
            grad_input_cols = np.matmul(weight_matrix.T, grad_mat, out=buf)
        else:
            grad_input_cols = np.matmul(weight_matrix.T, grad_mat)
            self._grad_col_buffer = grad_input_cols
        return _col2im_packed(grad_input_cols, input_shape, self.kernel,
                              self.stride, self.pad)
