"""1-bit gradient quantization with error feedback (the CNTK baseline).

Section 5.3 of the paper compares Poseidon against CNTK's 1-bit SGD: each
gradient element is reduced to its sign, a per-column scale restores the
magnitude, and the quantization error is carried over ("error feedback")
into the next iteration's gradient.  The paper observes that the delayed
residual updates hurt convergence on image models (Figure 11) even though
the technique works well for speech.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.comm.wire import MIN_COMPRESS_ELEMENTS, sign_payload_bytes
from repro.exceptions import CommunicationError


@dataclass(frozen=True)
class QuantizedGradient:
    """A 1-bit quantized tensor plus reconstruction scales.

    Attributes:
        signs: boolean array, True where the (residual-corrected) gradient is
            non-negative.
        positive_scale: per-column mean of the non-negative entries.
        negative_scale: per-column mean of the negative entries.
        shape: original tensor shape.
    """

    signs: np.ndarray
    positive_scale: np.ndarray
    negative_scale: np.ndarray
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Wire size: one bit per element plus the float32 scales.

        The sign payload is a packed bitfield, so it occupies a whole
        number of bytes: ceiling division, not floor -- flooring would
        undercount every tensor whose element count is not a multiple
        of 8 (and report zero bytes for tensors under 8 elements).  The
        ceil-divide itself lives in :func:`repro.comm.wire.sign_payload_bytes`
        so the trainer, cost model and simulators share one formula.
        """
        bits = int(np.prod(self.shape))
        return (sign_payload_bytes(bits) + int(self.positive_scale.nbytes)
                + int(self.negative_scale.nbytes))

    def dequantize(self) -> np.ndarray:
        """Reconstruct the dense tensor from signs and scales."""
        dense = np.where(self.signs, self.positive_scale, self.negative_scale)
        return dense.reshape(self.shape).astype(np.float32)


class OneBitQuantizer:
    """Stateful 1-bit quantizer with per-parameter error feedback."""

    def __init__(self) -> None:
        self._residuals: Dict[str, np.ndarray] = {}

    def quantize(self, key: str, gradient: np.ndarray) -> QuantizedGradient:
        """Quantize ``gradient`` to 1 bit, folding in and updating the residual."""
        if gradient.ndim == 0:
            raise CommunicationError("cannot quantize a scalar gradient")
        corrected = gradient + self._residuals.get(key, 0.0)
        matrix = corrected.reshape(corrected.shape[0], -1)
        signs = matrix >= 0
        # Per-column means of the non-negative / negative entries, computed
        # with masked sums and counts: one pass over the matrix instead of
        # O(columns) fancy-indexing round trips (float64 accumulation keeps
        # the result within 1e-6 of the per-column reference on any dtype).
        positive_count = signs.sum(axis=0, dtype=np.int64)
        negative_count = matrix.shape[0] - positive_count
        positive_sum = np.where(signs, matrix, 0.0).sum(axis=0, dtype=np.float64)
        negative_sum = matrix.sum(axis=0, dtype=np.float64) - positive_sum
        positive_scale = np.divide(
            positive_sum, positive_count,
            out=np.zeros(matrix.shape[1], dtype=np.float64),
            where=positive_count > 0).astype(np.float32).reshape(1, -1)
        negative_scale = np.divide(
            negative_sum, negative_count,
            out=np.zeros(matrix.shape[1], dtype=np.float64),
            where=negative_count > 0).astype(np.float32).reshape(1, -1)
        quantized = QuantizedGradient(
            signs=signs,
            positive_scale=positive_scale,
            negative_scale=negative_scale,
            shape=corrected.shape,
        )
        self._residuals[key] = corrected - quantized.dequantize()
        return quantized

    def compress(self, layer: str, grads: Dict[str, np.ndarray]
                 ) -> Tuple[Dict[str, np.ndarray], int]:
        """Quantize one layer's gradient dict; returns ``(lossy, wire_bytes)``.

        The :meth:`repro.comm.compression.Compressor.compress` signature,
        so a syncer's compressed path runs it.  The scope is the 1-bit
        scheme's own: every >= 2-D tensor of at least
        :data:`~repro.comm.wire.MIN_COMPRESS_ELEMENTS` elements, conv
        kernels included.  Smaller tensors (biases) are cheaper to send
        exactly and pass through dense.
        """
        lossy: Dict[str, np.ndarray] = {}
        wire = 0
        for key, grad in grads.items():
            if grad.ndim >= 2 and grad.size >= MIN_COMPRESS_ELEMENTS:
                quantized = self.quantize(f"{layer}/{key}", grad)
                lossy[key] = quantized.dequantize()
                wire += quantized.nbytes
            else:
                lossy[key] = grad
                wire += int(grad.nbytes)
        return lossy, wire

    def get_state(self) -> Dict[str, np.ndarray]:
        """Deep copy of the error-feedback residuals (for checkpointing)."""
        return {key: residual.copy() for key, residual in self._residuals.items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore residuals from a :meth:`get_state` snapshot."""
        self._residuals = {key: np.array(residual, copy=True)
                           for key, residual in state.items()}

