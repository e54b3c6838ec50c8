"""Pluggable gradient compressors (the zoo behind ``compressor=...``).

Generalizes the 1-bit quantizer into a protocol the dense-gradient
backends (PS, ring) plug in behind their syncers, DDP-communication-hook
style: a :class:`Compressor` takes one layer's gradient dict and returns
a *lossy* dict of the same shapes plus the exact wire bytes the
compressed message would occupy.  The substrate then moves the lossy
gradients with the compressed byte count booked against the wire, so the
trainer's arithmetic sees what the receiver would reconstruct while the
byte accounting matches :func:`repro.comm.wire.unit_wire_bytes` exactly.

Scope rule (shared with :mod:`repro.comm.wire`): only 2-D weight
matrices with at least :data:`~repro.comm.wire.MIN_COMPRESS_ELEMENTS`
elements are compressed -- fully-connected weights.  Biases and
convolution kernels ship dense under every compressor, which is what
lets the simulators price any layer kind from ``fc_dims`` alone.

Compressors are stateful (error-feedback residuals, PowerSGD's
warm-started factors); their state joins the trainer's substrate-wide
checkpoint/restore API through :meth:`Compressor.get_state` /
:meth:`Compressor.set_state` so restart recovery stays bit-identical.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.comm.quantization import OneBitQuantizer
from repro.comm.wire import (
    MIN_COMPRESS_ELEMENTS,
    CompressionConfig,
    powersgd_rank,
    topk_count,
)

ArrayDict = Dict[str, np.ndarray]


def _compressible(array: np.ndarray) -> bool:
    """The trainer-side scope rule: 2-D weights of at least 64 elements."""
    return array.ndim == 2 and array.size >= MIN_COMPRESS_ELEMENTS


class Compressor:
    """Base class: lossy-compress one layer's gradient dict.

    Subclasses implement :meth:`_compress_array` for in-scope 2-D weight
    matrices; everything else passes through dense.  ``compress`` returns
    the lossy gradients plus the total wire bytes of the compressed
    message (compressed weights + dense remainder), which by construction
    equals ``wire.unit_wire_bytes(self.config, ...)`` for the layer.
    """

    def __init__(self, config: CompressionConfig):
        self.config = config

    @property
    def spec(self) -> str:
        """Canonical spec string (round-trips through ``make_compressor``)."""
        if self.config.kind == "topk":
            return f"topk({self.config.k:g})"
        if self.config.kind == "powersgd":
            return f"powersgd({self.config.rank})"
        return self.config.kind

    def compress(self, layer: str, grads: ArrayDict) -> Tuple[ArrayDict, int]:
        """Lossy-compress ``grads``; returns ``(lossy_grads, wire_bytes)``."""
        lossy: ArrayDict = {}
        wire = 0
        for name, grad in grads.items():
            if _compressible(grad):
                key = f"{layer}/{name}"
                lossy[name], nbytes = self._compress_array(key, grad)
                wire += nbytes
            else:
                lossy[name] = grad
                wire += int(grad.nbytes)
        return lossy, wire

    def _compress_array(self, key: str,
                        grad: np.ndarray) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all compressor state."""

    def get_state(self) -> Dict[str, Any]:
        """Deep-copied state snapshot (for checkpointing)."""
        return {}

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`get_state` snapshot."""


class OneBitCompressor(Compressor):
    """1-bit sign quantization with error feedback, as a compressor.

    Delegates the math to :class:`~repro.comm.quantization.OneBitQuantizer`
    byte-for-byte (same masked-sum scales, same residual update); only the
    scope rule differs from the legacy ``mode="onebit"`` path, which also
    quantizes >=2-D convolution kernels.
    """

    def __init__(self, config: CompressionConfig):
        super().__init__(config)
        self._quantizer = OneBitQuantizer()

    def _compress_array(self, key, grad):
        quantized = self._quantizer.quantize(key, grad)
        return quantized.dequantize(), quantized.nbytes

    def reset(self):
        self._quantizer.reset()

    def get_state(self):
        return {"residuals": self._quantizer.get_state()}

    def set_state(self, state):
        self._quantizer.set_state(state["residuals"])


def _topk_indices(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest ``magnitudes``, ties to the lowest index.

    Exactly the set ``np.argsort(-magnitudes, kind="stable")[:count]`` keeps,
    found with an O(n) partition: everything above the ``count``-th largest
    value, plus as many of the lowest-index entries equal to it as it takes.
    NaN magnitudes compare false against any threshold and leave that
    selection short; only then is the full stable sort paid for.
    """
    kth = magnitudes.size - count
    threshold = np.partition(magnitudes, kth)[kth]
    above = np.flatnonzero(magnitudes > threshold)
    ties = np.flatnonzero(magnitudes == threshold)[:count - above.size]
    if above.size + ties.size != count:
        return np.argsort(-magnitudes, kind="stable")[:count]
    return np.concatenate([above, ties])


class TopKCompressor(Compressor):
    """Top-k magnitude sparsification with per-key error feedback.

    Keeps the ``topk_count(k, elements)`` largest-magnitude entries of the
    residual-corrected gradient (deterministic selection: ties go to the
    lowest flat index, see :func:`_topk_indices`) and carries everything
    un-sent forward as the next iteration's residual, so no gradient mass
    is ever dropped.
    """

    def __init__(self, config: CompressionConfig):
        super().__init__(config)
        self._residuals: Dict[str, np.ndarray] = {}

    def _compress_array(self, key, grad):
        corrected = grad + self._residuals.get(key, 0.0)
        flat = corrected.reshape(-1)
        keep = _topk_indices(np.abs(flat), topk_count(self.config.k, flat.size))
        lossy_flat = np.zeros_like(flat)
        lossy_flat[keep] = flat[keep]
        lossy = lossy_flat.reshape(corrected.shape).astype(grad.dtype,
                                                           copy=False)
        # The residual is the corrected gradient minus what was sent: zero
        # the sent entries of the freshly allocated ``corrected`` (through
        # ``flat``, which is a copy rather than a view for F-ordered input).
        flat[keep] = 0
        self._residuals[key] = flat.reshape(corrected.shape)
        m, n = grad.shape
        return lossy, self.config.weight_payload_bytes(m, n)

    def reset(self):
        self._residuals.clear()

    def get_state(self):
        return {"residuals": {key: residual.copy()
                              for key, residual in self._residuals.items()}}

    def set_state(self, state):
        self._residuals = {key: np.array(residual, copy=True)
                           for key, residual in state["residuals"].items()}


class PowerSGDCompressor(Compressor):
    """Rank-``r`` low-rank approximation with warm-started factors.

    The natural kin to SFB's ``m x n`` outer-product factorization: the
    residual-corrected gradient ``M`` is approximated as ``P Q^T`` with
    ``P = qr(M Q_prev)`` (orthonormalized) and ``Q = M^T P``; only the two
    factors travel.  ``Q`` is warm-started across iterations (one power
    iteration per step) from a per-key deterministically seeded Gaussian,
    and the approximation error feeds back into the next gradient.
    """

    def __init__(self, config: CompressionConfig):
        super().__init__(config)
        self._qs: Dict[str, np.ndarray] = {}
        self._residuals: Dict[str, np.ndarray] = {}

    def _initial_q(self, key: str, n: int, rank: int) -> np.ndarray:
        rng = np.random.default_rng(zlib.crc32(key.encode("utf-8")))
        return rng.standard_normal((n, rank)).astype(np.float32)

    def _compress_array(self, key, grad):
        m, n = grad.shape
        rank = powersgd_rank(self.config.rank, m, n)
        corrected = (grad + self._residuals.get(key, 0.0)).astype(
            np.float32, copy=False)
        q_prev = self._qs.get(key)
        if q_prev is None or q_prev.shape != (n, rank):
            q_prev = self._initial_q(key, n, rank)
        p = corrected @ q_prev
        p, _ = np.linalg.qr(p)
        q_new = corrected.T @ p
        lossy = (p @ q_new.T).astype(grad.dtype)
        self._qs[key] = q_new.astype(np.float32)
        self._residuals[key] = corrected - lossy
        return lossy, self.config.weight_payload_bytes(m, n)

    def reset(self):
        self._qs.clear()
        self._residuals.clear()

    def get_state(self):
        return {
            "qs": {key: q.copy() for key, q in self._qs.items()},
            "residuals": {key: residual.copy()
                          for key, residual in self._residuals.items()},
        }

    def set_state(self, state):
        self._qs = {key: np.array(q, copy=True)
                    for key, q in state["qs"].items()}
        self._residuals = {key: np.array(residual, copy=True)
                           for key, residual in state["residuals"].items()}


_COMPRESSORS = {
    "onebit": OneBitCompressor,
    "topk": TopKCompressor,
    "powersgd": PowerSGDCompressor,
}


def make_compressor(spec: Optional[str]) -> Optional[Compressor]:
    """Build a fresh compressor from a spec string (``None`` for identity).

    Raises :class:`~repro.exceptions.ConfigurationError` on unparseable
    specs, so trainers and simulators fail at construction, not mid-run.
    """
    config = CompressionConfig.parse(spec)
    if config.is_identity:
        return None
    return _COMPRESSORS[config.kind](config)
