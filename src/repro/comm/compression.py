"""Pluggable gradient compressors (the zoo behind ``compressor=...``).

A protocol the dense-gradient backends (PS, ring) plug in behind their
syncers, DDP-communication-hook style: a :class:`Compressor` takes one
layer's gradient dict and returns what each array sends (a *lossy*
array, or top-k's index/value payload that the fold scatter-adds) plus
the exact wire bytes of the message.
The substrate books those bytes, so the trainer's arithmetic sees what
the receiver would reconstruct while the byte accounting matches
:func:`repro.comm.wire.unit_wire_bytes` exactly.

Scope rule (shared with :mod:`repro.comm.wire`): only 2-D weight
matrices with at least :data:`~repro.comm.wire.MIN_COMPRESS_ELEMENTS`
elements are compressed -- fully-connected weights.  Biases and
convolution kernels ship dense under every compressor, which is what
lets the simulators price any layer kind from ``fc_dims`` alone.  1-bit
quantization is a backend, not a compressor
(:class:`~repro.comm.backend.OneBitBackend`): its
:class:`~repro.comm.quantization.OneBitQuantizer` has the same
``compress`` signature but its own scope and wire model.

Compressors are stateful (error-feedback residuals, PowerSGD's
warm-started factors); their state joins the trainer's substrate-wide
checkpoint/restore API through :meth:`Compressor.get_state` /
:meth:`Compressor.set_state` so restart recovery stays bit-identical.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.comm.wire import (
    MIN_COMPRESS_ELEMENTS,
    CompressionConfig,
    powersgd_rank,
    topk_count,
)
from repro.nn.optim import SparseGradient

ArrayDict = Dict[str, np.ndarray]


def _compressible(array: np.ndarray) -> bool:
    """The trainer-side scope rule: 2-D weights of at least 64 elements."""
    return array.ndim == 2 and array.size >= MIN_COMPRESS_ELEMENTS


class Compressor:
    """Base class: lossy-compress one layer's gradient dict.

    Subclasses implement :meth:`_compress_array` for in-scope 2-D weight
    matrices; everything else passes through dense.  ``compress`` returns
    what each gradient sends plus the total wire bytes of the compressed
    message (compressed weights + dense remainder), which by construction
    equals ``wire.unit_wire_bytes(self.config, ...)`` for the layer.
    """

    def __init__(self, config: CompressionConfig):
        self.config = config

    @property
    def spec(self) -> str:
        """Canonical spec string (round-trips through ``make_compressor``)."""
        if self.config.kind == "topk":
            k = self.config.k   # a whole count, or the exact shortest repr
            return f"topk({int(k) if k >= 1 else repr(k)})"
        if self.config.kind == "powersgd":
            return f"powersgd({self.config.rank})"
        return self.config.kind

    def compress(self, layer: str, grads: ArrayDict) -> Tuple[dict, int]:
        """Lossy-compress ``grads``; returns ``(lossy_grads, wire_bytes)``."""
        lossy: dict = {}
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

    def _compress_array(self, key: str, grad: np.ndarray) -> Tuple[Any, int]:
        raise NotImplementedError

    def get_state(self) -> Dict[str, Any]:
        """Deep-copied state snapshot (for checkpointing)."""
        return {}

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`get_state` snapshot."""


#: Magnitudes in the fixed strided sample the top-k threshold is read from,
#: and the candidates per kept entry that threshold aims at.
TOPK_SAMPLE, TOPK_OVERSAMPLE = 1024, 2.0


def _topk_indices(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Sorted indices of the ``count`` largest ``magnitudes``, ties to the
    lowest index (the set ``np.argsort(-magnitudes, kind="stable")[:count]``).

    At least ``count`` candidates at or above a threshold read from a
    strided sample hold every kept entry: the selection recurses on them.
    Else an O(n) partition: all above the ``count``-th largest value, plus
    the lowest-index entries equal to it.  NaN magnitudes compare false
    and leave that short; only then is the full stable sort paid for.
    """
    stride = magnitudes.size // TOPK_SAMPLE
    if stride >= 4:
        sample = magnitudes[::stride | 1]   # odd: walks across the columns
        rank = int(TOPK_OVERSAMPLE * count * sample.size / magnitudes.size) + 1
        if rank < sample.size:
            candidates = np.flatnonzero(
                magnitudes >= np.partition(sample, -rank)[-rank])
            if count <= candidates.size < magnitudes.size:
                return candidates[_topk_indices(magnitudes[candidates], count)]
    kth = magnitudes.size - count
    threshold = np.partition(magnitudes, kth)[kth]
    above = np.flatnonzero(magnitudes > threshold)
    ties = np.flatnonzero(magnitudes == threshold)[:count - above.size]
    if above.size + ties.size != count:
        return np.sort(np.argsort(-magnitudes, kind="stable")[:count])
    return np.sort(np.concatenate([above, ties]))


class TopKCompressor(Compressor):
    """Top-k magnitude sparsification with per-key error feedback.

    Sends the ``topk_count(k, elements)`` largest-magnitude entries of the
    residual-corrected gradient as a :class:`~repro.nn.optim.SparseGradient`
    (ties go to the lowest flat index, see :func:`_topk_indices`) and keeps
    everything un-sent as the next iteration's residual, updated in place
    from ``+0.0`` (so no payload holds ``-0.0``).  Magnitudes go to a
    scratch per thread: a worker's pool compresses layers concurrently.
    """

    def __init__(self, config: CompressionConfig):
        super().__init__(config)
        self._residuals: Dict[str, np.ndarray] = {}
        self._local = threading.local()

    def _compress_array(self, key, grad):
        residual = self._residuals.get(key)
        if residual is None:
            residual = self._residuals[key] = np.zeros(grad.shape, grad.dtype)
        residual += grad
        flat = residual.reshape(-1)     # a view: the residual is C-ordered
        scratch = getattr(self._local, "scratch", flat[:0])
        if scratch.size < flat.size or scratch.dtype != flat.dtype:
            scratch = self._local.scratch = np.empty_like(flat)
        keep = _topk_indices(np.abs(flat, out=scratch[:flat.size]),
                             topk_count(self.config.k, flat.size))
        payload = SparseGradient(grad.shape, keep.astype(np.int32), flat[keep])
        flat[keep] = 0
        m, n = grad.shape
        return payload, self.config.weight_payload_bytes(m, n)

    def get_state(self):
        return {"residuals": {key: residual.copy()
                              for key, residual in self._residuals.items()}}

    def set_state(self, state):
        self._residuals = {key: np.array(residual, copy=True, order="C")
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
