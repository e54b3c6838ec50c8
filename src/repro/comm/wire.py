"""Shared wire-size accounting for compressed and bucketed gradients.

Every byte that a compressor or the gradient bucketer puts on (or keeps
off) the wire is counted **here and only here**: the functional trainer,
the Table-1 cost model, the event-driven simulator and the fluid engine
all call the same helpers, so the four layers agree exactly by
construction instead of by parallel re-implementation.

Two vocabulary pieces live here:

* :class:`CompressionConfig` -- the parsed form of a compressor spec
  string (``"none"``, ``"topk(0.01)"``, ``"powersgd(4)"``) with the
  per-matrix payload formulas and the compute-cost model.
* the payload formulas themselves (:func:`topk_payload_bytes`,
  :func:`powersgd_payload_bytes`) plus :func:`unit_wire_bytes`, the
  single entry point that prices a whole sync unit (optionally a merged
  bucket via its ``payload_parts``).

1-bit quantization is the ``OneBitBackend``, not a compressor: the
trainer books its :class:`~repro.comm.quantization.QuantizedGradient`
sizes (sign bits by :func:`sign_payload_bytes`), and the engines price
both directions of every parameter at a ``ONEBIT_COMPRESSION`` (32x)
shrink.

Scope rule (shared with :mod:`repro.comm.compression`): a compressor
applies to 2-D weight matrices with at least
:data:`MIN_COMPRESS_ELEMENTS` elements -- i.e. fully-connected weights.
Biases and convolution kernels always ship dense, so the trainer's
per-array decision and the simulators' per-unit ``fc_dims`` decision
select exactly the same bytes for every layer kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import units
from repro.domains import (COUNT, POSITIVE, WHOLE, Domain, check_fields,
                           declared, one_of, optional, require)
from repro.exceptions import ConfigurationError

#: Minimum element count before a 2-D weight matrix is worth compressing
#: (and, for the 1-bit quantizer, any >= 2-D tensor).
MIN_COMPRESS_ELEMENTS = 64

#: Bytes of one top-k entry on the wire: an int32 flat index + a float32 value.
TOPK_ENTRY_BYTES = 8


def sign_payload_bytes(elements: int) -> int:
    """Bytes of a 1-bit sign payload for ``elements`` values (ceil-divide).

    The wire-accounting rule of
    :attr:`repro.comm.quantization.QuantizedGradient.nbytes`.
    """
    return (int(elements) + 7) // 8


def topk_count(k: float, elements: int) -> int:
    """Entries a ``topk(k)`` compressor keeps from ``elements`` values.

    ``k < 1`` is a fraction of the elements (rounded, at least one);
    ``k >= 1`` is an absolute count.  Never exceeds ``elements``.
    """
    if elements < 1:
        raise ConfigurationError(f"elements must be >= 1, got {elements}")
    if k < 1.0:
        return max(1, min(elements, int(round(k * elements))))
    return max(1, min(elements, int(k)))


def topk_payload_bytes(k: float, m: int, n: int) -> int:
    """Wire bytes of a top-k sparsified ``m x n`` matrix (index+value pairs)."""
    return topk_count(k, m * n) * TOPK_ENTRY_BYTES


def powersgd_rank(rank: int, m: int, n: int) -> int:
    """Effective factor rank of a PowerSGD-compressed ``m x n`` matrix."""
    return max(1, min(int(rank), m, n))


def powersgd_payload_bytes(rank: int, m: int, n: int) -> int:
    """Wire bytes of PowerSGD's two float32 factors ``P (m x r)``, ``Q (n x r)``."""
    r = powersgd_rank(rank, m, n)
    return (m + n) * r * units.FLOAT32_BYTES


_SPEC_RE = re.compile(r"^(?P<kind>[a-z]+)(?:\((?P<arg>[^)]*)\))?$")

#: A top-k keep parameter: a fraction below 1, a whole entry count from 1.
TOPK_KEEP = Domain(lambda k: POSITIVE.check(k)
                   and (k < 1 or float(k).is_integer()),
                   "finite, > 0 and whole if >= 1")
#: Each compressor kind's parameter, ``(field, parse)``, or None.
_SPEC_ARGS = {"none": None, "topk": ("k", float), "powersgd": ("rank", int)}


@dataclass(frozen=True)
class CompressionConfig:
    """Parsed compressor spec: kind plus its parameter.

    Attributes:
        kind: ``"none"`` / ``"topk"`` / ``"powersgd"``.
        k: top-k keep parameter (fraction if < 1, else absolute count).
        rank: PowerSGD factor rank.
    """

    kind: str = declared(one_of("none", "topk", "powersgd"))
    k: Optional[float] = declared(optional(TOPK_KEEP), None)
    rank: Optional[int] = declared(optional(COUNT), None)

    def __post_init__(self) -> None:
        check_fields(self)
        own = (_SPEC_ARGS[self.kind] or ("",))[0]   # the kind's parameter
        if (self.k is None, self.rank is None) != (own != "k", own != "rank"):
            raise ConfigurationError(
                f"compressor {self.kind!r} takes {own or 'no parameter'}, "
                f"got k={self.k!r}, rank={self.rank!r}")

    @classmethod
    def parse(cls, spec: Optional[str]) -> "CompressionConfig":
        """Parse a compressor spec string.

        Accepts ``None`` / ``"none"``, ``"topk(K)"`` and ``"powersgd(R)"``;
        raises :class:`ConfigurationError` on anything else (1-bit too: it
        is a backend) so misconfigurations surface at construction time.
        Only the grammar is checked here; the value, by the field's domain.
        """
        if spec is None:
            return cls(kind="none")
        if isinstance(spec, CompressionConfig):
            return spec
        match = _SPEC_RE.match(str(spec).strip().lower())
        if match is None or match.group("kind") not in _SPEC_ARGS:
            raise ConfigurationError(
                f"unknown compressor spec {spec!r}; expected 'none', "
                f"'topk(K)' or 'powersgd(R)'")
        kind, arg = match.group("kind", "arg")
        if arg is None:   # a kind built without its parameter is refused
            return cls(kind=kind)
        if _SPEC_ARGS[kind] is None:
            raise ConfigurationError(f"'none' takes no argument: {spec!r}")
        name, number = _SPEC_ARGS[kind]
        try:
            value = number(arg)
        except ValueError:
            raise ConfigurationError(
                f"invalid {kind} parameter {arg!r} in {spec!r}") from None
        return cls(kind=kind, **{name: value})

    @property
    def is_identity(self) -> bool:
        """Whether this config leaves every payload dense (the default)."""
        return self.kind == "none"

    def compresses(self, m: int, n: int) -> bool:
        """Whether an ``m x n`` weight matrix falls under the scope rule."""
        return not self.is_identity and m * n >= MIN_COMPRESS_ELEMENTS

    def weight_payload_bytes(self, m: int, n: int) -> int:
        """Wire bytes of one ``m x n`` weight matrix under this config."""
        if not self.compresses(m, n):
            return m * n * units.FLOAT32_BYTES
        if self.kind == "topk":
            return topk_payload_bytes(self.k, m, n)
        return powersgd_payload_bytes(self.rank, m, n)

    def weight_ratio(self, m: int, n: int) -> float:
        """Compressed/dense byte ratio of one ``m x n`` weight matrix."""
        dense = m * n * units.FLOAT32_BYTES
        return self.weight_payload_bytes(m, n) / dense

    def compression_flops(self, m: int, n: int) -> float:
        """Modelled compressor FLOPs for one ``m x n`` weight matrix.

        A deliberately coarse per-element model, zero at the identity:
        top-k costs a selection pass (~8 flops/element), PowerSGD its two
        rank-``r`` GEMMs (~4 r flops/element).
        """
        if not self.compresses(m, n):
            return 0.0
        elements = m * n
        if self.kind == "topk":
            return 8.0 * elements
        return 4.0 * powersgd_rank(self.rank, m, n) * elements


#: ``(param_bytes, fc_dims)`` of one member inside a merged bucket.
PayloadPart = Tuple[int, Optional[Tuple[int, int]]]


def unit_wire_bytes(config: Optional[CompressionConfig], param_bytes: float,
                    fc_dims: Optional[Tuple[int, int]] = None,
                    payload_parts: Optional[Sequence[PayloadPart]] = None
                    ) -> float:
    """Wire bytes of one sync unit's gradient payload under ``config``.

    The single accounting entry point: a dense unit (or identity config)
    prices at ``param_bytes``; an FC unit prices its weight matrix through
    the config's payload formula with the remainder (bias) dense; a merged
    bucket (``payload_parts`` set) prices each member independently and
    sums -- bucketing never changes byte totals, only message counts.
    """
    if config is None or config.is_identity:
        return param_bytes
    if payload_parts is not None:
        return float(sum(unit_wire_bytes(config, part_bytes, dims)
                         for part_bytes, dims in payload_parts))
    if fc_dims is None:
        return param_bytes
    m, n = fc_dims
    if not config.compresses(m, n):
        return param_bytes
    dense_weight = m * n * units.FLOAT32_BYTES
    rest = max(0.0, param_bytes - dense_weight)
    return config.weight_payload_bytes(m, n) + rest


def unit_compression_flops(config: Optional[CompressionConfig],
                           fc_dims: Optional[Tuple[int, int]] = None,
                           payload_parts: Optional[Sequence[PayloadPart]] = None
                           ) -> float:
    """Modelled compressor FLOPs for one sync unit (0 for dense payloads)."""
    if config is None or config.is_identity:
        return 0.0
    if payload_parts is not None:
        return float(sum(unit_compression_flops(config, dims)
                         for _part_bytes, dims in payload_parts))
    if fc_dims is None:
        return 0.0
    return config.compression_flops(*fc_dims)


def bucket_partition(sizes: Sequence[float],
                     bucket_bytes: int) -> List[List[int]]:
    """Greedy fixed-byte-size bucket partition over ``sizes`` (in order).

    Items fill the current bucket in the given order and the bucket is
    flushed the moment its accumulated bytes reach ``bucket_bytes``; a
    non-empty remainder forms the final bucket.  Both the trainer's
    :class:`~repro.comm.bucketing.GradientBucketer` and the simulators'
    :func:`~repro.comm.bucketing.bucket_workload` follow exactly this
    rule, so their message counts agree by construction.
    """
    require("bucket_bytes", bucket_bytes, WHOLE)
    buckets: List[List[int]] = []
    current: List[int] = []
    filled = 0.0
    for index, size in enumerate(sizes):
        current.append(index)
        filled += size
        if filled >= bucket_bytes:
            buckets.append(current)
            current = []
            filled = 0.0
    if current:
        buckets.append(current)
    return buckets
