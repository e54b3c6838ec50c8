"""Unit helpers used throughout the library.

All internal quantities use SI base units: **bytes** for data sizes,
**seconds** for durations, **bits per second** for bandwidth and **FLOP/s**
for compute throughput.  The helpers below exist so that call sites can be
written in the units the paper uses (GbE, GB, ms, TFLOPS) without sprinkling
magic constants around.
"""

from __future__ import annotations

# Data sizes -----------------------------------------------------------------
KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Size of a single-precision float, the datatype used for all parameters and
#: gradients in the paper's evaluation.
FLOAT32_BYTES = 4

# Bandwidth ------------------------------------------------------------------
KBIT = 1_000
MBIT = 1_000 * KBIT
GBIT = 1_000 * MBIT

# Compute --------------------------------------------------------------------
GFLOPS = 1e9
TFLOPS = 1e12

# Time -----------------------------------------------------------------------
MS = 1e-3
US = 1e-6


def gbe(gigabits_per_second: float) -> float:
    """Convert an Ethernet rating in Gb/s to bits per second."""
    return gigabits_per_second * GBIT


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a quantity of bytes to bits."""
    return num_bytes * 8.0


def transfer_seconds(num_bytes: float, bandwidth_bps: float) -> float:
    """Time to push ``num_bytes`` through a link of ``bandwidth_bps``.

    Raises:
        ValueError: if the bandwidth is not strictly positive.
    """
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    return bytes_to_bits(num_bytes) / bandwidth_bps
