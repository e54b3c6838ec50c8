"""Weight initialisers for the numpy layers.

Every initialiser returns a float32 array drawn from a float64 stream, the
same values as ``draw(size=shape).astype(np.float32)`` and the same
generator state afterwards.  The draw is made into the float32 result one
:data:`BLOCK_ELEMENTS` block at a time, so no float64 twin of the whole
tensor is ever held: the generator consumes its stream sequentially, and
each block continues it where the previous one stopped.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

#: Elements per float64 draw (64 KiB): the largest temporary an
#: initialiser holds, whatever the size of the tensor it fills -- small
#: next to even a small model, so building a replica peaks at its own size.
BLOCK_ELEMENTS = 1 << 13


def _float32_from_stream(shape: Tuple[int, ...],
                         draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """A float32 array of ``shape`` filled block by block from ``draw(n)``."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, flat.size)
        flat[start:stop] = draw(stop - start)
    return out


def xavier_uniform(shape: Tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Args:
        shape: shape of the weight tensor to create.
        fan_in: number of input units feeding the weight.
        fan_out: number of output units the weight feeds.
        rng: numpy random generator (callers own seeding).
    """
    limit = np.sqrt(6.0 / float(fan_in + fan_out))
    return _float32_from_stream(
        shape, lambda n: rng.uniform(-limit, limit, size=n))


def normal(shape: Tuple[int, ...], std: float,
           rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal initialisation with standard deviation ``std``."""
    def draw(n: int) -> np.ndarray:
        block = rng.standard_normal(size=n)
        block *= std
        return block
    return _float32_from_stream(shape, draw)


def he_normal(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialisation, suited to ReLU networks."""
    return normal(shape, np.sqrt(2.0 / float(fan_in)), rng)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape, dtype=np.float32)
