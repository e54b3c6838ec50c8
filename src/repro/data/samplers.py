"""Mini-batch samplers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ConfigurationError


class BatchSampler:
    """Cycles through a data partition in shuffled mini-batches.

    The sampler reshuffles at the start of every epoch and keeps yielding
    batches indefinitely, which matches how the iterative-convergent training
    loop of Eq. (1) consumes data.
    """

    def __init__(self, num_samples: int, batch_size: int, seed: int = 0,
                 drop_last: bool = True):
        if num_samples < 1:
            raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if drop_last and batch_size > num_samples:
            raise ConfigurationError(
                f"batch_size {batch_size} exceeds partition size {num_samples}"
            )
        self.num_samples = int(num_samples)
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)
        self._rng = np.random.default_rng(seed)
        self._order = np.arange(self.num_samples)
        self._cursor = self.num_samples  # force a shuffle on first use
        self.epoch = 0

    def next_batch(self) -> np.ndarray:
        """Return the indices of the next mini-batch."""
        if self._cursor + self.batch_size > self.num_samples:
            remainder = self.num_samples - self._cursor
            if not self.drop_last and remainder > 0:
                batch = self._order[self._cursor:]
                self._cursor = self.num_samples
                return batch
            self._rng.shuffle(self._order)
            self._cursor = 0
            self.epoch += 1
        batch = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch

    def batches(self, count: int) -> Iterator[np.ndarray]:
        """Yield ``count`` consecutive mini-batches."""
        for _ in range(count):
            yield self.next_batch()

    def get_state(self) -> dict:
        """Snapshot the full sampling state (for exact crash recovery)."""
        return {
            "rng": self._rng.bit_generator.state,
            "order": self._order.copy(),
            "cursor": self._cursor,
            "epoch": self.epoch,
        }

    def set_state(self, state: dict) -> None:
        """Restore from a :meth:`get_state` snapshot; replay is bit-exact."""
        self._rng.bit_generator.state = state["rng"]
        self._order = np.array(state["order"], copy=True)
        self._cursor = int(state["cursor"])
        self.epoch = int(state["epoch"])
