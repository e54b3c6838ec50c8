"""Bounded-staleness (SSP) consistency.

The paper focuses on bulk-synchronous execution but notes that "Poseidon's
design can easily be applied to asynchronous or bounded-asynchronous
consistency models [12, 8]" (Section 1).  This module provides that
extension point: a Stale Synchronous Parallel clock in the style of
SSPTable/Bösen — every worker advances its own clock after each iteration,
and a worker may run ahead of the slowest worker by at most ``staleness``
clocks before it must wait.

With ``staleness = 0`` the controller degenerates to BSP (every worker waits
for every other worker at every clock), which is the configuration all
paper experiments use; larger bounds trade gradient freshness for straggler
tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.consistency import Rendezvous
from repro.exceptions import TrainingError

#: Sentinel distinguishing "no timeout given" from an explicit ``None``
#: (= wait forever) in :meth:`SSPClock.advance`.
_USE_DEFAULT: Optional[float] = object()  # type: ignore[assignment]


class SSPClock(Rendezvous):
    """A stale-synchronous-parallel clock shared by all workers.

    A dropped worker's frozen clock no longer counts toward the minimum
    (``remove_worker``), so survivors never stall waiting for a ghost.

    Args:
        num_workers: workers sharing the clock.
        staleness: SSP bound ``s``; ``None`` disables the bound entirely
            (fully asynchronous -- ``advance`` never blocks).
        default_timeout: straggler guard used by :meth:`advance` when the
            caller passes no explicit timeout.  The trainer plumbs its
            ``sync_timeout`` here so a slow worker fails with the same
            deadline as every other wait in the system (historically this
            was hardcoded to 60 s regardless of the trainer setting).
    """

    error = TrainingError

    def __init__(self, num_workers: int, staleness: Optional[int] = 0,
                 default_timeout: Optional[float] = 60.0):
        super().__init__(num_workers)
        if staleness is not None and staleness < 0:
            raise TrainingError(f"staleness must be >= 0, got {staleness}")
        self.staleness = None if staleness is None else int(staleness)
        self.default_timeout = default_timeout
        self._clocks: List[int] = [0] * self._size
        self._condition = self._new_condition()

    # -- inspection ---------------------------------------------------------------
    def clock(self, worker_id: int) -> int:
        """Current clock of one worker."""
        self._check_worker(worker_id)
        with self._condition:
            return self._clocks[worker_id]

    def min_clock(self) -> int:
        """Clock of the slowest live worker (the 'global' clock)."""
        with self._condition:
            return self._min_locked()

    def snapshot(self) -> Dict[int, int]:
        """Copy of every worker's clock."""
        with self._condition:
            return dict(enumerate(self._clocks))

    # -- protocol -------------------------------------------------------------------
    def advance(self, worker_id: int,
                timeout: Optional[float] = _USE_DEFAULT) -> int:
        """Finish one iteration: bump the worker's clock, then enforce the bound.

        Blocks while the worker is more than ``staleness`` clocks ahead of the
        slowest worker (never, when the bound is ``None``).  Returns the
        worker's new clock value.

        Args:
            timeout: straggler guard; omitted, the clock's
                ``default_timeout`` applies (``None`` waits forever).

        Raises:
            SyncTimeout: if the wait exceeds the timeout.
            WorkerFailure: if the clock was aborted before the bound held.
        """
        self._check_worker(worker_id)
        if timeout is _USE_DEFAULT:
            timeout = self.default_timeout
        with self._condition:
            self._admit(worker_id, "SSP clock {verb} at worker {}", worker_id)
            self._clocks[worker_id] += 1
            new_clock = self._clocks[worker_id]
            self._condition.notify_all()
            if self.staleness is not None:
                self._wait(
                    self._condition,
                    lambda: new_clock - self._min_locked() <= self.staleness,
                    timeout, "SSP clock {verb} at worker {}: blocked at clock "
                    "{} with staleness bound {} on the slowest worker",
                    worker_id, new_clock, self.staleness)
        return new_clock

    # -- fault-tolerance hooks -------------------------------------------------------
    def restore(self, clocks: Dict[int, int]) -> None:
        """Restore clocks from a :meth:`snapshot` (restart recovery)."""
        with self._condition:
            for worker_id, value in clocks.items():
                self._check_worker(worker_id)
                self._clocks[worker_id] = int(value)
            self._readmit()
            self._condition.notify_all()

    def _min_locked(self) -> int:
        if not self._dropped:
            return min(self._clocks)
        return min(clock for worker, clock in enumerate(self._clocks)
                   if worker not in self._dropped)
