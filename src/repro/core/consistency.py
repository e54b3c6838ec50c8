"""Bulk-synchronous-parallel (BSP) consistency management.

Poseidon "implements the bulk synchronous consistency (BSP) model as
follows.  The client library maintains a binary vector C with length the
number of syncers and values reset to zeros at the start of each iteration.
A syncer will set its corresponding entry in C as 1 when its job finishes,
and the client starts the next iteration when all entries are 1" (Section
4.1).  The KV store counts updates per KV pair and broadcasts when the count
equals the number of workers (that half lives in
:class:`~repro.comm.parameter_server.ShardedParameterServer`).

Both halves are one synchronisation idea -- post a contribution, wait until
a count / version / clock bound holds -- and :class:`Rendezvous` states its
protocol once for every blocking primitive of the functional trainer (the
parameter servers, the SFB / ring / averaging boards, the barrier below and
:class:`~repro.core.staleness.SSPClock`):

* **post** -- :meth:`Rendezvous._admit` runs first, under the wait point's
  lock: a post on an aborted rendezvous, or by a dropped worker, raises
  before any state is mutated;
* **wait** -- :meth:`Rendezvous._wait` is the single bounded wait: a
  condition that holds returns its value (aborted or not), an abort before
  it held raises, expiry raises :class:`~repro.exceptions.SyncTimeout`;
* **abort** -- :meth:`Rendezvous.abort` wakes every waiter.  A
  :class:`~repro.exceptions.WorkerFailure` reason cascades (``cascade=True``,
  same ``worker_id`` / ``iteration``); any other reason surfaces as the
  owner's :attr:`Rendezvous.error` class (``CommunicationError`` for the
  communication substrates, ``TrainingError`` for barrier and clock);
* **membership** -- ``num_workers`` is the live count ``P`` every
  completion rule reads; :meth:`Rendezvous.remove_worker` shrinks it
  (drop-dead-worker mode) and restart recovery re-admits everyone.

:class:`KeyedBoard` adds the ``key -> one contribution per worker`` board
the peer-to-peer substrates share.  :class:`BSPController` is the
client-side half used by the functional trainer; it is thread-safe because
syncer jobs complete on worker-local thread pools.  The barrier is a
generation barrier rather than :class:`threading.Barrier` so that fault
tolerance can reach it: the party count shrinks when a dead worker is
dropped, a supervisor can abort it to wake blocked survivors immediately
instead of letting them time out, and the last arriver can run a callback
while every other worker is still parked inside the barrier -- a consistent
cut, which is exactly when the trainer snapshots a checkpoint.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    CommunicationError,
    SyncTimeout,
    TrainingError,
    WorkerFailure,
)


class Rendezvous:
    """Abort reason, bounded wait and live membership of one sync primitive.

    A primitive may park its waiters on several wait points (the parameter
    server has one per layer slot so pushes to different layers never
    contend); all of them share this one abort reason and membership.
    ``what`` arguments are ``str.format`` templates over ``*args`` with a
    ``{verb}`` field (``"timed out"`` / ``"aborted"`` / ...), formatted only
    when something goes wrong.
    """

    #: Class of a non-:class:`WorkerFailure` abort and of a bad argument.
    error = CommunicationError

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise self.error(f"num_workers must be >= 1, got {num_workers}")
        self._size = int(num_workers)       # worker ids are range(_size)
        #: Live workers ``P``: what every "all workers have ..." rule counts.
        self.num_workers = self._size
        self._dropped: Set[int] = set()
        self._abort_reason: Optional[BaseException] = None
        self._conditions: List[threading.Condition] = []

    def _new_condition(self) -> threading.Condition:
        """A wait point whose waiters :meth:`abort` wakes."""
        condition = threading.Condition()
        self._conditions.append(condition)
        return condition

    def _notify_all(self) -> None:
        for condition in self._conditions:
            with condition:
                condition.notify_all()

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self._size:
            raise self.error(
                f"worker_id {worker_id} out of range [0, {self._size})")

    # -- the protocol (caller holds the wait point's lock) ---------------------------
    def _admit(self, worker_id: int, what: str, *args: Any) -> None:
        """Gate a post: raises before the caller has mutated anything."""
        if self._abort_reason is not None:
            raise self._aborted(what, args)
        if worker_id in self._dropped:
            raise WorkerFailure(
                f"dropped worker {worker_id}: "
                + what.format(*args, verb="refused"),
                worker_id=worker_id, cascade=True)

    def _wait(self, condition: threading.Condition, ready: Callable[[], Any],
              timeout: Optional[float], what: str, *args: Any) -> Any:
        """Block until ``ready()`` is truthy and return that value.

        Raises:
            SyncTimeout: ``timeout`` seconds passed (``None`` waits forever).
            WorkerFailure: aborted with one before ``ready()`` held; the
                copy is ``cascade=True`` and names the original worker.
            error: aborted with any other reason before ``ready()`` held.
        """
        value = ready()
        if value:
            return value
        condition.wait_for(
            lambda: ready() or self._abort_reason is not None, timeout)
        value = ready()
        if value:
            return value
        if self._abort_reason is not None:
            raise self._aborted(what, args)
        raise SyncTimeout(what.format(*args, verb="timed out"))

    def _aborted(self, what: str, args: Sequence[Any]) -> BaseException:
        reason = self._abort_reason
        message = f"{what.format(*args, verb='aborted')}: {reason}"
        if isinstance(reason, WorkerFailure):
            return WorkerFailure(message, worker_id=reason.worker_id,
                                 iteration=reason.iteration, cascade=True)
        return self.error(message)

    # -- fault-tolerance hooks ------------------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """Wake every blocked waiter with a failure (dead-peer fan-out)."""
        self._abort_reason = exc
        self._notify_all()

    def clear_abort(self) -> None:
        """Re-arm the primitive after recovery handled the abort."""
        self._abort_reason = None

    def remove_worker(self, worker_id: int) -> None:
        """Drop a dead worker: every completion rule now counts ``P - 1``.

        Owners override this to also discard the ghost's in-flight
        contribution and complete whatever the survivors had already
        filled, so nobody waits for the ghost.
        """
        if self._drop(worker_id):
            self._notify_all()

    def _drop(self, worker_id: int) -> bool:
        """Membership half of :meth:`remove_worker`; False if already gone."""
        self._check_worker(worker_id)
        if worker_id in self._dropped:
            return False
        if self.num_workers <= 1:
            raise self.error("cannot drop the last remaining worker")
        self._dropped.add(worker_id)
        self.num_workers -= 1
        return True

    def _readmit(self) -> None:
        """Restart recovery: full membership again, abort cleared."""
        self._dropped.clear()
        self.num_workers = self._size
        self._abort_reason = None


#: ``plan(contributions) -> (result, blocks)``, see :meth:`KeyedBoard._share`.
Plan = Callable[[Dict[int, Any]], Tuple[Any, Sequence[Callable[[], None]]]]


class _Build:
    """One key's shared result and the blocks that fill it."""

    def __init__(self, result: Any, blocks: Sequence[Callable[[], None]]):
        self.result = result
        self.blocks = list(blocks)
        #: Block indices nobody has claimed yet; a failed block comes back.
        self.unclaimed = list(range(len(self.blocks)))
        self.unfinished = len(self.blocks)


class KeyedBoard(Rendezvous):
    """``key -> one contribution per worker``, complete at ``P``.

    The bookkeeping the SFB bulletin board, the ring all-reduce and the
    parameter averager share: a key's entry fills with one contribution per
    worker id, waiters block until all ``P`` live workers have posted,
    :meth:`_share` builds one result per key together and hands it to every
    reader, and the entry is dropped once all ``P`` have read it (a long BSP
    run would otherwise grow without bound).  ``_post`` / ``_await`` /
    ``_release`` run under ``_condition``, which the owner holds.
    """

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self._condition = self._new_condition()
        self._board: Dict[Hashable, Dict[int, Any]] = {}
        self._builds: Dict[Hashable, _Build] = {}
        #: Workers that have read each completed key.
        self._collected: Dict[Hashable, Set[int]] = {}

    def _post(self, key: Hashable, worker_id: int, value: Any,
              what: str, *args: Any) -> None:
        """Record one worker's contribution to ``key``."""
        self._check_worker(worker_id)
        self._admit(worker_id, what, *args)
        entry = self._board.setdefault(key, {})
        if worker_id in entry:
            raise self.error(
                f"worker {worker_id} contributed twice: "
                + what.format(*args, verb="refused"))
        entry[worker_id] = value
        if len(entry) >= self.num_workers:
            self._condition.notify_all()

    def _await(self, key: Hashable, timeout: Optional[float],
               what: str, *args: Any) -> Dict[int, Any]:
        """Block until ``key`` is complete; returns its contributions."""
        def complete() -> Optional[Dict[int, Any]]:
            entry = self._board.get(key, ())
            return entry if len(entry) >= self.num_workers else None

        try:
            return self._wait(self._condition, complete, timeout, what, *args)
        except SyncTimeout as exc:
            raise SyncTimeout(
                f"{exc} with {len(self._board.get(key, ()))}/"
                f"{self.num_workers} contributions") from None

    def _release(self, key: Hashable, worker_id: int) -> None:
        """Count ``worker_id`` as a reader; the last one drops the entry."""
        seen = self._collected.setdefault(key, set())
        seen.add(worker_id)
        if len(seen) >= self.num_workers:
            del self._board[key]
            del self._collected[key]
            self._builds.pop(key, None)

    def _exchange(self, key: Hashable, worker_id: int, value: Any, plan: Plan,
                  timeout: Optional[float], what: str, *args: Any) -> Any:
        """:meth:`_post` ``value``, then :meth:`_share` the key's result."""
        with self._condition:
            self._post(key, worker_id, value, what, *args)
        return self._share(key, worker_id, plan, timeout, what, *args)

    def _share(self, key: Hashable, worker_id: int, plan: Plan,
               timeout: Optional[float], what: str, *args: Any) -> Any:
        """Block for all ``P``, build the key's one result together, return it.

        The first collector through lays the build out under the lock:
        ``plan(contributions)`` returns ``(result, blocks)`` -- the object
        every collector is handed and callables that each fill a disjoint
        part of it (``plan`` must not depend on who calls it, and nothing
        may write the contributions).  Every collector then claims blocks
        one at a time and runs them outside the lock, so whoever is waiting
        shares the work; all return once the last block is written, and the
        result is read-only to them.  A block that raises goes back for a
        peer to retry.
        """
        index: Optional[int] = None
        while True:
            with self._condition:
                if index is None:
                    entry = self._await(key, timeout, what, *args)
                    build = (self._builds.get(key)
                             or self._builds.setdefault(key, _Build(*plan(entry))))
                else:
                    build.unfinished -= 1
                    if not build.unfinished:
                        self._condition.notify_all()
                self._wait(self._condition,
                           lambda: bool(build.unclaimed) or not build.unfinished,
                           timeout, what, *args)
                if not build.unclaimed:
                    self._release(key, worker_id)
                    return build.result
                index = build.unclaimed.pop()
            try:
                build.blocks[index]()
            except BaseException:
                with self._condition:
                    build.unclaimed.append(index)
                    self._condition.notify_all()
                raise

    # -- fault tolerance ----------------------------------------------------------------
    def checkpoint(self, include_optimizer: bool = False) -> dict:
        """A board carries no state across BSP iterations; nothing to save."""
        return {}

    def restore(self, snapshot: dict) -> None:
        """Clear all in-flight board state (restart recovery)."""
        with self._condition:
            self._board.clear()
            self._builds.clear()
            self._collected.clear()
            self._readmit()
            self._condition.notify_all()

    def remove_worker(self, worker_id: int) -> None:
        """Drop a dead worker: pending keys complete at ``P - 1``.

        The ghost's contribution to a key whose build has not been laid
        out yet is discarded, so the survivors' result is their own mean;
        a build already in flight keeps its ``P`` contributions.
        """
        with self._condition:
            if self._drop(worker_id):
                for key, entry in self._board.items():
                    if key not in self._builds:
                        entry.pop(worker_id, None)
                self._condition.notify_all()


class BSPController(Rendezvous):
    """Per-worker sync-completion vector plus a cross-worker barrier."""

    error = TrainingError

    def __init__(self, num_workers: int, syncer_names: Sequence[str]):
        super().__init__(num_workers)
        if not syncer_names:
            raise TrainingError("BSPController needs at least one syncer name")
        self.syncer_names: List[str] = list(syncer_names)
        self._vectors: List[Dict[str, bool]] = [
            {name: False for name in self.syncer_names} for _ in range(self._size)
        ]
        self._locks = [threading.Lock() for _ in range(self._size)]
        self._events = [threading.Event() for _ in range(self._size)]
        # Generation barrier state; the party count is ``num_workers``.
        self._barrier_cond = self._new_condition()
        self._arrived = 0
        self._generation = 0
        #: Callback the last arriver runs inside the barrier (all other
        #: workers parked): the trainer's checkpoint hook.  Exceptions
        #: propagate to the last arriver only.
        self.on_release: Optional[Callable[[], None]] = None
        self.iterations_completed = 0

    # -- per-worker sync vector -----------------------------------------------------
    def reset_worker(self, worker_id: int) -> None:
        """Zero the worker's completion vector at the start of an iteration."""
        with self._locks[worker_id]:
            for name in self.syncer_names:
                self._vectors[worker_id][name] = False
            self._events[worker_id].clear()

    def mark_done(self, worker_id: int, syncer_name: str) -> None:
        """Record that one syncer finished its job for this iteration.

        Raises:
            TrainingError: if the syncer name is unknown.
        """
        if syncer_name not in self._vectors[worker_id]:
            raise TrainingError(f"unknown syncer {syncer_name!r}")
        with self._locks[worker_id]:
            self._vectors[worker_id][syncer_name] = True
            if all(self._vectors[worker_id].values()):
                self._events[worker_id].set()

    def pending(self, worker_id: int) -> List[str]:
        """Names of syncers that have not completed yet for this worker."""
        with self._locks[worker_id]:
            return [name for name, done in self._vectors[worker_id].items() if not done]

    def wait_worker(self, worker_id: int, timeout: Optional[float] = 60.0) -> None:
        """Block until every syncer of this worker finished the iteration.

        Raises:
            SyncTimeout: on timeout, listing the stuck syncers.
        """
        if not self._events[worker_id].wait(timeout=timeout):
            raise SyncTimeout(
                f"worker {worker_id} timed out waiting for syncers: "
                f"{self.pending(worker_id)}"
            )

    # -- global barrier -------------------------------------------------------------
    def barrier(self, worker_id: int, timeout: Optional[float] = 60.0) -> None:
        """Cross-worker iteration barrier (the bulk-synchronous step boundary).

        The last arriver runs :attr:`on_release` (if set) while all other
        parties are still blocked, then releases the generation.  Raises
        :class:`SyncTimeout` on timeout and :class:`WorkerFailure` if the
        barrier was aborted or this worker was removed.
        """
        with self._barrier_cond:
            self._admit(worker_id, "BSP barrier {verb} at worker {}", worker_id)
            self._arrived += 1
            generation = self._generation
            if self._arrived >= self.num_workers:
                self._release_locked()
                return
            try:
                self._wait(
                    self._barrier_cond, lambda: self._generation != generation,
                    timeout, "BSP barrier {verb} at worker {} ({}/{} arrived)",
                    worker_id, self._arrived, self.num_workers)
            except SyncTimeout:
                self._arrived = max(0, self._arrived - 1)
                raise

    def _release_locked(self) -> None:
        """Release the current generation (caller holds the barrier lock)."""
        callback = self.on_release
        error: Optional[BaseException] = None
        if callback is not None:
            try:
                callback()
            except BaseException as exc:  # surfaced at the last arriver
                error = exc
        self.iterations_completed += 1
        self._generation += 1
        self._arrived = 0
        self._barrier_cond.notify_all()
        if error is not None:
            raise error

    # -- fault-tolerance hooks ------------------------------------------------------
    def remove_worker(self, worker_id: int) -> None:
        """Drop a dead worker from the barrier (drop-dead-worker mode).

        Shrinks the party count; if the survivors have already all
        arrived, the generation is released immediately so nobody waits
        for the ghost.
        """
        with self._barrier_cond:
            if self._drop(worker_id) and self._arrived >= self.num_workers:
                self._release_locked()

    def reset(self) -> None:
        """Restore full membership and a clean generation (restart mode)."""
        with self._barrier_cond:
            self._readmit()
            self._arrived = 0
            self._generation += 1
            self._barrier_cond.notify_all()
        for worker_id in range(self._size):
            self.reset_worker(worker_id)
