"""Core of the discrete-event engine: environment, events and barriers.

A simulation task is a *record*: a slotted object that is itself the
waiter of the event it waits on -- called as ``record(ok, value)`` -- and
walks its own state until it must wait again (the DES's compute classes,
unit syncs, shard sides and flows).  Records carry no generator frame and
take no queue entry to resume.

The engine is the substrate of every figure sweep, so the event loop is
written allocation-consciously:

* all event classes carry ``__slots__`` (no per-instance ``__dict__``);
* waiters are invoked as ``waiter(ok, value)``; the first waiter lives in
  a dedicated ``_waiter`` slot, so the common one-waiter event never
  allocates a callback list, and a record registers *itself* as the
  waiter so no bound method is materialised per wait;
* bookkeeping (a record's bootstrap, resuming after an already-processed
  event) schedules thunks directly on the heap instead of allocating
  throwaway :class:`Event` objects (and detached ones, one per batch);
* the earliest pending queue entry is held in a front register, so the
  dominant schedule-next/pop-next cycle of chained timeouts never touches
  the heap.

Every time guard reads ``not time >= now`` (``not delay >= 0``), so a NaN
fails it: a NaN entry would pop first, set the clock to NaN and let every
later event run at its bare delay.

Determinism is unchanged relative to the historical event-based
implementation: every queue entry -- event or thunk -- consumes one tick of
the same monotonically increasing sequence counter, so the relative order
of same-time occurrences is identical (a batch entry stands for entries
pushed back to back at one instant, between which nothing could pop).
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.exceptions import SimulationError

#: Signature of an event waiter: called with ``(ok, value)`` when the event
#: is processed.
Waiter = Callable[[Optional[bool], Any], None]


class Event:
    """A one-shot occurrence that records can wait on.

    An event is *triggered* when :meth:`succeed` (or :meth:`fail`) is called;
    its waiters run when the environment pops it from the queue, at which
    point it is *processed*.
    """

    __slots__ = ("env", "_waiter", "_waiters", "value", "ok",
                 "triggered", "processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self._waiter: Any = None
        self._waiters: Optional[List[Any]] = None
        self.value: Any = None
        self.ok: Optional[bool] = None
        self.triggered = False
        self.processed = False

    def add_waiter(self, waiter: Any) -> None:
        """Register a waiter to run when this event is processed.

        A waiter is a ``waiter(ok, value)`` callable.  Waiters run in
        registration order.  Registering on an already *processed* event
        is a no-op (the waiter would never fire); callers that may race with
        processing should check :attr:`processed` first and handle the fired
        case themselves.
        """
        if self._waiter is None and self._waiters is None:
            self._waiter = waiter
        elif self._waiters is None:
            self._waiters = [waiter]
        else:
            self._waiters.append(waiter)

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        self.env.schedule(self)
        return self

    def succeed_at(self, time: float, value: Any = None) -> "Event":
        """Mark the event successful now, but process its waiters at ``time``.

        A deferred trigger: the event is committed (``triggered`` flips
        immediately, so double-triggering still raises) but its waiters run
        when the simulated clock reaches ``time``.  This is what lets a
        tail-clock channel publish "I free up at ``time``" as a single
        queue entry instead of holding a record open until then.

        Raises:
            SimulationError: if ``time`` lies in the past.
        """
        env = self.env
        if not time >= env._now:
            raise SimulationError(
                f"cannot succeed_at into the past: {time} < {env._now}")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        # Push the absolute time, not now + delta: the caller's ``time`` is
        # typically an analytically derived finish instant that must land on
        # the queue bit-exactly (now + (time - now) can be off by one ulp).
        env._push((time, env._sequence, self))
        env._sequence += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; its waiters will see the exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() expects an exception, got {exception!r}")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.env.schedule(self)
        return self

    def _settle(self) -> None:
        """Succeed and process at once: the waiters run now, inside the
        current dispatch, and no queue entry is taken.

        A flow record (:mod:`repro.cluster.machine`) completes this way in
        the dispatch of its last channel event, where the record that
        booked it continues.
        """
        self.triggered = self.processed = True
        self.ok = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter(True, None)
        waiters = self._waiters
        if waiters:
            self._waiters = None
            for waiter in waiters:
                waiter(True, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay: built only by
    :meth:`Environment.timeout` and :meth:`Environment.timeout_at`."""

    __slots__ = ()

    # A timeout is born triggered and successful, and neither flag ever
    # changes afterwards: shadow the parent slots with class constants so
    # construction skips two attribute stores.  (succeed()/fail() still
    # raise "already triggered" -- they read the flag before writing it.)
    triggered = True
    ok = True


#: Cached allocator: skips the per-call ``LOAD_ATTR __new__`` in the hot
#: :meth:`Environment.timeout` constructor.
_TIMEOUT_NEW = Timeout.__new__


class CountdownEvent(Event):
    """A counter-based barrier: fires once :meth:`arrive` was called ``count`` times.

    The O(1)-per-arrival replacement for joining *homogeneous* fan-ins with
    a general conjunction (``AllOf``, the reference the tests hold it to in
    ``tests/sim_reference.py``): where a conjunction materialises an
    N-element event list
    (and every waiter builds its own), a countdown barrier is one shared
    event plus an integer.  Completion time is identical to an ``AllOf``
    over the corresponding per-member events -- the barrier succeeds during
    the same dispatch in which the last member would have fired.

    Detached records (:meth:`Environment.spawn`) arrive with their
    outcome through :meth:`arrive_with`, which also propagates the first
    member failure to the barrier, matching ``AllOf``'s failure semantics.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", count: int):
        if count < 0:
            raise SimulationError(f"countdown count must be >= 0, got {count}")
        # Inlined Event.__init__: one of these per barrier and sync round.
        self.env = env
        self._waiter = self._waiters = self.value = self.ok = None
        self.triggered = self.processed = False
        self._remaining = count
        if count == 0:
            self.succeed()

    def arrive(self) -> None:
        """Record one arrival; the barrier succeeds on the ``count``-th.

        Raises:
            SimulationError: on arrivals beyond ``count`` (the barrier has
                already been triggered).
        """
        if self.triggered:
            raise SimulationError(f"{self!r}: arrival after the barrier fired")
        self._remaining -= 1
        if self._remaining == 0:
            # Event.succeed, inline: one of these per barrier.
            self.triggered = self.ok = True
            env = self.env
            env._push((env._now, env._sequence, self))
            env._sequence += 1

    def arrive_with(self, ok: Optional[bool], value: Any) -> None:
        """A detached member's ``on_exit``: an arrival, or on failure the barrier's."""
        if self.triggered:
            return
        if ok is False:
            self.fail(value)
        else:
            self.arrive()


class Environment:
    """The simulated clock and event queue.

    Queue entries are ``(time, sequence, item)`` where ``item`` is either a
    triggered :class:`Event` (its waiters run when popped) or a zero-arg
    thunk (called when popped).  Both share the sequence counter, so FIFO
    order among same-time occurrences is exact and deterministic.

    The earliest pending entry is cached in the ``_front`` register rather
    than the heap (invariant: ``_front`` compares <= every heap entry), so
    the dominant schedule-next/pop-next cycle of chained timeouts never
    touches the heap at all.
    """

    __slots__ = ("_now", "_queue", "_front", "_sequence", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Any]] = []
        self._front: Optional[Tuple[float, int, Any]] = None
        self._sequence = 0
        self.events_processed = 0

    def _push(self, entry: Tuple[float, int, Any]) -> None:
        """Insert a queue entry, maintaining the ``_front`` minimum register."""
        front = self._front
        if front is None:
            queue = self._queue
            if queue and queue[0] < entry:
                heapq.heappush(queue, entry)
            else:
                self._front = entry
        elif entry < front:
            heapq.heappush(self._queue, front)
            self._front = entry
        else:
            heapq.heappush(self._queue, entry)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction -----------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        # Hand-inlined Timeout construction (this is the hottest allocation
        # in every simulation sweep): skip the __init__ dispatch and push
        # straight into the front register / heap.
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        t = _TIMEOUT_NEW(Timeout)
        t.env = self
        t._waiter = None
        t._waiters = None
        t.value = value
        t.processed = False
        entry = (self._now + delay, self._sequence, t)
        self._sequence += 1
        front = self._front
        if front is None:
            queue = self._queue
            if queue and queue[0] < entry:
                heapq.heappush(queue, entry)
            else:
                self._front = entry
        elif entry < front:
            heapq.heappush(self._queue, front)
            self._front = entry
        else:
            heapq.heappush(self._queue, entry)
        return t

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """Create an event that fires at the absolute simulated ``time``.

        Equivalent to ``timeout(time - now)`` except that the queue entry
        carries ``time`` bit-exactly -- the round trip through a delta can
        perturb the instant by one ulp, which matters when ``time`` was
        derived analytically (e.g. a tail-clock finish) and must coincide
        with other occurrences at the same instant.
        """
        now = self._now
        if not time >= now:
            raise SimulationError(
                f"cannot time out in the past: {time} < {now}")
        # Every analytic booking wakes through here: the same inlined
        # construction and front-register push as timeout().
        t = _TIMEOUT_NEW(Timeout)
        t.env = self
        t._waiter = None
        t._waiters = None
        t.value = value
        t.processed = False
        entry = (time, self._sequence, t)
        self._sequence += 1
        front = self._front
        if front is None:
            queue = self._queue
            if queue and queue[0] < entry:
                heapq.heappush(queue, entry)
            else:
                self._front = entry
        elif entry < front:
            heapq.heappush(self._queue, front)
            self._front = entry
        else:
            heapq.heappush(self._queue, entry)
        return t

    def spawn(self, tasks: Iterable[Any], on_exit: Waiter) -> None:
        """Start detached records, all from one queue entry.

        A record has an ``on_exit`` attribute and a ``_start()`` that runs
        it to its first wait.  Each runs to its first wait in the order
        given; none takes a completion entry (nothing may wait on it), each
        hands its outcome to ``on_exit(ok, value)``.
        """
        started = list(tasks)
        for task in started:
            task.on_exit = on_exit

        def start() -> None:
            for task in started:
                task._start()

        if started:
            self.schedule_thunk(start)

    def countdown(self, count: int) -> CountdownEvent:
        """Barrier event that fires after ``count`` arrivals."""
        return CountdownEvent(self, count)

    # -- scheduling ----------------------------------------------------------------
    def schedule(self, event: Event) -> None:
        """Insert a triggered event into the queue at the current time."""
        self._push((self._now, self._sequence, event))
        self._sequence += 1

    def schedule_thunk(self, thunk: Callable[[], None]) -> None:
        """Insert a bare callable into the queue at the current time; called
        (once) when popped.

        Thunks are the allocation-free alternative to one-shot helper
        events: they take a queue slot (and a sequence tick) exactly like an
        event, but carry no state and run no waiter list.
        """
        self._push((self._now, self._sequence, thunk))
        self._sequence += 1

    def run(self) -> None:
        """Run until the queue drains.

        A failed event whose waiters ignore the failure fails silently.
        """
        # Hot loop.  Entries are pushed at >= self._now and consumed in
        # priority order, so the clock never runs backwards.
        #
        # Automatic (cyclic) garbage collection is paused for the duration:
        # the engine's per-event allocations (timeouts, heap tuples) are
        # acyclic and freed by reference counting, so generation-0 scans are
        # pure overhead (~25% of event throughput).  Cycles created by user
        # callbacks are collected as usual once run() returns.
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                entry = self._front
                if entry is not None:
                    self._front = None
                elif queue:
                    entry = pop(queue)
                else:
                    return
                time, _, item = entry
                self._now = time
                processed += 1
                if isinstance(item, Event):
                    item.processed = True
                    waiter = item._waiter
                    if waiter is not None:
                        item._waiter = None
                        waiter(item.ok, item.value)
                    waiters = item._waiters
                    if waiters:
                        item._waiters = None
                        ok, value = item.ok, item.value
                        for waiter in waiters:
                            waiter(ok, value)
                else:
                    item()
        finally:
            self.events_processed += processed
            if gc_was_enabled:
                gc.enable()
