"""Shared resources for the discrete-event engine: FIFO servers and links."""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional

from repro.exceptions import SimulationError
from repro.sim.core import Environment, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    The request event fires when the resource grants the slot.  The holder
    must eventually call :meth:`Resource.release` with this request.
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A FIFO resource with fixed integer capacity.

    Used to model exclusive devices: a GPU executes one kernel sequence at a
    time, a NIC direction carries one transfer at a time (FIFO serialisation
    of a link is equivalent, in total completion time, to fair sharing when
    the link is the bottleneck, and keeps the simulation deterministic).
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()
        # Utilisation accounting.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    # -- bookkeeping -----------------------------------------------------------
    def _update_busy(self) -> None:
        if self.users and self._busy_since is None:
            self._busy_since = self.env.now
        elif not self.users and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the resource was busy up to ``horizon`` (or now)."""
        horizon = self.env.now if horizon is None else horizon
        busy = self.busy_time
        if self._busy_since is not None:
            busy += max(0.0, min(self.env.now, horizon) - self._busy_since)
        return busy / horizon if horizon > 0 else 0.0

    # -- protocol ----------------------------------------------------------------
    def request(self) -> Request:
        """Ask for a slot; the returned event fires once the slot is granted."""
        request = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(request)
            self._update_busy()
            request.succeed()
        else:
            self.queue.append(request)
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Raises:
            SimulationError: if the request does not hold a slot.
        """
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        else:
            raise SimulationError("release() of a request that holds no slot")
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
        self._update_busy()

    def occupy(self, duration: float):
        """Process helper: request, hold for ``duration`` seconds, release."""
        request = self.request()
        yield request
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(request)


class TailChannel:
    """A capacity-1 FIFO link modelled by a busy-until ("tail") clock.

    Time-equivalent to a capacity-1 :class:`Resource` that every holder
    occupies for its transfer duration, but without the per-hold
    request/grant/release event round-trip:

    * the channel's schedule is summarised by ``tail`` -- the simulated
      time its last booked hold frees it -- so an uncontended hold is pure
      arithmetic (``start = max(now, tail)``), no event at all;
    * a holder whose finish time is not yet known (e.g. a transfer granted
      the sender's uplink while still queued at the receiver's downlink)
      keeps the channel *open* by publishing an untriggered release event;
      later acquirers chain on it FIFO, and the holder resolves it with
      :meth:`~repro.sim.core.Event.succeed_at` once the finish is known, so
      every waiter wakes exactly when the channel frees up.

    The channel is *resolved* when no hold is open (``_release`` is absent
    or already triggered); only then is ``tail`` meaningful.  FIFO order is
    by acquisition call, which is exactly the order :class:`Resource`
    grants queued requests.
    """

    __slots__ = ("env", "name", "tail", "_release", "_entry", "_entry_tail")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.tail = 0.0
        self._release: Optional[Event] = None
        # The queue entry (timeout or release event) known to dispatch
        # exactly at ``tail``, if any: a waiter that must act at the grant
        # anchors its wake on it, so same-instant grants on different
        # channels keep the holders' dispatch order (the order the
        # resource-based model granted them in).
        self._entry: Optional[Event] = None
        self._entry_tail = -1.0

    def note_entry(self, entry: Event, time: float) -> None:
        """Record the queue entry that dispatches at ``time`` (== new tail)."""
        self._entry = entry
        self._entry_tail = time

    def grant_anchor(self) -> Optional[Event]:
        """The pending entry dispatching exactly at ``tail``, if known."""
        entry = self._entry
        if entry is not None and not entry.processed and self._entry_tail == self.tail:
            return entry
        return None

    @property
    def resolved(self) -> bool:
        """Whether the channel's schedule is fully described by ``tail``."""
        release = self._release
        return release is None or release.triggered

    def book(self, duration: float) -> float:
        """Book an uncontended hold analytically; returns its finish time.

        Only legal while the channel is :attr:`resolved`; the hold starts
        at ``max(now, tail)`` -- the same grant a FIFO resource would give
        -- and the channel's tail advances to the returned finish time.
        """
        if not duration >= 0:
            raise SimulationError(f"negative hold duration: {duration}")
        if not self.resolved:
            raise SimulationError(
                f"channel {self.name!r} has an open hold; book() needs a "
                f"resolved tail")
        start = self.tail
        now = self.env._now
        if start < now:
            start = now
        finish = start + duration
        self.tail = finish
        return finish

    def request(self) -> Generator:
        """Process helper: wait for the channel, FIFO; returns the release event.

        The caller owns the channel from the moment this generator returns
        and must eventually call :meth:`release` with the returned event
        and the hold's finish time.
        """
        mine = Event(self.env)
        previous = self._release
        self._release = mine
        if previous is not None and not previous.triggered:
            yield previous
        else:
            if self.tail > self.env._now:
                anchor = self.grant_anchor()
                if anchor is not None:
                    yield anchor
                else:
                    yield self.env.timeout_at(self.tail)
        return mine

    def release(self, release_event: Event, finish: Optional[float] = None) -> None:
        """Resolve a hold acquired via :meth:`request` (finish defaults to now)."""
        if finish is None:
            finish = self.env._now
        self.tail = finish
        release_event.succeed_at(finish)
        self.note_entry(release_event, finish)

    def occupy(self, duration: float) -> Generator:
        """Process helper: hold the channel for ``duration`` seconds (FIFO)."""
        if not duration >= 0:
            raise SimulationError(f"negative hold duration: {duration}")
        if self.resolved:
            finish = self.book(duration)
            yield self.env.timeout_at(finish)
        else:
            mine = yield from self.request()
            finish = self.env._now + duration
            self.release(mine, finish)
            # The scheduled release entry doubles as this holder's wake-up.
            yield mine

