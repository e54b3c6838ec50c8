"""Discrete-event references the tests compare the engine's fast paths against.

:class:`AllOf` (a general conjunction) is the reference for
:class:`~repro.sim.core.CountdownEvent`, and :class:`Resource` (a FIFO
server with request / grant / release events) for
:class:`~repro.sim.resources.TailChannel`'s busy-until clock.
:func:`run_process` runs a root process to completion and :func:`occupy`
holds a channel for a duration.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Iterable, List, Optional

from repro.exceptions import SimulationError
from repro.sim import Environment, Event, TailChannel


class AllOf(Event):
    """Fires when every one of the given events has fired successfully."""

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._pending = 0
        self._events = list(events)
        for event in self._events:
            if event.processed:
                if event.ok is False:
                    # An already-failed member fails the conjunction outright
                    # (its value is an exception, not a result).
                    self.fail(event.value)
                    return
                continue
            self._pending += 1
            event.add_waiter(self._on_event)
        if self._pending == 0 and not self.triggered:
            self.succeed([e.value for e in self._events])

    def _on_event(self, ok: Optional[bool], value: Any) -> None:
        if self.triggered:
            return
        if ok is False:
            self.fail(value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


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


def run_process(env: Environment, generator: Generator) -> Any:
    """Run a root process to completion and return (or raise) its result."""
    process = env.process(generator)
    env.run()
    if not process.triggered:
        raise SimulationError(
            "root process did not finish before the simulation ended"
        )
    if process.ok is False:
        raise process.value
    return process.value


def occupy(channel: TailChannel, duration: float) -> Generator:
    """Process helper: hold the channel for ``duration`` seconds (FIFO)."""
    if not duration >= 0:
        raise SimulationError(f"negative hold duration: {duration}")
    if channel.resolved:
        finish = channel.book(duration)
        yield channel.env.timeout_at(finish)
    else:
        mine = yield from channel.request()
        finish = channel.env._now + duration
        channel.release(mine, finish)
        # The scheduled release entry doubles as this holder's wake-up.
        yield mine
