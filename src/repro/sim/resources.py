"""The discrete-event engine's FIFO link: a channel on a busy-until clock."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.exceptions import SimulationError
from repro.sim.core import Environment, Event


class TailChannel:
    """A capacity-1 FIFO link modelled by a busy-until ("tail") clock.

    Time-equivalent to a capacity-1 FIFO server (the ``Resource`` reference
    in ``tests/sim_reference.py``) that every holder occupies for its
    transfer duration, but without the per-hold
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
    by acquisition call, which is exactly the order a FIFO server grants
    queued requests.
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

    def request(self) -> Tuple[Event, Optional[Event]]:
        """Claim the channel, FIFO: ``(release, grant)``.

        The caller owns the channel once ``grant`` has fired -- at once
        when it is ``None`` -- and must eventually call :meth:`release`
        with ``release`` and the hold's finish time.  ``grant`` is the
        previous holder's open release, the pending entry dispatching at
        ``tail`` or a fresh wake at ``tail``.
        """
        env = self.env
        mine = Event(env)
        previous = self._release
        self._release = mine
        if previous is not None and not previous.triggered:
            return mine, previous
        if self.tail > env._now:
            anchor = self.grant_anchor()
            return mine, (anchor if anchor is not None
                          else env.timeout_at(self.tail))
        return mine, None

    def release(self, release_event: Event, finish: Optional[float] = None) -> None:
        """Resolve a hold acquired via :meth:`request` (finish defaults to now)."""
        if finish is None:
            finish = self.env._now
        self.tail = finish
        release_event.succeed_at(finish)
        self.note_entry(release_event, finish)

