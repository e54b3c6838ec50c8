"""A small event-scheduling discrete-event simulation (DES) engine.

This is the substrate the cluster/network simulator is built on.  A
simulation task is a slotted *record* that is the waiter of the event it
waits on and walks its state when called (the cluster simulator's compute
classes, unit syncs and flows).  Only the features the cluster model needs
are implemented:

* :class:`Environment` -- the event loop and simulated clock.
* :class:`Event`, :class:`Timeout` -- the events records wait on.
* :class:`CountdownEvent` -- a counter-based barrier: the O(1)-per-arrival
  join of homogeneous fan-ins.
* :class:`TailChannel` -- a capacity-1 FIFO link on a busy-until clock
  (NIC directions); uncontended holds are pure arithmetic.

The general-purpose conjunction and FIFO server that
:class:`CountdownEvent` and :class:`TailChannel` are property-tested
against, and the generator driver the tests write their scenarios in,
live with the tests (``tests/sim_reference.py``).
"""

from repro.sim.core import (
    CountdownEvent,
    Environment,
    Event,
    Timeout,
)
from repro.sim.resources import TailChannel

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "CountdownEvent",
    "TailChannel",
]
