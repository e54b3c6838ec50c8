"""A small process-based discrete-event simulation (DES) engine.

This is the substrate the cluster/network simulator is built on.  It
serves two world views: the process-interaction style (as popularised by
SimPy), where simulation *processes* are Python generators that ``yield``
events -- timeouts, other processes, barriers -- and are resumed when those
events fire; and event scheduling, where a slotted *record* is the waiter
of the event it waits on and walks its state when called (the cluster
simulator's unit syncs and flows).  Only the features the cluster model
needs are implemented:

* :class:`Environment` -- the event loop and simulated clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` -- the events
  processes wait on.
* :class:`CountdownEvent` -- a counter-based barrier: the O(1)-per-arrival
  join of homogeneous fan-ins.
* :class:`TailChannel` -- a capacity-1 FIFO link on a busy-until clock
  (NIC directions); uncontended holds are pure arithmetic.

The general-purpose conjunction and FIFO server that
:class:`CountdownEvent` and :class:`TailChannel` are property-tested
against live with the tests (``tests/sim_reference.py``).
"""

from repro.sim.core import (
    CountdownEvent,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import TailChannel

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "CountdownEvent",
    "TailChannel",
]
