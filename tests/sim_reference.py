"""Discrete-event references the tests compare the engine's fast paths against.

The engine runs only step records.  The tests write their scenarios as
generators instead, driven by :class:`Process`: a generator that yields
the events it waits on, resumed as each fires -- the plain resume path,
with no fast path of its own.  :func:`process` starts one from its own
queue entry, :func:`run_process` runs a root process to completion,
:func:`run_flow` runs a cluster flow as a process, :func:`acquire` waits
for a channel and :func:`occupy` holds one for a duration.

:class:`AllOf` (a general conjunction) is the reference for
:class:`~repro.sim.core.CountdownEvent`, and :class:`Resource` (a FIFO
server with request / grant / release events) for
:class:`~repro.sim.resources.TailChannel`'s busy-until clock.

Three references stand for the simulators' short paths:
:func:`every_node` makes both engines run every node on any plan,
:func:`worker_per_process` makes the DES run each worker as its own
compute class, and :func:`lower_unit_per_hub` is the DES lowering with
one receiver pass per broadcast hub, O(P^2) per all-to-all.

:func:`one_unit_plan` is one scheme's schedule for one unit as a plan, the
smallest input :func:`~repro.simulation.plan.node_traffic` folds.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from typing import (Any, Deque, Dict, Generator, Iterable, Iterator, List,
                    Optional)
from unittest import mock

from repro.comm.backend import PhaseKind, Scope
from repro.exceptions import SimulationError
from repro.sim import Environment, Event, TailChannel
from repro.simulation import fluid, plan as plan_module, throughput
from repro.simulation.plan import SyncPlan, UnitPlan, fan_groups
from repro.simulation.throughput import (
    _ARRIVE, _AWAIT, _BROADCAST, _FABRIC_KINDS, _GATE, _RING, _SELF, _SPAWN,
    _TRANSFER, _WAIT, _UnitSteps)
from repro.simulation.workload import IterationWorkload


class Process(Event):
    """A generator run as a task, and the event that completes it.

    The process is the waiter (``process(ok, value)``) of each event the
    generator yields, and resumes it with the outcome: a failure is thrown
    into it.  An event that has already fired resumes it from a thunk at
    the same instant.  It succeeds with the generator's return value, or
    fails with what it raised, unless :meth:`Environment.spawn` gave it an
    ``on_exit``: then the outcome goes there and takes no queue entry.
    Built bare, it runs once ``_start()`` is called (:func:`process`
    schedules that; ``spawn`` calls it).
    """

    __slots__ = ("_generator", "on_exit")

    def __init__(self, env: Environment, generator: Generator):
        super().__init__(env)
        self._generator = generator
        self.on_exit = None

    def _start(self) -> None:
        self(True, None)

    def __call__(self, ok: Optional[bool], value: Any) -> None:
        if self.triggered:
            return
        try:
            if ok is False:
                event = self._generator.throw(value)
            else:
                event = self._generator.send(value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            self._finish(False, exc)
            return
        if not isinstance(event, Event):
            self._generator.close()
            self._finish(False, SimulationError(
                f"process yielded a non-event: {event!r}"))
        elif event.processed:
            ok, value = event.ok, event.value
            self.env.schedule_thunk(lambda: self(ok, value))
        else:
            event.add_waiter(self)

    def _finish(self, ok: bool, value: Any) -> None:
        if self.on_exit is None:
            (self.succeed if ok else self.fail)(value)
        else:
            self.triggered, self.ok, self.value = True, ok, value
            self.on_exit(ok, value)


def process(env: Environment, generator: Generator) -> Process:
    """Start ``generator`` as a process, from a queue entry of its own."""
    task = Process(env, generator)
    env.schedule_thunk(task._start)
    return task


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
    root = process(env, generator)
    env.run()
    if not root.triggered:
        raise SimulationError(
            "root process did not finish before the simulation ended"
        )
    if root.ok is False:
        raise root.value
    return root.value


def run_flow(book, *args, **kwargs) -> Generator:
    """Process: the flow ``book(*args, **kwargs)`` (a booking of
    :class:`~repro.cluster.machine.ClusterModel`), booked when the process
    runs and waited for until it completes."""
    done = book(*args, **kwargs)
    if done is not None:
        yield done


def acquire(channel: TailChannel) -> Generator:
    """Process helper: wait for the channel, FIFO; returns the release event
    (:meth:`~repro.sim.resources.TailChannel.request`)."""
    release, grant = channel.request()
    if grant is not None:
        yield grant
    return release


def occupy(channel: TailChannel, duration: float) -> Generator:
    """Process helper: hold the channel for ``duration`` seconds (FIFO)."""
    if not duration >= 0:
        raise SimulationError(f"negative hold duration: {duration}")
    if channel.resolved:
        finish = channel.book(duration)
        yield channel.env.timeout_at(finish)
    else:
        mine = yield from acquire(channel)
        finish = channel.env._now + duration
        channel.release(mine, finish)
        # The scheduled release entry doubles as this holder's wake-up.
        yield mine


@contextmanager
def every_node() -> Iterator[None]:
    """Inside, both engines step (DES) or book (fluid detail tier) every node.

    The plan each engine resolves comes back with ``node_symmetric`` false;
    nothing else in it, the cluster or the run changes, so the one
    predicate the engines share is the only thing forced.
    """
    def resolve(*args):
        return replace(plan_module.resolve_plan(*args), node_symmetric=False)

    with mock.patch.object(throughput, "resolve_plan", resolve), \
            mock.patch.object(fluid, "resolve_plan", resolve):
        yield


@contextmanager
def worker_per_process() -> Iterator[None]:
    """Inside, the DES runs every stepped worker as its own compute class.

    ``IterationSimulator._lowered`` reports that the stepped workers are
    not one compute class; the lowering, the plan and the run are the
    ones it would use anyway, so the one predicate is the only thing forced.
    """
    lowered = throughput.IterationSimulator._lowered

    def one_per_worker(self, one_round: bool):
        return lowered(self, one_round)[0], False

    with mock.patch.object(throughput.IterationSimulator, "_lowered",
                           one_per_worker):
        yield


def lower_unit_per_hub(plan, shape, one_hold: bool) -> _UnitSteps:
    """``throughput._lower_unit`` as it walked a broadcast's receivers: once
    per hub, so an all-to-all costs P x (P - 1) gate / wait calls of which
    all but one per receiver are dropped as duplicates."""
    phases = plan.phases
    workers = range(shape.num_workers)
    steps: List[List[tuple]] = [[] for _ in workers]
    sizes: List[int] = []
    ids: Dict[tuple, int] = {}
    waited: List[Optional[tuple]] = [None] * len(workers)
    gate_from = next((index for index, phase in enumerate(phases)
                      if phase.gated), len(phases))
    gated = [False] * len(workers)
    shards: List[tuple] = []
    rounds = [1 if one_hold else phase.repeat for phase in phases]

    def barrier(index: int, node: int, step: int = 0) -> int:
        rack = (node // shape.rack_size
                if phases[index].scope is Scope.GROUP else None)
        if (index, rack, step) not in ids:
            ids[index, rack, step] = len(sizes)
            sizes.append(0)
        return ids[index, rack, step]

    def arrive(worker: int, barrier_id: int) -> None:
        sizes[barrier_id] += 1
        steps[worker].append((_ARRIVE, barrier_id))

    def wait(worker: int, step: tuple) -> None:
        if waited[worker] != step:
            waited[worker] = step
            steps[worker].append(step)

    def gate(worker: int, index: int) -> None:
        if index >= gate_from and not gated[worker]:
            gated[worker] = True
            steps[worker].append((_GATE,))

    def before_act(worker: int, index: int) -> None:
        before = phases[index - 1] if index else None
        if before is None or (before.kind is PhaseKind.FAN_OUT
                              and before.scope is Scope.GROUP):
            pass
        elif before.kind in _FABRIC_KINDS:
            wait(worker, (_AWAIT, index - 1))
        else:
            wait(worker, (_WAIT, barrier(index - 1, worker,
                                         rounds[index - 1] - 1)))
        gate(worker, index)

    for index, phase in enumerate(phases):
        kind = phase.kind
        tag = f"{kind.value}:{plan.unit.name}"
        if kind is PhaseKind.RING_STEP:
            first = barrier(index, 0)
            for step in range(rounds[index]):
                sizes[barrier(index, 0, step)] = len(workers)
            for worker in workers:
                before_act(worker, index)
                steps[worker].append((_RING, phase.nbytes, tag, first,
                                      rounds[index],
                                      phase.repeat // rounds[index]))
                waited[worker] = (_WAIT, first + rounds[index] - 1)
            continue
        groups = fan_groups(phase, shape, plan.owner)
        if kind is PhaseKind.BROADCAST:
            for _rack, hub, members in groups:
                before_act(hub, index)
                steps[hub].append(
                    (_BROADCAST, _SELF, members, phase.nbytes, tag))
                arrive(hub, barrier(index, hub))
            for _rack, hub, members in groups:
                for member in members:
                    if member != hub:
                        gate(member, index)
                        wait(member, (_WAIT, barrier(index, hub)))
            continue
        inbound = kind in (PhaseKind.FAN_IN, PhaseKind.FABRIC_OUT)
        counted = kind is not PhaseKind.FAN_OUT or (
            phase.scope is Scope.ALL and index + 1 < len(phases))
        op = _SPAWN if phase.detached else _TRANSFER
        for _rack, hub, members in groups:
            for member in members:
                before_act(member, index)
                src, dst = (_SELF, hub) if inbound else (hub, _SELF)
                steps[member].append((op, src, dst, phase.nbytes, tag))
                if kind is PhaseKind.FABRIC_IN:
                    wait(member, (_AWAIT, index))
                elif counted:
                    arrive(member, barrier(index, member))
        if kind in _FABRIC_KINDS:
            shards.append((barrier(index, 0) if inbound else None,
                           phase.hub_bytes, f"shards/{tag}", index))
    shared: Dict[tuple, tuple] = {}
    return _UnitSteps(
        tuple(shared.setdefault(role, role) for role in map(tuple, steps)),
        tuple(sizes), tuple(shards))


def one_unit_plan(backend, unit, shape, owner: int) -> SyncPlan:
    """``unit`` alone under ``backend``, placed on ``owner``."""
    workload = IterationWorkload(
        model_name=unit.name, batch_size=shape.batch_size,
        forward_seconds=0.0, tail_backward_seconds=0.0, units=(unit,),
        single_node_seconds=1.0, total_param_bytes=unit.param_bytes)
    unit_plan = UnitPlan(unit, backend, owner,
                         backend.unit_phases(unit, shape, owner), 0.0)
    return SyncPlan(workload, shape, (unit_plan,), node_symmetric=False)
