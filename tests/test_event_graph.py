"""Tests for the event-graph reduction primitives (PR 3).

Four layers of protection:

* property-style tests pinning :class:`CountdownEvent` against ``AllOf``
  and :class:`TailChannel` against the ``Resource`` implementation on
  randomized schedules (identical completion times);
* transfer-level equivalence tests pinning the tail-clock cluster model
  against a resource-based reference implementation on randomized flow
  schedules (identical per-flow finish times and traffic), and the
  batched broadcast against per-destination transfers;
* a recorded-trace test: the committed ``tests/data/flow_sim_trace.json``
  holds the exact (``repr``-level) outputs of the pre-reduction simulator
  on figure-style configs of every scheme path, and the current simulator
  must reproduce them byte-identically;
* per-tag account pins of the SFB convoy points, flat and racked.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.cluster.machine import FABRIC, ClusterModel
from repro.config import (
    ADAM_TF,
    CAFFE_PS,
    CAFFE_WFBP,
    CNTK_1BIT,
    POSEIDON_CAFFE,
    POSEIDON_TF,
    TF,
    TF_WFBP,
    ClusterConfig,
)
from repro.exceptions import SimulationError
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import get_model_spec
from repro.sim import CountdownEvent, Environment, Event, TailChannel
from repro.simulation.throughput import IterationSimulator, simulate_system
from repro.simulation.workload import build_workload
from sim_reference import (AllOf, Process, Resource, acquire, occupy,
                           process, run_flow, run_process)

TRACE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "flow_sim_trace.json")

SYSTEMS = {
    "poseidon_caffe": POSEIDON_CAFFE,
    "caffe_wfbp": CAFFE_WFBP,
    "caffe_ps": CAFFE_PS,
    "tf": TF,
    "tf_wfbp": TF_WFBP,
    "poseidon_tf": POSEIDON_TF,
    "adam": ADAM_TF,
    "cntk_1bit": CNTK_1BIT,
}


class TestCountdownEvent:
    def test_fires_on_last_arrival(self):
        env = Environment()
        barrier = env.countdown(3)
        times = []

        def arriver(delay):
            yield env.timeout(delay)
            barrier.arrive()

        def waiter():
            yield barrier
            times.append(env.now)

        process(env, waiter())
        for delay in (1.0, 5.0, 3.0):
            process(env, arriver(delay))
        env.run()
        assert times == [5.0]

    def test_zero_count_fires_immediately(self):
        env = Environment()
        barrier = env.countdown(0)
        assert barrier.triggered

        def waiter():
            yield barrier
            return env.now

        assert run_process(env, waiter()) == 0.0

    def test_extra_arrival_rejected(self):
        env = Environment()
        barrier = env.countdown(1)
        barrier.arrive()
        with pytest.raises(SimulationError):
            barrier.arrive()

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            CountdownEvent(Environment(), -1)

    def test_spawned_member_failure_fails_the_barrier(self):
        env = Environment()
        barrier = env.countdown(2)

        def boom():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def fine():
            yield env.timeout(2.0)

        env.spawn([Process(env, boom()), Process(env, fine())],
                  barrier.arrive_with)

        def waiter():
            yield barrier

        root = process(env, waiter())
        env.run()
        assert root.ok is False
        assert isinstance(root.value, ValueError)

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_matches_all_of_on_random_schedules(self, delays):
        """Barrier completion time equals an AllOf over member events."""

        def run(use_countdown):
            env = Environment()
            done = []
            if use_countdown:
                barrier = env.countdown(len(delays))
            else:
                members = [env.event() for _ in delays]

            def member(index, delay):
                yield env.timeout(delay)
                if use_countdown:
                    barrier.arrive()
                else:
                    members[index].succeed()

            def waiter():
                if use_countdown:
                    yield barrier
                else:
                    yield AllOf(env, members)
                done.append(env.now)

            process(env, waiter())
            for index, delay in enumerate(delays):
                process(env, member(index, delay))
            env.run()
            return done

        assert run(True) == run(False)


class TestDeferredTrigger:
    def test_succeed_at_processes_in_the_future(self):
        env = Environment()
        event = env.event()
        event.succeed_at(4.0, value="late")
        assert event.triggered and not event.processed

        def waiter():
            value = yield event
            return env.now, value

        assert run_process(env, waiter()) == (4.0, "late")

    def test_succeed_at_past_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(2.0)

        run_process(env, proc())
        with pytest.raises(SimulationError):
            env.event().succeed_at(1.0)

    def test_succeed_at_is_bit_exact(self):
        """The waiter observes exactly the requested instant."""
        env = Environment()
        # A time whose delta round-trip (now + (t - now)) is lossy.
        target = 0.1 + 0.2 + 0.30000000000000004

        def mover():
            yield env.timeout(0.3)
            env.event().succeed_at(target).add_waiter(
                lambda ok, value: seen.append(env.now))

        seen = []
        process(env, mover())
        env.run()
        assert seen == [target]

    def test_timeout_at_is_bit_exact(self):
        env = Environment()
        target = 1.0000000000000002

        def proc():
            yield env.timeout(0.5)
            yield env.timeout_at(target)
            return env.now

        assert run_process(env, proc()) == target


class TestTailChannelAgainstResource:
    """Tail-clock channels must reproduce Resource hold timing exactly."""

    @given(holds=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),  # spawn delay
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),  # hold duration
        ),
        min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_occupy_matches_resource(self, holds):
        def run(make_channel, occupy):
            env = Environment()
            channel = make_channel(env)
            finished = {}

            def holder(index, spawn, duration):
                yield env.timeout(spawn)
                yield process(env, occupy(channel, duration))
                finished[index] = env.now

            for index, (spawn, duration) in enumerate(holds):
                process(env, holder(index, spawn, duration))
            env.run()
            return finished

        resource_times = run(lambda env: Resource(env, capacity=1),
                             lambda ch, d: ch.occupy(d))
        tail_times = run(lambda env: TailChannel(env), occupy)
        assert tail_times == resource_times

    def test_request_release_protocol(self):
        env = Environment()
        channel = TailChannel(env, name="ch")
        order = []

        def holder(name, spawn, duration):
            yield env.timeout(spawn)
            release = yield from acquire(channel)
            start = env.now
            channel.release(release, start + duration)
            yield release
            order.append((name, start, env.now))

        process(env, holder("a", 0.0, 4.0))
        process(env, holder("b", 1.0, 2.0))
        process(env, holder("c", 2.0, 1.0))
        env.run()
        assert order == [("a", 0.0, 4.0), ("b", 4.0, 6.0), ("c", 6.0, 7.0)]

    def test_book_requires_resolved_channel(self):
        env = Environment()
        channel = TailChannel(env)

        def holder():
            release = yield from acquire(channel)
            with pytest.raises(SimulationError):
                channel.book(1.0)
            channel.release(release, env.now + 1.0)
            yield release

        run_process(env, holder())
        # Resolved again: analytic booking allowed.
        assert channel.book(2.0) == pytest.approx(3.0)


def _reference_transfer(env, resources, traffic, src, dst, nbytes,
                        bandwidth_bps, latency):
    """The seed's Resource-based transfer protocol (reference for tests)."""
    if src == dst or nbytes == 0:
        return
    duration = units.transfer_seconds(nbytes, bandwidth_bps) + latency
    up = resources.get((src, "up")) if src != FABRIC else None
    down = resources.get((dst, "down")) if dst != FABRIC else None
    up_request = up.request() if up is not None else None
    if up_request is not None:
        yield up_request
    down_request = down.request() if down is not None else None
    if down_request is not None:
        yield down_request
    try:
        yield env.timeout(duration)
    finally:
        if up_request is not None:
            up.release(up_request)
            traffic[src] = traffic.get(src, 0.0) + nbytes
        if down_request is not None:
            down.release(down_request)
            traffic[dst] = traffic.get(dst, 0.0) + nbytes


class TestTransferAgainstResourceModel:
    @given(flows=st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=0.01,
                      allow_nan=False, allow_infinity=False),  # spawn spacing
            st.integers(min_value=-1, max_value=3),            # src (-1=fabric)
            st.integers(min_value=-1, max_value=3),            # dst (-1=fabric)
            st.integers(min_value=1, max_value=10_000_000),    # bytes
        ),
        min_size=1, max_size=25, unique_by=lambda f: f[3]))
    @settings(max_examples=40, deadline=None)
    def test_flow_times_match_reference(self, flows):
        """Distinct-instant flow schedules complete identically.

        Spawn times are strictly increasing (prefix sums) and flow sizes
        unique, so no two flows contend for a channel at the same simulated
        instant: FIFO order is time-determined, and the tail-clock model
        must reproduce the resource model's completion times exactly.
        (Same-instant tie-breaking is pinned at the simulator level by the
        recorded-trace test below, which covers the figure workloads.)
        """
        flows = [f for f in flows if not (f[1] == FABRIC and f[2] == FABRIC)]
        if not flows:
            return
        spawn = 0.0
        spaced = []
        for delta, src, dst, nbytes in flows:
            spawn += delta
            spaced.append((spawn, src, dst, nbytes))
        flows = spaced
        config = ClusterConfig(num_workers=4, bandwidth_gbps=10.0,
                               latency_seconds=50 * units.US,
                               network_efficiency=1.0)

        def run_tail():
            env = Environment()
            cluster = ClusterModel(env, config)
            finished = {}

            def flow(index, spawn, src, dst, nbytes):
                yield env.timeout(spawn)
                yield process(env, run_flow(cluster.transfer, src, dst, nbytes))
                finished[index] = env.now

            for index, (spawn, src, dst, nbytes) in enumerate(flows):
                process(env, flow(index, spawn, src, dst, nbytes))
            env.run()
            traffic = {node: machine.nic.traffic.total_bytes
                       for node, machine in cluster.machines.items()}
            return finished, traffic

        def run_reference():
            env = Environment()
            bandwidth = config.effective_bandwidth_bps
            resources = {}
            for node in range(4):
                resources[(node, "up")] = Resource(env, capacity=1)
                resources[(node, "down")] = Resource(env, capacity=1)
            traffic = {}
            finished = {}

            def flow(index, spawn, src, dst, nbytes):
                yield env.timeout(spawn)
                yield process(env, _reference_transfer(
                    env, resources, traffic, src, dst, nbytes,
                    bandwidth, config.latency_seconds))
                finished[index] = env.now

            for index, (spawn, src, dst, nbytes) in enumerate(flows):
                process(env, flow(index, spawn, src, dst, nbytes))
            env.run()
            full = {node: traffic.get(node, 0.0) for node in range(4)}
            return finished, full

        tail_finished, tail_traffic = run_tail()
        ref_finished, ref_traffic = run_reference()
        assert tail_finished == ref_finished
        assert tail_traffic == ref_traffic

    @given(
        racked=st.booleans(),
        src=st.integers(0, 5),
        order=st.permutations(range(6)),
        nbytes=st.sampled_from((1.0, 3000.0, 2.5e6, 2.5e8)),
        background=st.lists(st.tuples(
            st.booleans(),                                 # hold, or a flow
            st.integers(0, 5), st.integers(0, 5),          # its two nodes
            st.sampled_from((0.0, 1e-4, 3e-3)),            # its start
            st.sampled_from((1e3, 1e6, 5e7))),             # its bytes
            max_size=4))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_broadcast_matches_spawned_transfers(self, racked, src, order,
                                                 nbytes, background):
        """Batched broadcast == per-destination processes joined by AllOf.

        Whatever order the receivers are listed in, the batch walks them
        starting after its sender, ``(src + 1 + k) mod N``; the reference
        spawns its transfers in that order.
        Flat and oversubscribed two-rack clusters (copies that cross the
        rack boundary serialise through both rack switches); receivers idle,
        or busy with background flows, or with an open downlink hold whose
        end is not known when a copy arrives.  Finish time and every
        account (per node and per rack, totals and per tag) must agree.
        The broadcast starts off every background start: the two sides
        take a different number of same-instant hops to their first
        request, so a tie at the start is ordered differently by design.
        """
        config = ClusterConfig(num_workers=6, bandwidth_gbps=10.0,
                               latency_seconds=50 * units.US,
                               network_efficiency=1.0,
                               **(dict(racks=2, oversubscription=4.0)
                                  if racked else {}))

        def run(batched):
            env = Environment()
            cluster = ClusterModel(env, config)

            def hold(node, start, seconds):
                yield env.timeout(start)
                down = cluster.machine(node).nic.downlink
                release = yield from acquire(down)
                yield env.timeout(seconds)
                down.release(release)

            def flow(a, b, start, size):
                yield env.timeout(start)
                yield process(env, run_flow(cluster.transfer, a, b, size, tag="bg"))

            for is_hold, a, b, start, size in background:
                process(env, hold(b, start, size * 1e-10) if is_hold
                            else flow(a, b, start, size))

            def proc():
                yield env.timeout(1.5e-4)
                if batched:
                    yield process(env, run_flow(cluster.broadcast, src, list(order),
                                                        nbytes, tag="sfb"))
                else:
                    nodes = config.num_nodes
                    yield AllOf(env, [
                        process(env, run_flow(cluster.transfer,
                            src, (src + 1 + k) % nodes, nbytes, tag="sfb"))
                        for k in range(nodes - 1)])
                return env.now

            finish = run_process(env, proc())
            accounts = [(account.bytes_sent, account.bytes_received,
                         account.by_tag_sent, account.by_tag_received)
                        for account in
                        [cluster.machine(node).nic.traffic
                         for node in range(config.num_nodes)]
                        + [switch.traffic for switch in cluster.rack_switches]]
            return finish, accounts

        assert run(True) == run(False)


class TestRecordedTrace:
    """The simulator must reproduce the pre-reduction outputs exactly."""

    with open(TRACE_PATH) as _fh:
        TRACE = json.load(_fh)

    @pytest.mark.parametrize(
        "config", TRACE["configs"],
        ids=["%s-%s-%dn-%g" % (c["system"], c["model"], c["nodes"],
                               c["bandwidth_gbps"])
             for c in TRACE["configs"]])
    def test_config_byte_identical(self, config):
        spec = get_model_spec(config["model"])
        cluster = ClusterConfig(num_workers=config["nodes"],
                                bandwidth_gbps=config["bandwidth_gbps"])
        result = simulate_system(spec, SYSTEMS[config["system"]], cluster)
        assert repr(result.iteration_seconds) == config["iteration_seconds"]
        assert repr(result.gpu_busy_fraction) == config["gpu_busy_fraction"]
        assert ([repr(t) for t in result.per_node_traffic_bytes]
                == config["per_node_traffic_bytes"])
        assert result.scheme_by_unit == config["scheme_by_unit"]


def _accounts_digest(simulator) -> str:
    """sha256 of every node's NIC account: totals and per-tag, ``repr``-exact."""
    accounts = [simulator.cluster.machine(node).nic.traffic
                for node in sorted(simulator.cluster.machines)]
    blob = json.dumps([[repr(a.bytes_sent), repr(a.bytes_received),
                        {tag: repr(v) for tag, v in a.by_tag_sent.items()},
                        {tag: repr(v) for tag, v in a.by_tag_received.items()}]
                       for a in accounts], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestConvoyAccounts:
    """The SFB all-to-all convoys book every copy on two accounts under the
    unit's tag: the sender's and the receiver's (on a flat network, the one
    representative worker's own, as every receiver's proxy).  Per-node
    totals are pinned elsewhere (``flow_sim_trace.json``); these points pin
    every per-tag account too, as recorded on the parent of the change that
    inlined the per-copy booking.  Event counts and times were re-recorded
    when the all-to-all became the rotated schedule (copy ``k`` of sender
    ``s`` to ``s + 1 + k``), again when a compute class became one
    process, and the racked HybComm count when its ring unit's unwaited
    final countdown went: the accounts did not move."""

    RACKED = dict(racks=4, oversubscription=4.0)
    POINTS = {
        # Recorded when it replaced nanogpt-12l under HybComm: priced at
        # K = B * T factor rows, that plan broadcasts nothing.
        "nanogpt-12l SFB 16n": (
            "nanogpt-12l", "SFB",
            ClusterConfig(num_workers=16, bandwidth_gbps=40.0),
            1348, "8.544168478987517", "d563c19e659acb0f"),
        "vgg19 SFB 32n": (
            "vgg19", "SFB", ClusterConfig(num_workers=32, bandwidth_gbps=10.0),
            261, "0.9077685117951346", "c8c79b9dcf7086b3"),
        "vgg19 HybComm 32n": (
            "vgg19", "HybComm",
            ClusterConfig(num_workers=32, bandwidth_gbps=10.0),
            261, "0.9077685117951346", "c8c79b9dcf7086b3"),
        "vgg19 SFB 32n racked 4:1": (
            "vgg19", "SFB",
            ClusterConfig(num_workers=32, bandwidth_gbps=10.0, **RACKED),
            13732, "2.268062715431489", "c8c79b9dcf7086b3"),
        "vgg19 HybComm 32n racked 4:1": (
            "vgg19", "HybComm",
            ClusterConfig(num_workers=32, bandwidth_gbps=10.0, **RACKED),
            13301, "2.2029148619391234", "9d68b4edd968b0ff"),
    }

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_per_tag_accounts_pinned(self, point):
        model, system, cluster, events, seconds, digest = self.POINTS[point]
        workload = build_workload(get_model_spec(model), gpu=cluster.gpu)
        simulator = IterationSimulator(
            workload, cluster,
            {s.name: s for s in backend_systems()}[system])
        result = simulator.run()
        assert simulator.env.events_processed == events
        assert repr(result.iteration_seconds) == seconds
        assert _accounts_digest(simulator)[:16] == digest
