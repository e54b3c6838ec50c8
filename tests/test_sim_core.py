"""Tests for the discrete-event simulation engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Environment, Event, TailChannel
from sim_reference import (AllOf, Process, Resource, occupy, process,
                           run_process)


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(2.5)
            return env.now

        assert run_process(env, proc()) == pytest.approx(2.5)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    @pytest.mark.parametrize("call", [
        lambda env, nan: env.timeout(nan),
        lambda env, nan: env.timeout_at(nan),
        lambda env, nan: env.event().succeed_at(nan),
        lambda env, nan: TailChannel(env).book(nan),
        lambda env, nan: run_process(env, occupy(TailChannel(env), nan)),
    ], ids=["timeout", "timeout_at", "succeed_at", "book", "occupy"])
    def test_nan_never_enters_the_queue(self, call):
        """A NaN time raises; it used to pop first, set the clock to NaN and
        let every later event run at its bare delay (1.0, 2.0, ...)."""
        env = Environment()
        with pytest.raises(SimulationError):
            call(env, float("nan"))

        def proc():
            yield env.timeout(0.5)
            yield env.timeout(0.5)
            return env.now

        assert run_process(env, proc()) == 1.0

    def test_events_processed_counter(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            yield env.timeout(1)

        run_process(env, proc())
        assert env.events_processed >= 2



class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return "done"

        assert run_process(env, proc()) == "done"

    def test_nested_process_waiting(self):
        env = Environment()

        def child():
            yield env.timeout(3)
            return 42

        def parent():
            value = yield process(env, child())
            return value + 1

        assert run_process(env, parent()) == 43

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        trace = []

        def proc(delay):
            yield env.timeout(delay)
            trace.append((env.now, delay))

        process(env, proc(2))
        process(env, proc(1))
        env.run()
        assert trace == [(1, 1), (2, 2)]

    def test_exception_in_process_propagates_from_run_process(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_process(env, proc())

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def proc():
            yield 42

        root = process(env, proc())
        env.run()
        assert root.ok is False
        assert isinstance(root.value, SimulationError)

    def test_waiting_on_already_processed_event(self):
        env = Environment()

        def proc():
            timeout = env.timeout(1)
            yield env.timeout(5)
            # `timeout` fired long ago; waiting on it should not deadlock.
            yield timeout
            return env.now

        assert run_process(env, proc()) == pytest.approx(5)


class TestSpawnedProcesses:
    """``Environment.spawn`` starts a batch from one entry and the batch ends
    without completion entries; everything else happens as with back-to-back
    ``process`` calls (the test driver's, ``tests/sim_reference.py``)."""

    @staticmethod
    def _run(start):
        env = Environment()
        trace, outcomes = [], []

        def member(name, delay):
            trace.append((name, env.now, "start"))
            yield env.timeout(delay)
            yield env.timeout(0.0)  # a same-instant entry per member
            trace.append((name, env.now, "end"))
            return name

        def other():
            yield env.timeout(1.0)
            trace.append(("other", env.now, "end"))

        process(env, other())
        start(env, [member(name, 1.0) for name in "abc"],
              lambda ok, value: outcomes.append((ok, value)))
        env.run()
        return trace, outcomes, env.events_processed

    def test_same_order_fewer_entries(self):
        def one_by_one(env, generators, on_exit):
            for generator in generators:
                process(env, generator).add_waiter(on_exit)

        spawned = self._run(lambda env, generators, on_exit: env.spawn(
            [Process(env, generator) for generator in generators], on_exit))
        processed = self._run(one_by_one)
        assert spawned[:2] == processed[:2]
        assert [ok for ok, _ in spawned[1]] == [True] * 3
        # Two of three bootstraps and all three completions are gone.
        assert spawned[2] == processed[2] - 5

    def test_empty_batch_takes_no_entry(self):
        env = Environment()
        env.spawn([], lambda ok, value: None)
        env.run()
        assert env.events_processed == 0


class TestCompositeEvents:
    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def proc():
            yield AllOf(env, [env.timeout(1), env.timeout(4), env.timeout(2)])
            return env.now

        assert run_process(env, proc()) == pytest.approx(4)

    def test_all_of_empty_list_fires_immediately(self):
        env = Environment()

        def proc():
            yield AllOf(env, [])
            return env.now

        assert run_process(env, proc()) == pytest.approx(0)

    def test_event_double_succeed_rejected(self):
        env = Environment()
        event = Event(env)
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestResource:
    def test_capacity_one_serialises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        completions = []

        def worker(name):
            yield process(env, resource.occupy(2))
            completions.append((name, env.now))

        process(env, worker("a"))
        process(env, worker("b"))
        env.run()
        assert [t for _, t in completions] == [2, 4]

    def test_capacity_two_runs_in_parallel(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        completions = []

        def worker():
            yield process(env, resource.occupy(3))
            completions.append(env.now)

        for _ in range(2):
            process(env, worker())
        env.run()
        assert completions == [3, 3]

    def test_release_unowned_request_raises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        request = resource.request()
        resource.release(request)
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_utilization_tracking(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def worker():
            yield process(env, resource.occupy(4))
            yield env.timeout(4)

        run_process(env, worker())
        assert resource.utilization() == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

