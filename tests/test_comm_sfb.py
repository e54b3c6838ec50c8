"""Tests for the sufficient-factor broadcaster."""

import threading
import time

import numpy as np
import pytest

from repro.comm.sfb import MIN_SLAB_ROWS, SufficientFactorBroadcaster, plan_aggregate
from repro.exceptions import CommunicationError, SyncTimeout, WorkerFailure
from repro.nn.sufficient_factors import SufficientFactors

LONG = 5.0          # a wait that is meant to be woken long before


def make_factors(rng, batch=4, m=6, n=3):
    return SufficientFactors(u=rng.standard_normal((batch, m)).astype(np.float32),
                             v=rng.standard_normal((batch, n)).astype(np.float32))


def exchange(contributions, aggregation="mean"):
    """Publish ``[(factors, extras), ...]`` and collect on a board of that size."""
    board = SufficientFactorBroadcaster(num_workers=len(contributions))
    for worker, (factors, extras) in enumerate(contributions):
        board.publish(worker, "fc6", 0, factors, extras=extras)
    return board.collect(0, "fc6", 0, aggregation=aggregation)


def run_collectors(board, workers, iteration=0, aggregation="mean"):
    """Every worker in ``workers`` collects on its own thread; returns outcomes."""
    outcomes = {}

    def collect(worker):
        try:
            outcomes[worker] = board.collect(worker, "fc6", iteration,
                                             aggregation=aggregation,
                                             timeout=LONG)
        except BaseException as exc:  # noqa: BLE001 - inspected by the test
            outcomes[worker] = exc

    threads = [threading.Thread(target=collect, args=(w,)) for w in workers]
    for thread in threads:
        thread.start()
    return threads, outcomes


def join(threads):
    for thread in threads:
        thread.join(timeout=LONG)
    assert not any(thread.is_alive() for thread in threads)


class TestPublishCollect:
    def test_collect_returns_all_contributions(self, rng):
        board = SufficientFactorBroadcaster(num_workers=3)
        factors = [make_factors(rng) for _ in range(3)]
        for worker in range(3):
            board.publish(worker, "fc6", 0, factors[worker])
        weight, _, received = board.collect(0, "fc6", 0, aggregation="sum")
        np.testing.assert_allclose(
            weight, sum(f.reconstruct() for f in factors), rtol=1e-5)
        assert received == factors[1].nbytes + factors[2].nbytes

    def test_collect_blocks_until_all_published(self, rng):
        board = SufficientFactorBroadcaster(num_workers=2)
        board.publish(0, "fc6", 0, make_factors(rng))
        results = {}

        def collector():
            results["got"] = board.collect(0, "fc6", 0, timeout=5.0)

        thread = threading.Thread(target=collector)
        thread.start()
        board.publish(1, "fc6", 0, make_factors(rng))
        thread.join(timeout=5.0)
        assert results["got"][0].shape == (6, 3)

    def test_collect_timeout(self, rng):
        board = SufficientFactorBroadcaster(num_workers=2)
        board.publish(0, "fc6", 0, make_factors(rng))
        with pytest.raises(CommunicationError):
            board.collect(0, "fc6", 0, timeout=0.05)

    def test_double_publish_rejected(self, rng):
        board = SufficientFactorBroadcaster(num_workers=2)
        board.publish(0, "fc6", 0, make_factors(rng))
        with pytest.raises(CommunicationError):
            board.publish(0, "fc6", 0, make_factors(rng))

    def test_worker_id_out_of_range(self, rng):
        board = SufficientFactorBroadcaster(num_workers=2)
        with pytest.raises(CommunicationError):
            board.publish(5, "fc6", 0, make_factors(rng))

    def test_publish_bytes_count_peers(self, rng):
        board = SufficientFactorBroadcaster(num_workers=4)
        factors = make_factors(rng)
        nbytes = board.publish(0, "fc6", 0, factors)
        assert nbytes == factors.nbytes * 3

    def test_iterations_are_independent(self, rng):
        board = SufficientFactorBroadcaster(num_workers=1)
        first, second = make_factors(rng), make_factors(rng)
        board.publish(0, "fc6", 0, first)
        board.publish(0, "fc6", 1, second)
        np.testing.assert_array_equal(board.collect(0, "fc6", 0)[0],
                                      first.reconstruct())
        np.testing.assert_array_equal(board.collect(0, "fc6", 1)[0],
                                      second.reconstruct())


class TestAggregation:
    def test_aggregate_sum_matches_dense_sum(self, rng):
        factors = [make_factors(rng), make_factors(rng)]
        total, extras, _ = exchange([(f, {}) for f in factors], aggregation="sum")
        expected = factors[0].reconstruct() + factors[1].reconstruct()
        np.testing.assert_allclose(total, expected, rtol=1e-5)
        assert extras == {}

    def test_aggregate_mean_scales(self, rng):
        contributions = [(make_factors(rng), {}), (make_factors(rng), {})]
        total_sum, _, _ = exchange(contributions, aggregation="sum")
        total_mean, _, _ = exchange(contributions, aggregation="mean")
        np.testing.assert_allclose(total_mean, total_sum / 2.0, rtol=1e-6)

    def test_aggregate_extras(self, rng):
        _, extras, _ = exchange([
            (make_factors(rng), {"bias": np.array([1.0, 2.0])}),
            (make_factors(rng), {"bias": np.array([3.0, 4.0])}),
        ])
        np.testing.assert_allclose(extras["bias"], [2.0, 3.0])

    def test_aggregate_empty_rejected(self):
        with pytest.raises(CommunicationError):
            plan_aggregate({})

    def test_aggregate_invalid_mode_rejected(self, rng):
        board = SufficientFactorBroadcaster(num_workers=1)
        board.publish(0, "fc6", 0, make_factors(rng))
        with pytest.raises(CommunicationError):
            board.collect(0, "fc6", 0, aggregation="median")


def _slabbed_contributions(rng, num_workers, m=1024, n=1024, batch=16):
    """The benchmark layer's shape: many row slabs per aggregate."""
    return {wid: (make_factors(rng, batch=batch, m=m, n=n),
                  {"bias": rng.standard_normal(n).astype(np.float32)})
            for wid in range(num_workers)}


class TestOneSharedBuild:
    """Each (layer, iteration) aggregate is built once, by its collectors."""

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("aggregation", ["mean", "sum"])
    def test_row_slabs_are_bit_identical_to_the_full_product(
            self, rng, num_workers, aggregation):
        contributions = _slabbed_contributions(rng, num_workers)
        (weight, extras, _), blocks = plan_aggregate(contributions, aggregation)
        assert len(blocks) > 2                  # the extras and several slabs
        for block in reversed(blocks):
            block()
        u = np.concatenate([f.u for f, _ in contributions.values()])
        v = np.concatenate([f.v for f, _ in contributions.values()])
        want = u.T @ v
        bias = contributions[0][1]["bias"].copy()
        for wid in range(1, num_workers):
            bias += contributions[wid][1]["bias"]
        if aggregation == "mean":
            want /= float(num_workers)
            bias /= float(num_workers)
        np.testing.assert_array_equal(weight, want)
        np.testing.assert_array_equal(extras["bias"], bias)

    @pytest.mark.parametrize("m,n,slabs", [
        (7, 1 << 16, 1), (9, 1 << 16, 1), (17, 1 << 16, 2),
        (100, 1 << 16, 100 // MIN_SLAB_ROWS), (1025, 1024, 5)])
    def test_no_slab_is_thinner_than_the_minimum(self, rng, m, n, slabs):
        contributions = {0: (make_factors(rng, batch=2, m=m, n=n), {})}
        _, blocks = plan_aggregate(contributions)
        rows = [block.args for block in blocks[1:]]
        assert len(rows) == slabs
        assert rows[0][0] == 0 and rows[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        if m >= MIN_SLAB_ROWS:
            assert all(stop - start >= MIN_SLAB_ROWS for start, stop in rows)

    def test_every_block_runs_exactly_once_across_the_collectors(
            self, rng, monkeypatch):
        from repro.comm import sfb

        num_workers, iterations = 3, 4
        plans, runs = [], []                    # runs: (plan index, block index)
        lock = threading.Lock()

        def counting_plan(contributions, aggregation="mean"):
            aggregate, blocks = plan_aggregate(contributions, aggregation)
            plans.append(aggregate)
            build = len(plans) - 1

            def counted(index, block):
                with lock:
                    runs.append((build, index))
                block()
            return aggregate, [lambda i=i, b=b: counted(i, b)
                               for i, b in enumerate(blocks)]

        monkeypatch.setattr(sfb, "plan_aggregate", counting_plan)
        board = SufficientFactorBroadcaster(num_workers)
        for iteration in range(iterations):
            contributions = _slabbed_contributions(rng, num_workers)
            for wid, (factors, extras) in contributions.items():
                board.publish(wid, "fc6", iteration, factors, extras=extras)
            threads, outcomes = run_collectors(board, range(num_workers), iteration)
            join(threads)
            weights = [outcomes[wid][0] for wid in range(num_workers)]
            assert all(w is weights[0] for w in weights)     # one shared build
            assert not weights[0].flags.writeable
        assert len(plans) == iterations                      # one per key
        assert len(runs) == len(set(runs))                   # none ran twice
        blocks_per_build = len(runs) // iterations
        for build in range(iterations):
            assert sorted(i for b, i in runs if b == build) == list(
                range(blocks_per_build))                     # none skipped
        assert board._board == {} and board._builds == {}    # all released

    def test_nothing_posted_to_the_board_is_written(self, rng):
        num_workers = 3
        board = SufficientFactorBroadcaster(num_workers)
        contributions = _slabbed_contributions(rng, num_workers, m=256, n=512)
        before = {}
        for wid, (factors, extras) in contributions.items():
            for array in (factors.u, factors.v, *extras.values()):
                array.setflags(write=False)             # a write would raise
            before[wid] = [a.copy() for a in (factors.u, factors.v, extras["bias"])]
            board.publish(wid, "fc6", 0, factors, extras=extras)
        threads, outcomes = run_collectors(board, range(num_workers))
        join(threads)
        assert not any(isinstance(o, BaseException) for o in outcomes.values())
        for wid, (factors, extras) in contributions.items():
            for old, now in zip(before[wid], (factors.u, factors.v, extras["bias"])):
                np.testing.assert_array_equal(old, now)
                assert not np.shares_memory(now, outcomes[0][0])


class TestFaultsWithABuildInFlight:
    """A collector parked on a half-built aggregate is woken, never hung."""

    def _stalled_board(self, rng, monkeypatch, num_workers):
        """A board whose first block parks until ``release`` is set."""
        from repro.comm import sfb

        release, started = threading.Event(), threading.Event()

        def stalled_plan(contributions, aggregation="mean"):
            aggregate, blocks = plan_aggregate(contributions, aggregation)

            def stall(block=blocks[0]):
                started.set()
                release.wait(LONG)
                block()
            return aggregate, [stall] + blocks[1:]

        monkeypatch.setattr(sfb, "plan_aggregate", stalled_plan)
        board = SufficientFactorBroadcaster(num_workers)
        contributions = _slabbed_contributions(rng, num_workers, m=128, n=1024)
        for wid, (factors, extras) in contributions.items():
            board.publish(wid, "fc6", 0, factors, extras=extras)
        return board, contributions, release, started

    def test_abort_wakes_every_survivor(self, rng, monkeypatch):
        board, _, release, started = self._stalled_board(rng, monkeypatch, 3)
        threads, outcomes = run_collectors(board, range(3))
        assert started.wait(LONG)
        board.abort(WorkerFailure("dead", worker_id=2, iteration=0))
        for _ in range(100):                    # the two without the stall
            if len(outcomes) == 2:
                break
            time.sleep(0.05)
        assert len(outcomes) == 2
        assert all(isinstance(o, WorkerFailure) and o.cascade and o.worker_id == 2
                   for o in outcomes.values())
        release.set()                           # the stalled block's runner
        join(threads)
        (last,) = set(outcomes) - {w for w, o in outcomes.items()
                                   if isinstance(o, WorkerFailure)}
        assert outcomes[last][0].shape == (128, 1024)   # its block completed it

    def test_remove_worker_wakes_every_survivor(self, rng, monkeypatch):
        board, contributions, release, started = self._stalled_board(
            rng, monkeypatch, 3)
        threads, outcomes = run_collectors(board, (0, 1))
        assert started.wait(LONG)
        board.remove_worker(2)                  # posted, never collects
        release.set()
        join(threads)
        weight = outcomes[0][0]
        assert outcomes[1][0] is weight         # the build kept all 3 posts
        u = np.concatenate([f.u for f, _ in contributions.values()])
        v = np.concatenate([f.v for f, _ in contributions.values()])
        np.testing.assert_array_equal(weight, (u.T @ v) / 3.0)
        assert board._board == {} and board._builds == {}

    def test_a_drop_before_the_build_yields_the_survivors_mean(self, rng):
        board = SufficientFactorBroadcaster(num_workers=3)
        contributions = _slabbed_contributions(rng, 3, m=128, n=1024)
        for wid in (0, 1):
            factors, extras = contributions[wid]
            board.publish(wid, "fc6", 0, factors, extras=extras)
        threads, outcomes = run_collectors(board, (0, 1))
        board.remove_worker(2)
        join(threads)
        survivors = [contributions[wid] for wid in (0, 1)]
        u = np.concatenate([f.u for f, _ in survivors])
        v = np.concatenate([f.v for f, _ in survivors])
        biases = [extra["bias"] for _, extra in survivors]
        for wid in (0, 1):
            weight, extras, received = outcomes[wid]
            np.testing.assert_array_equal(weight, (u.T @ v) / 2.0)
            np.testing.assert_array_equal(extras["bias"],
                                          (biases[0] + biases[1]) / 2.0)
            peer_factors, _ = survivors[1 - wid]
            assert received == peer_factors.nbytes + biases[1 - wid].nbytes

    def test_a_failing_block_is_retried_by_a_peer(self, rng, monkeypatch):
        from repro.comm import sfb

        failed = threading.Event()

        def flaky_plan(contributions, aggregation="mean"):
            aggregate, blocks = plan_aggregate(contributions, aggregation)

            def once(block=blocks[-1]):
                if not failed.is_set():
                    failed.set()
                    raise MemoryError("first try")
                block()
            return aggregate, blocks[:-1] + [once]

        monkeypatch.setattr(sfb, "plan_aggregate", flaky_plan)
        board = SufficientFactorBroadcaster(2)
        contributions = _slabbed_contributions(rng, 2, m=64, n=1024)
        for wid, (factors, extras) in contributions.items():
            board.publish(wid, "fc6", 0, factors, extras=extras)
        threads, outcomes = run_collectors(board, (0, 1))
        join(threads)
        errors = [o for o in outcomes.values() if isinstance(o, BaseException)]
        results = [o for o in outcomes.values() if not isinstance(o, BaseException)]
        assert len(errors) == 1 and isinstance(errors[0], MemoryError)
        assert len(results) == 1
        u = np.concatenate([f.u for f, _ in contributions.values()])
        v = np.concatenate([f.v for f, _ in contributions.values()])
        np.testing.assert_array_equal(results[0][0], (u.T @ v) / 2.0)

    def test_a_lonely_collector_still_times_out(self, rng):
        board = SufficientFactorBroadcaster(num_workers=2)
        board.publish(0, "fc6", 0, make_factors(rng))
        with pytest.raises(SyncTimeout):
            board.collect(0, "fc6", 0, timeout=0.05)
