"""One contract, every blocking primitive of the functional trainer.

The parameter servers (dense, 1-bit, hierarchical, Adam), the SFB / ring /
averaging boards, the BSP barrier and the SSP clock all stand on
:class:`repro.core.consistency.Rendezvous`; this module drives each one
through its public methods only and checks the shared protocol: abort
wakes a blocked waiter with a cascading failure, a non-``WorkerFailure``
reason surfaces as the owner's documented class, a post on an aborted
primitive is refused before it mutates anything, ``clear_abort`` re-arms,
a lonely wait ends in ``SyncTimeout``, a double contribution is refused, a
completed board entry is gone once all ``P`` have read it, and restart
recovery re-admits dropped workers.
"""

import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.comm.averaging import ParameterAverager
from repro.comm.backend import TrainerContext, get_backend
from repro.core.consistency import BSPController
from repro.core.staleness import SSPClock
from repro.exceptions import (
    CommunicationError,
    SyncTimeout,
    TrainingError,
    WorkerFailure,
)
from repro.nn.optim import SGD
from repro.nn.sufficient_factors import SufficientFactors
from train_reference import server_params

LAYER = "fc"
SHORT = 0.03        # a wait that is meant to expire
LONG = 5.0          # a wait that is meant to be woken long before


def _params():
    return {LAYER: {"weight": np.ones((3, 2), dtype=np.float32),
                    "bias": np.zeros(2, dtype=np.float32)}}


def _grads(worker):
    return {"weight": np.full((3, 2), worker + 1.0, dtype=np.float32),
            "bias": np.full(2, worker + 1.0, dtype=np.float32)}


def _factors(worker):
    return SufficientFactors(u=np.full((1, 3), worker + 1.0, dtype=np.float32),
                             v=np.ones((1, 2), dtype=np.float32))


class _Primitive:
    """``step(worker, round, timeout)``: one worker's blocking turn.

    A turn is ``post`` (where the primitive has a separate, non-blocking
    contribution) followed by ``wait``.
    """

    #: What a non-WorkerFailure abort reason surfaces as.
    error = CommunicationError

    def __init__(self, name, num_workers):
        self.num_workers = num_workers
        if name in ("ps", "onebit", "hierps", "adam", "sfb", "ring"):
            ctx = TrainerContext(
                num_workers=num_workers, num_servers=1, batch_size=1,
                deterministic=True,
                optimizer_factory=partial(SGD, learning_rate=0.1))
            self.target = get_backend(name).build_substrate(_params(), ctx)
            snapshot = self.target.checkpoint()
            self.recover = lambda: self.target.restore(snapshot)
        elif name == "averager":
            self.target = ParameterAverager(num_workers)
            self.recover = lambda: self.target.restore({})
        elif name == "barrier":
            self.target = BSPController(num_workers, [LAYER])
            self.error = TrainingError
            self.recover = self.target.reset
        else:
            self.target = SSPClock(num_workers, staleness=0)
            self.error = TrainingError
            clocks = self.target.snapshot()
            self.recover = lambda: self.target.restore(clocks)
        target = self.target
        self.post, self.wait = {
            "ps": (lambda w, r: target.push(w, LAYER, _grads(w)),
                   lambda w, r, t: target.pull(w, LAYER, r + 1, timeout=t)),
            "onebit": (lambda w, r: target.push(w, LAYER, _grads(w), nbytes=4),
                       lambda w, r, t: target.pull(w, LAYER, r + 1, timeout=t)),
            "hierps": (lambda w, r: target.push(w, LAYER, _grads(w)),
                       lambda w, r, t: target.pull(w, LAYER, r + 1, timeout=t)),
            "adam": (lambda w, r: target.push_factors(
                         w, LAYER, _factors(w), extras={"bias": _grads(w)["bias"]}),
                     lambda w, r, t: target.pull_matrix(w, LAYER, r + 1, timeout=t)),
            "sfb": (lambda w, r: target.publish(w, LAYER, r, _factors(w)),
                    lambda w, r, t: target.collect(w, LAYER, r, timeout=t)),
            "ring": (None, lambda w, r, t: target.allreduce(
                w, LAYER, r, _grads(w), timeout=t)),
            "averager": (None, lambda w, r, t: target.average(
                w, LAYER, r, _grads(w), timeout=t)),
            "barrier": (None, lambda w, r, t: target.barrier(w, timeout=t)),
            "clock": (None, lambda w, r, t: target.advance(w, timeout=t)),
        }[name]

    def step(self, worker, round_index, timeout):
        if self.post is not None:
            self.post(worker, round_index)
        return self.wait(worker, round_index, timeout)

    def run_round(self, round_index, workers=None, timeout=LONG):
        """Every worker takes its turn on its own thread; returns outcomes."""
        workers = range(self.num_workers) if workers is None else workers
        outcomes = {}

        def turn(worker):
            try:
                outcomes[worker] = self.step(worker, round_index, timeout)
            except BaseException as exc:  # noqa: BLE001 - inspected by the test
                outcomes[worker] = exc

        threads = [threading.Thread(target=turn, args=(w,)) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=LONG)
        assert not any(thread.is_alive() for thread in threads)
        return outcomes

    def assert_round_succeeds(self, round_index, workers=None):
        outcomes = self.run_round(round_index, workers)
        failed = {w: o for w, o in outcomes.items() if isinstance(o, BaseException)}
        assert not failed, failed


SUBSTRATES = ["ps", "onebit", "hierps", "adam", "sfb", "ring", "averager"]
BOARDS = ["sfb", "ring", "averager"]
EVERY = SUBSTRATES + ["barrier", "clock"]


def _blocked_worker_outcome(primitive, reason):
    """Worker 0 blocks on its missing peer; ``abort(reason)`` wakes it."""
    outcome = []

    def waiter():
        try:
            outcome.append(primitive.step(0, 0, LONG))
        except BaseException as exc:  # noqa: BLE001 - inspected by the test
            outcome.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(SHORT)                   # let it park inside the wait
    started = time.monotonic()
    primitive.target.abort(reason)
    thread.join(timeout=LONG)
    assert not thread.is_alive()
    assert time.monotonic() - started < 1.0     # woken, not timed out
    return outcome[0]


@pytest.mark.parametrize("name", EVERY)
class TestEveryPrimitive:
    def test_abort_wakes_a_blocked_waiter_with_a_cascade(self, name):
        primitive = _Primitive(name, 2)
        failure = _blocked_worker_outcome(
            primitive, WorkerFailure("worker 3 died", worker_id=3, iteration=7))
        assert isinstance(failure, WorkerFailure)
        assert failure.cascade
        assert (failure.worker_id, failure.iteration) == (3, 7)

    def test_other_reasons_surface_as_the_owners_error(self, name):
        primitive = _Primitive(name, 2)
        failure = _blocked_worker_outcome(primitive, RuntimeError("boom"))
        assert isinstance(failure, primitive.error)
        assert not isinstance(failure, (WorkerFailure, SyncTimeout))
        assert "boom" in str(failure)

    def test_clear_abort_rearms(self, name):
        primitive = _Primitive(name, 2)
        _blocked_worker_outcome(primitive, WorkerFailure("dead", worker_id=1))
        primitive.target.clear_abort()
        # Worker 0's contribution to round 0 stands; the late peer completes
        # it, and the next round runs as if nothing had happened.
        primitive.assert_round_succeeds(0, workers=[1])
        primitive.assert_round_succeeds(1)

    def test_post_on_an_aborted_primitive_mutates_nothing(self, name):
        primitive = _Primitive(name, 2)
        primitive.target.abort(WorkerFailure("dead", worker_id=1, iteration=4))
        with pytest.raises(WorkerFailure) as refused:
            primitive.step(0, 0, LONG)
        assert refused.value.cascade
        assert (refused.value.worker_id, refused.value.iteration) == (1, 4)
        primitive.target.clear_abort()
        # Had the refused post been recorded, worker 0 would now be
        # contributing twice (or the barrier / clock would be one ahead).
        primitive.assert_round_succeeds(0)

    def test_lonely_wait_times_out(self, name):
        primitive = _Primitive(name, 2)
        with pytest.raises(SyncTimeout):
            primitive.step(0, 0, SHORT)


@pytest.mark.parametrize("name", SUBSTRATES)
def test_double_contribution_is_refused(name):
    primitive = _Primitive(name, 2)
    with pytest.raises(SyncTimeout):
        primitive.step(0, 0, SHORT)     # the contribution itself stands
    with pytest.raises(CommunicationError) as refused:
        primitive.step(0, 0, SHORT)
    assert not isinstance(refused.value, SyncTimeout)


@pytest.mark.parametrize("name", ["ps", "onebit", "hierps", "adam", "sfb"])
def test_wait_whose_condition_holds_returns_under_abort(name):
    primitive = _Primitive(name, 2)
    for worker in range(2):
        primitive.post(worker, 0)
    primitive.target.abort(WorkerFailure("dead", worker_id=1))
    assert primitive.wait(0, 0, SHORT)


@pytest.mark.parametrize("name", BOARDS)
def test_completed_entry_is_gone_once_everyone_has_read_it(name):
    primitive = _Primitive(name, 2)
    primitive.assert_round_succeeds(0)
    # A surviving entry would answer at once (SFB) or refuse the second
    # contribution (ring, averager); a dropped one is a fresh, lonely wait.
    with pytest.raises(SyncTimeout):
        primitive.wait(0, 0, SHORT)


@pytest.mark.parametrize("name", ["ps", "onebit", "adam", "sfb", "ring",
                                  "averager", "barrier", "clock"])
def test_restart_recovery_readmits_a_dropped_worker(name):
    primitive = _Primitive(name, 3)
    primitive.target.remove_worker(2)
    assert primitive.target.num_workers == 2
    primitive.recover()
    assert primitive.target.num_workers == 3
    # Two of three is not a round any more ...
    outcomes = primitive.run_round(0, workers=[0, 1], timeout=SHORT)
    assert all(isinstance(o, SyncTimeout) for o in outcomes.values()), outcomes


def test_averager_membership_after_restore():
    """``remove_worker`` then ``restore`` used to leave a 2-way mean behind."""
    averager = ParameterAverager(3)
    averager.remove_worker(2)
    averager.restore({})
    results = {}

    def turn(worker):
        results[worker] = averager.average(
            worker, LAYER, 0, {"W": np.full(2, float(worker))}, timeout=LONG)

    threads = [threading.Thread(target=turn, args=(w,)) for w in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=LONG)
    assert sorted(results) == [0, 1, 2]
    for mean in results.values():
        np.testing.assert_array_equal(mean["W"], np.full(2, 1.0))


@pytest.mark.parametrize("name", ["ring", "averager", "ps"])
def test_many_threads_many_rounds_lose_no_contribution(name):
    """More threads than cores, a short switch interval: every round is the
    exact worker-ordered mean for every worker and nothing is left behind."""
    import sys

    workers, rounds = 6, 40
    primitive = _Primitive(name, workers)
    seen = [[] for _ in range(workers)]

    def loop(worker):
        for round_index in range(rounds):
            seen[worker].append(primitive.step(worker, round_index, LONG))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=loop, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(results) == rounds for results in seen)
    if name == "ps":
        # lr 0.1 x mean gradient (1 + ... + 6) / 6 = 3.5, once per round
        np.testing.assert_allclose(
            server_params(primitive.target, LAYER)["weight"],
            1.0 - 0.35 * rounds, rtol=1e-5)
        return
    for results in seen:
        for result in results:
            reduced = result[0] if name == "ring" else result
            np.testing.assert_array_equal(reduced["weight"], 3.5)
    with pytest.raises(SyncTimeout):                  # every round was dropped
        primitive.wait(0, rounds - 1, SHORT)
