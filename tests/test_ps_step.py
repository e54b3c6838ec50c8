"""The parameter server steps a version block by block (ISSUE 23).

* the fused fold / mean / step kernel (``SGD.apply`` over an ordered sequence
  of contributions) is bit-equal to the parent's whole-array reduce-then-apply,
  kept here as the reference, at every block boundary;
* two layers of one server stepping at once never share scratch;
* bit-identity pins for every trainer path that ends in the server step,
  recorded with the parent's sources (``tests/data/ps_pins.json``), and
  for the compressed ring, whose top-k payloads fold the same way
  (``tests/data/ring_topk_pins.json``).
"""

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.parameter_server import ShardedParameterServer
from repro.exceptions import ConfigurationError
from repro.nn.optim import BLOCK_ELEMENTS, SGD
from train_reference import server_params

from test_sync_path import PIN_ITERATIONS, _pin_run

# -- the kernel against the whole-array reference ----------------------------------

SIZES = (1, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1,
         2 * BLOCK_ELEMENTS + 7)


def _matrix_shape(size):
    """The squarest ``rows x cols == size`` (so Fortran order means something)."""
    rows = max(d for d in range(1, int(size ** 0.5) + 1) if size % d == 0)
    return rows, size // rows


def _reference_version(param, velocity, grads, divisor, optimizer):
    """The parent's server step: four streamed passes over whole arrays.

    ``reduce_in_worker_order(..., out=accum)`` into a parameter-shaped
    accumulator, then ``SGD.apply`` with out-of-place momentum.  Returns the
    new velocity.
    """
    accum = np.zeros_like(param)
    if len(grads) > 1:
        np.add(grads[0], grads[1], out=accum, casting="unsafe")
    else:
        np.copyto(accum, grads[0], casting="unsafe")
    for grad in grads[2:]:
        np.add(accum, grad, out=accum, casting="unsafe")
    if divisor is not None:
        accum *= 1.0 / float(divisor)
    update = accum
    if optimizer.weight_decay:
        update = update + optimizer.weight_decay * param
    if optimizer.momentum:
        velocity = (optimizer.momentum * velocity
                    - optimizer.learning_rate * update)
        param += velocity
    else:
        param -= optimizer.learning_rate * update
    return velocity


class TestBlockedStepEqualsWholeArrayStep:
    @settings(max_examples=60, deadline=None)
    @given(num_workers=st.integers(1, 5), size=st.sampled_from(SIZES),
           mean=st.booleans(), momentum=st.sampled_from([0.0, 0.9]),
           weight_decay=st.sampled_from([0.0, 1e-4]),
           layout=st.sampled_from(["float32", "float64", "fortran"]),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_three_versions_bit_equal(self, num_workers, size, mean, momentum,
                                      weight_decay, layout, seed, data):
        rng = np.random.default_rng(seed)
        shape = _matrix_shape(size)
        start = rng.standard_normal(shape).astype(np.float32)
        optimizer = SGD(learning_rate=0.05, momentum=momentum,
                        weight_decay=weight_decay)
        server = ShardedParameterServer(
            {"fc": {"w": start}}, num_workers=num_workers, optimizer=optimizer,
            aggregation="mean" if mean else "sum", ordered=True)
        want, want_velocity = start.copy(), np.zeros_like(start)
        held = None
        for version in range(3):
            grads = [rng.standard_normal(shape).astype(
                np.float64 if layout == "float64" else np.float32)
                for _ in range(num_workers)]
            if layout == "fortran":
                grads = [np.asfortranarray(grad) for grad in grads]
            before = [grad.copy() for grad in grads]
            for wid in data.draw(st.permutations(range(num_workers))):
                server.push(wid, "fc", {"w": grads[wid]})
            want_velocity = _reference_version(
                want, want_velocity, grads, num_workers if mean else None,
                optimizer)
            assert server.version("fc") == version + 1
            np.testing.assert_array_equal(server_params(server, "fc")["w"], want)
            for grad, kept in zip(grads, before):   # contributions are only read
                np.testing.assert_array_equal(grad, kept)
            if momentum:
                velocity = optimizer._velocity["fc/w"]
                np.testing.assert_array_equal(velocity, want_velocity)
                assert held is None or velocity is held     # carried in place
                held = velocity
                snapshot = optimizer.get_state()["fc/w"]
                assert not np.shares_memory(snapshot, velocity)
        assert optimizer._velocity.keys() == ({"fc/w"} if momentum else set())

    def test_a_small_tensor_is_one_trip_through_the_same_loop(self):
        """The hybrid workload's 1024 x 10 head, in arrival order."""
        rng = np.random.default_rng(0)
        start = rng.standard_normal((1024, 10)).astype(np.float32)
        grads = [rng.standard_normal((1024, 10)).astype(np.float32)
                 for _ in range(3)]
        server = ShardedParameterServer({"head": {"w": start}}, num_workers=3,
                                        optimizer=SGD(learning_rate=0.05))
        for wid in (2, 0, 1):
            server.push(wid, "head", {"w": grads[wid]})
        want = start.copy()
        _reference_version(want, None, [grads[2], grads[0], grads[1]], 3,
                           server.optimizer)
        np.testing.assert_array_equal(server_params(server, "head")["w"], want)

    def test_a_strided_parameter_is_refused_not_stepped_in_a_copy(self):
        param = np.zeros((4, 6), dtype=np.float32)[:, ::2]
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            SGD(learning_rate=1.0).apply("w", param, [np.ones((4, 3))])
        np.testing.assert_array_equal(param, 0.0)

    def test_scale_is_refused_with_a_single_gradient_not_ignored(self):
        param = np.zeros(3, dtype=np.float32)
        with pytest.raises(ConfigurationError, match="scale"):
            SGD(learning_rate=1.0).apply("w", param, np.ones(3), scale=0.5)
        np.testing.assert_array_equal(param, 0.0)


# -- private scratch ---------------------------------------------------------------

def test_two_layers_stepping_at_once_equal_a_serial_replay():
    """One optimiser, two slot locks: the scratch must be private to a step."""
    rounds, shape = 30, _matrix_shape(2 * BLOCK_ELEMENTS + 7)
    rng = np.random.default_rng(11)
    initial = {name: {"w": rng.standard_normal(shape).astype(np.float32)}
               for name in ("a", "b")}
    grads = {name: [rng.standard_normal(shape).astype(np.float32)
                    for _ in range(rounds)] for name in initial}

    def make_server():
        return ShardedParameterServer(
            initial, num_workers=1, ordered=True,
            optimizer=SGD(learning_rate=0.05, momentum=0.9, weight_decay=1e-4))

    serial = make_server()
    for name in initial:
        for grad in grads[name]:
            serial.push(0, name, {"w": grad})

    threaded, errors = make_server(), []

    def stepper(name):
        try:
            for grad in grads[name]:
                threaded.push(0, name, {"w": grad})
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=stepper, args=(name,))
                   for name in initial]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for name in initial:
        assert threaded.version(name) == rounds
        np.testing.assert_array_equal(server_params(threaded, name)["w"],
                                      server_params(serial, name)["w"])


# -- bit-identity pins for the dense server path -----------------------------------

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "ps_pins.json")

#: ``fc2`` (320 x 320) spans two blocks, the second partial; ``fc1`` and the
#: head are one short trip each.
PIN_WIDTHS = (64, 320, 320)

#: name -> ``_factor_trainer`` arguments.
PIN_CASES = {
    **{f"{name}-P{workers}": dict(num_workers=workers, widths=PIN_WIDTHS, **case)
       for name, case in {
           "ps": dict(mode="ps"),
           "hierps": dict(mode="hierps"),
           "onebit": dict(mode="onebit"),
           "ps-topk0.1": dict(mode="ps", compressor="topk(0.1)"),
           "ps-ssp1": dict(mode="ps", policy="ssp(1)"),
           "ps-local_sgd2": dict(mode="ps", policy="local_sgd(2)"),
       }.items() for workers in (2, 3, 4)},
    "ps-P2-momentum-decay": dict(mode="ps", num_workers=2, widths=PIN_WIDTHS,
                                 momentum=0.9, weight_decay=1e-4),
}

RING_PINS_PATH = os.path.join(os.path.dirname(__file__), "data",
                              "ring_topk_pins.json")

#: The compressed ring: ``fc1`` and ``fc2`` are large enough for the sampled
#: top-k threshold, the head is not.
RING_PIN_CASES = {
    **{f"ring-topk0.1-P{workers}": dict(
        mode="ring", num_workers=workers, widths=PIN_WIDTHS,
        compressor="topk(0.1)") for workers in (2, 3, 4)},
    "ring-topk0.1-P2-momentum-decay": dict(
        mode="ring", num_workers=2, widths=PIN_WIDTHS, compressor="topk(0.1)",
        momentum=0.9, weight_decay=1e-4),
}


class TestServerStepBitIdentityPins:
    """Recorded on the parent of ISSUE 23, before any source changed.

    Folding, scaling and stepping a block at a time performs the parent's
    IEEE-754 operations in the parent's order on every element, so every
    per-step loss and every final parameter bit must survive it.
    """

    @pytest.fixture(scope="class")
    def pins(self):
        with open(PINS_PATH) as fh:
            return json.load(fh)["cases"]

    def test_every_case_is_pinned(self, pins):
        assert set(pins) == set(PIN_CASES)

    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_losses_and_final_parameters_are_bit_identical(self, pins, case):
        _check_pin(pins, PIN_CASES, case)


class TestRingTopKBitIdentityPins:
    """Recorded on the parent of the sparse top-k payload, before any
    source changed: the scatter-add fold adds the same values in the same
    worker order as the dense fold of the lossy arrays did."""

    @pytest.fixture(scope="class")
    def pins(self):
        with open(RING_PINS_PATH) as fh:
            return json.load(fh)["cases"]

    def test_every_case_is_pinned(self, pins):
        assert set(pins) == set(RING_PIN_CASES)

    @pytest.mark.parametrize("case", sorted(RING_PIN_CASES))
    def test_losses_and_final_parameters_are_bit_identical(self, pins, case):
        _check_pin(pins, RING_PIN_CASES, case)

    @pytest.mark.parametrize("workers", (2, 3))
    def test_an_unordered_schedule_ends_bit_identical(self, pins, workers):
        """Up to four syncer jobs per worker at once: each thread compresses
        through its own magnitude scratch, and the ring folds in worker
        order, so nothing moves."""
        case = f"ring-topk0.1-P{workers}"
        got = _pin_run(**RING_PIN_CASES[case], deterministic=False)
        assert got == pins[case]


def _check_pin(pins, cases, case):
    got = _pin_run(**cases[case])
    assert got == pins[case]
    assert set(got["schemes"].values()) == {cases[case]["mode"]}
    if "policy" not in cases[case]:     # BSP: one model everywhere
        assert len(set(got["digests"])) == 1


if __name__ == "__main__":  # re-record: PYTHONPATH=<tree>/src python tests/test_ps_step.py
    with open(PINS_PATH, "w") as fh:
        json.dump({
            "note": ("repr() of every per-step loss and a sha256 of each "
                     "replica's final parameters: build_mlp_network(64, (320, "
                     f"320), 10), batch 8, {PIN_ITERATIONS} iterations, "
                     "deterministic=True; recorded at the parent of ISSUE 23 "
                     "(commit ad049a9)"),
            "cases": {case: _pin_run(**kwargs)
                      for case, kwargs in sorted(PIN_CASES.items())},
        }, fh, indent=1)
        fh.write("\n")
    with open(RING_PINS_PATH, "w") as fh:
        json.dump({
            "note": ("repr() of every per-step loss and a sha256 of each "
                     "replica's final parameters: build_mlp_network(64, (320, "
                     f"320), 10), batch 8, {PIN_ITERATIONS} iterations, "
                     "deterministic=True; recorded at the parent of the "
                     "sparse top-k payload (commit 12c3155)"),
            "cases": {case: _pin_run(**kwargs)
                      for case, kwargs in sorted(RING_PIN_CASES.items())},
        }, fh, indent=1)
        fh.write("\n")
