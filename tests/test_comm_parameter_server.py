"""Tests for the functional bulk-synchronous parameter server."""

import threading

import numpy as np
import pytest

from repro.comm.parameter_server import ShardedParameterServer
from repro.exceptions import CommunicationError
from repro.nn.optim import SGD
from train_reference import server_params


@pytest.fixture
def initial_params():
    return {
        "fc1": {"weight": np.ones((4, 3), dtype=np.float32),
                "bias": np.zeros((3,), dtype=np.float32)},
        "fc2": {"weight": np.full((3, 2), 2.0, dtype=np.float32)},
    }


def make_server(initial_params, num_workers=2, aggregation="mean", lr=0.1):
    return ShardedParameterServer(
        initial_params, num_workers=num_workers,
        optimizer=SGD(learning_rate=lr), aggregation=aggregation)


class TestPushPull:
    def test_update_applied_after_all_workers_push(self, initial_params):
        server = make_server(initial_params, num_workers=2)
        grad = {"weight": np.ones((4, 3)), "bias": np.ones((3,))}
        server.push(0, "fc1", grad)
        assert server.version("fc1") == 0
        server.push(1, "fc1", grad)
        assert server.version("fc1") == 1

    def test_mean_aggregation_matches_manual_sgd(self, initial_params):
        server = make_server(initial_params, num_workers=2, aggregation="mean", lr=0.1)
        server.push(0, "fc1", {"weight": np.full((4, 3), 2.0), "bias": np.zeros(3)})
        server.push(1, "fc1", {"weight": np.full((4, 3), 4.0), "bias": np.zeros(3)})
        params = server.pull(0, "fc1", min_version=1)
        # mean gradient = 3.0, lr = 0.1 -> weight = 1 - 0.3
        np.testing.assert_allclose(params["weight"], 0.7, rtol=1e-6)

    def test_sum_aggregation(self, initial_params):
        server = make_server(initial_params, num_workers=2, aggregation="sum", lr=0.1)
        server.push(0, "fc1", {"weight": np.full((4, 3), 2.0), "bias": np.zeros(3)})
        server.push(1, "fc1", {"weight": np.full((4, 3), 4.0), "bias": np.zeros(3)})
        params = server.pull(0, "fc1", min_version=1)
        np.testing.assert_allclose(params["weight"], 1.0 - 0.6, rtol=1e-6)

    def test_pull_returns_copy(self, initial_params):
        server = make_server(initial_params, num_workers=1)
        server.push(0, "fc2", {"weight": np.zeros((3, 2))})
        params = server.pull(0, "fc2", min_version=1)
        params["weight"][:] = 99.0
        fresh = server_params(server, "fc2")
        assert not np.allclose(fresh["weight"], 99.0)

    def test_pull_blocks_until_version(self, initial_params):
        server = make_server(initial_params, num_workers=2)
        results = {}

        def puller():
            results["params"] = server.pull(0, "fc1", min_version=1, timeout=5.0)

        thread = threading.Thread(target=puller)
        thread.start()
        grad = {"weight": np.ones((4, 3)), "bias": np.zeros(3)}
        server.push(0, "fc1", grad)
        server.push(1, "fc1", grad)
        thread.join(timeout=5.0)
        assert "params" in results

    def test_pull_timeout_raises(self, initial_params):
        server = make_server(initial_params, num_workers=2)
        with pytest.raises(CommunicationError):
            server.pull(0, "fc1", min_version=1, timeout=0.05)

    def test_byte_metering(self, initial_params):
        server = make_server(initial_params, num_workers=1)
        grad = {"weight": np.ones((4, 3), dtype=np.float32),
                "bias": np.zeros(3, dtype=np.float32)}
        pushed = server.push(0, "fc1", grad)
        assert pushed == 4 * 3 * 4 + 3 * 4
        server.pull(0, "fc1", min_version=1)
        assert server.meter.received == pushed
        assert server.meter.sent == pushed

    def test_explicit_nbytes_override(self, initial_params):
        """1-bit pushes report compressed wire sizes while carrying dense data."""
        server = make_server(initial_params, num_workers=1)
        grad = {"weight": np.ones((4, 3)), "bias": np.zeros(3)}
        pushed = server.push(0, "fc1", grad, nbytes=10)
        assert pushed == 10
        assert server.meter.received == 10


class TestValidation:
    def test_unknown_layer_rejected(self, initial_params):
        server = make_server(initial_params)
        with pytest.raises(CommunicationError):
            server.push(0, "nope", {"weight": np.zeros((1, 1))})
        with pytest.raises(CommunicationError):
            server.pull(0, "nope", min_version=0)

    def test_unknown_parameter_rejected(self, initial_params):
        server = make_server(initial_params)
        with pytest.raises(CommunicationError):
            server.push(0, "fc1", {"gamma": np.zeros((4, 3))})

    def test_gradient_shape_mismatch_rejected(self, initial_params):
        server = make_server(initial_params)
        with pytest.raises(CommunicationError):
            server.push(0, "fc1", {"weight": np.zeros((2, 2))})

    def test_too_many_pushes_rejected(self, initial_params):
        server = make_server(initial_params, num_workers=2)
        grad = {"weight": np.zeros((4, 3)), "bias": np.zeros(3)}
        server.push(0, "fc1", grad)
        server.push(1, "fc1", grad)   # triggers apply, resets pending
        server.push(0, "fc1", grad)
        server.push(1, "fc1", grad)
        assert server.version("fc1") == 2

    def test_invalid_configuration(self, initial_params):
        with pytest.raises(CommunicationError):
            ShardedParameterServer(initial_params, num_workers=0)
        with pytest.raises(CommunicationError):
            ShardedParameterServer(initial_params, num_workers=1, aggregation="max")

    def test_concurrent_pushes_from_threads(self, initial_params):
        server = make_server(initial_params, num_workers=4)
        grad = {"weight": np.ones((4, 3)), "bias": np.zeros(3)}
        threads = [
            threading.Thread(target=server.push, args=(w, "fc1", grad))
            for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert server.version("fc1") == 1


class TestDroppedWorker:
    @pytest.mark.parametrize("ordered", [False, True], ids=["arrival", "ordered"])
    def test_buffered_gradient_of_a_dropped_worker_is_discarded(self, ordered):
        """A ghost contribution used to survive in arrival-order mode: the
        version completed one push early with it folded in (-50.5) and the
        last survivor's gradient leaked into the next version."""
        server = ShardedParameterServer(
            {"fc": {"w": np.zeros(4, dtype=np.float32)}}, num_workers=3,
            optimizer=SGD(learning_rate=1.0), ordered=ordered)
        server.push(2, "fc", {"w": np.full(4, 100.0, dtype=np.float32)})
        server.remove_worker(2)
        server.push(0, "fc", {"w": np.full(4, 1.0, dtype=np.float32)})
        assert server.version("fc") == 0        # still waiting for worker 1
        np.testing.assert_array_equal(server_params(server, "fc")["w"], 0.0)
        server.push(1, "fc", {"w": np.full(4, 3.0, dtype=np.float32)})
        assert server.version("fc") == 1
        np.testing.assert_array_equal(server_params(server, "fc")["w"], -2.0)
        server.push(0, "fc", {"w": np.full(4, 1.0, dtype=np.float32)})
        assert server.version("fc") == 1        # nothing leaked into version 2

    def test_survivors_complete_the_version_when_the_straggler_is_dropped(self):
        server = ShardedParameterServer(
            {"fc": {"w": np.zeros(4, dtype=np.float32)}}, num_workers=3,
            optimizer=SGD(learning_rate=1.0))
        server.push(0, "fc", {"w": np.full(4, 1.0, dtype=np.float32)})
        server.push(1, "fc", {"w": np.full(4, 3.0, dtype=np.float32)})
        server.remove_worker(2)
        assert server.version("fc") == 1
        np.testing.assert_array_equal(server_params(server, "fc")["w"], -2.0)
