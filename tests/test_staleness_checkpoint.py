"""Tests for the SSP extension and parameter-server checkpointing."""

import threading
import time

import numpy as np
import pytest

from repro.comm.parameter_server import ShardedParameterServer
from repro.core.staleness import SSPClock
from repro.exceptions import CommunicationError, TrainingError
from repro.nn.optim import SGD
from train_reference import server_params


class TestSSPClock:
    def test_bsp_is_staleness_zero(self):
        clock = SSPClock(num_workers=2, staleness=0)
        released = []

        def fast_worker():
            clock.advance(0, timeout=5.0)
            released.append(time.monotonic())

        thread = threading.Thread(target=fast_worker)
        start = time.monotonic()
        thread.start()
        time.sleep(0.1)
        clock.advance(1, timeout=5.0)
        thread.join(timeout=5.0)
        # Worker 0 could not pass clock 1 until worker 1 reached it.
        assert released[0] - start >= 0.09

    def test_staleness_allows_running_ahead(self):
        clock = SSPClock(num_workers=2, staleness=2)
        # Worker 0 advances twice without worker 1 moving at all.
        assert clock.advance(0, timeout=1.0) == 1
        assert clock.advance(0, timeout=1.0) == 2
        assert clock.snapshot() == {0: 2, 1: 0}

    def test_advance_blocks_beyond_bound(self):
        clock = SSPClock(num_workers=2, staleness=1)
        clock.advance(0, timeout=1.0)
        with pytest.raises(TrainingError):
            clock.advance(0, timeout=0.05)

    def test_min_clock_and_snapshot(self):
        clock = SSPClock(num_workers=3, staleness=5)
        clock.advance(1)
        clock.advance(1)
        clock.advance(2)
        assert clock.min_clock() == 0
        assert clock.snapshot() == {0: 0, 1: 2, 2: 1}

    def test_invalid_arguments(self):
        with pytest.raises(TrainingError):
            SSPClock(num_workers=0)
        with pytest.raises(TrainingError):
            SSPClock(num_workers=2, staleness=-1)
        clock = SSPClock(num_workers=2)
        with pytest.raises(TrainingError):
            clock.clock(5)


class TestParameterServerCheckpoint:
    @pytest.fixture
    def server(self):
        params = {"fc": {"weight": np.ones((4, 3), dtype=np.float32),
                         "bias": np.zeros((3,), dtype=np.float32)}}
        return ShardedParameterServer(params, num_workers=1,
                                      optimizer=SGD(learning_rate=0.5))

    def test_checkpoint_then_restore_recovers_state(self, server):
        snapshot = server.checkpoint()
        grad = {"weight": np.ones((4, 3)), "bias": np.ones(3)}
        server.push(0, "fc", grad)
        assert server.version("fc") == 1
        server.restore(snapshot)
        assert server.version("fc") == 0
        np.testing.assert_allclose(server_params(server, "fc")["weight"], 1.0)

    def test_checkpoint_is_a_deep_copy(self, server):
        snapshot = server.checkpoint()
        snapshot["fc"]["weight"][:] = 99.0
        np.testing.assert_allclose(server_params(server, "fc")["weight"], 1.0)

    def test_restore_preserves_version(self, server):
        server.push(0, "fc", {"weight": np.ones((4, 3)), "bias": np.zeros(3)})
        snapshot = server.checkpoint()
        server.push(0, "fc", {"weight": np.ones((4, 3)), "bias": np.zeros(3)})
        assert server.version("fc") == 2
        server.restore(snapshot)
        assert server.version("fc") == 1

    def test_restore_validates_layers_and_shapes(self, server):
        with pytest.raises(CommunicationError):
            server.restore({"nope": {"weight": np.zeros((4, 3))}})
        with pytest.raises(CommunicationError):
            server.restore({"fc": {"weight": np.zeros((2, 2))}})
        with pytest.raises(CommunicationError):
            server.restore({"fc": {"gamma": np.zeros((4, 3))}})

    def test_training_can_resume_after_restore(self, server):
        snapshot = server.checkpoint()
        grad = {"weight": np.full((4, 3), 2.0), "bias": np.zeros(3)}
        server.push(0, "fc", grad)
        server.restore(snapshot)
        # A fresh iteration (version 1 again) applies cleanly after restore.
        server.push(0, "fc", grad)
        params = server.pull(0, "fc", min_version=1)
        np.testing.assert_allclose(params["weight"], 1.0 - 0.5 * 2.0)
