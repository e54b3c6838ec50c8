"""Checkpoint/restore round-trips for every stateful synchronization substrate.

The paper's KV store "will regularly checkpoint current parameter states
for fault tolerance"; these tests pin that every substrate's snapshot is a
faithful deep copy -- restoring it reproduces the exact pre-snapshot state
(parameters, versions, and server-side optimizer velocities) regardless of
what happened in between -- for the flat PS, the hierarchical PS, the Adam
SF server, the parameter averager, and the stateless collectives (whose
contract is an *empty* snapshot plus a board-clearing restore).
"""

import numpy as np
import pytest

from repro.comm.adam import AdamSFServer
from repro.comm.averaging import ParameterAverager
from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.quantization import OneBitQuantizer
from repro.config import TrainingConfig
from repro.data import shard_dataset
from repro.nn.model_zoo import build_mlp_network
from repro.nn.optim import SGD
from repro.parallel import DistributedTrainer
from train_reference import make_linearly_separable

NUM_WORKERS = 3


def assert_nested_equal(actual, expected):
    """Bit-exact comparison of nested {layer: {param: array}} snapshots."""
    assert actual.keys() == expected.keys()
    for layer, params in expected.items():
        assert actual[layer].keys() == params.keys()
        for key, value in params.items():
            np.testing.assert_array_equal(actual[layer][key], value,
                                          err_msg=f"{layer}/{key}")


def _perturbed(snapshot):
    """A structurally identical snapshot with every float array shifted."""
    out = {}
    for layer, params in snapshot.items():
        out[layer] = {}
        for key, value in params.items():
            array = np.array(value, copy=True)
            if np.issubdtype(array.dtype, np.floating):
                array += 1.0
            out[layer][key] = array
    return out


def _make_trainer(mode):
    train_x, train_y, _, _ = make_linearly_separable(
        num_train=96, num_test=32, input_dim=16, num_classes=4, seed=7)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    return DistributedTrainer(
        network_factory=lambda: build_mlp_network(
            input_dim=16, hidden_dims=(32, 16), num_classes=4, seed=21),
        num_workers=NUM_WORKERS,
        train_shards=shards,
        training=TrainingConfig(batch_size=8, learning_rate=0.05,
                                iterations=4, seed=5),
        mode=mode,
        deterministic=True,
    )


class TestFlatParameterServer:
    def _server(self):
        params = {"fc": {"W": np.arange(6, dtype=np.float64).reshape(2, 3),
                         "b": np.zeros(3)}}
        return ShardedParameterServer(
            params, num_workers=1,
            optimizer=SGD(learning_rate=0.1, momentum=0.9))

    def test_round_trip_restores_params_versions_and_optimizer(self):
        ps = self._server()
        grad = {"W": np.ones((2, 3)), "b": np.ones(3)}
        ps.push(0, "fc", grad)  # single worker: applies immediately
        snap = ps.checkpoint(include_optimizer=True)
        assert "__optimizer__" in snap
        assert snap["fc"]["__version__"] == 1
        momentum_before = ps.optimizer.get_state()

        # Diverge: another full iteration moves params, version and
        # momentum velocities.
        ps.push(0, "fc", grad)
        assert not np.array_equal(
            ps.checkpoint()["fc"]["W"], snap["fc"]["W"])

        ps.restore(snap)
        assert_nested_equal(ps.checkpoint(include_optimizer=True), snap)
        pulled = ps.pull(0, "fc", min_version=1)
        np.testing.assert_array_equal(pulled["W"], snap["fc"]["W"])
        for key, velocity in ps.optimizer.get_state().items():
            np.testing.assert_array_equal(velocity, momentum_before[key])

    def test_restore_replays_identically(self):
        """Restoring and replaying the same push reproduces the same state."""
        ps = self._server()
        grad = {"W": np.full((2, 3), 0.5), "b": np.full(3, 0.25)}
        ps.push(0, "fc", grad)
        snap = ps.checkpoint(include_optimizer=True)
        ps.push(0, "fc", grad)
        after = ps.checkpoint(include_optimizer=True)
        ps.restore(snap)
        ps.push(0, "fc", grad)
        assert_nested_equal(ps.checkpoint(include_optimizer=True), after)

    def test_restore_rejects_unknown_layers_and_shapes(self):
        from repro.exceptions import CommunicationError

        ps = self._server()
        with pytest.raises(CommunicationError):
            ps.restore({"ghost": {"W": np.zeros((2, 3))}})
        with pytest.raises(CommunicationError):
            ps.restore({"fc": {"W": np.zeros((5, 5))}})


class TestAdamSFServer:
    def test_round_trip_includes_optimizer_by_default(self):
        server = AdamSFServer(
            {"fc": {"W": np.arange(4, dtype=np.float64).reshape(2, 2)}},
            num_workers=2, optimizer=SGD(learning_rate=0.1, momentum=0.9))
        snap = server.checkpoint()
        assert "__optimizer__" in snap
        server.restore(_perturbed(snap))
        assert not np.array_equal(server.checkpoint()["fc"]["W"],
                                  snap["fc"]["W"])
        server.restore(snap)
        assert_nested_equal(server.checkpoint(), snap)


class TestParameterAverager:
    def test_checkpoint_is_empty_and_restore_clears_rounds(self):
        averager = ParameterAverager(num_workers=1)
        assert averager.checkpoint() == {}
        result = averager.average(0, "fc", 0, {"W": np.ones(3)})
        np.testing.assert_array_equal(result["W"], np.ones(3))
        averager.restore({})  # idempotent on a quiet board

    def test_remove_worker_renormalizes_to_survivor_mean(self):
        averager = ParameterAverager(num_workers=2)
        averager.remove_worker(1)
        result = averager.average(0, "fc", 0, {"W": np.full(3, 2.0)})
        # Mean over the single survivor, not /2 with a ghost zero.
        np.testing.assert_array_equal(result["W"], np.full(3, 2.0))


class TestQuantizerState:
    def test_error_feedback_residuals_round_trip(self):
        quantizer = OneBitQuantizer()
        rng = np.random.default_rng(3)
        grad = rng.normal(size=(16, 8))
        quantizer.quantize("fc/W", grad)
        state = quantizer.get_state()
        # A different gradient moves the error-feedback residuals on.
        quantizer.quantize("fc/W", grad * 0.3 + 0.1)
        drifted = quantizer.get_state()
        assert any(not np.array_equal(drifted[k], state[k]) for k in state)
        quantizer.set_state(state)
        restored = quantizer.get_state()
        assert restored.keys() == state.keys()
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])


class TestTrainerSubstrates:
    """Round-trips through real substrates built and warmed by the trainer."""

    @pytest.mark.parametrize("mode,scheme", [
        ("ps", "ps"),
        ("onebit", "onebit"),
        ("adam", "adam"),
        ("hierps", "hierps"),
    ])
    def test_stateful_substrates_round_trip_after_training(self, mode, scheme):
        trainer = _make_trainer(mode)
        trainer.train(2)
        substrate = trainer.substrate(scheme)
        snap = substrate.checkpoint(include_optimizer=True)
        substrate.restore(_perturbed(snap))
        substrate.restore(snap)
        assert_nested_equal(substrate.checkpoint(include_optimizer=True), snap)

    @pytest.mark.parametrize("mode,scheme", [
        ("ring", "ring"),
        ("sfb", "sfb"),
    ])
    def test_stateless_collectives_snapshot_empty(self, mode, scheme):
        trainer = _make_trainer(mode)
        trainer.train(2)
        substrate = trainer.substrate(scheme)
        assert substrate.checkpoint() == {}
        # Every substrate takes the optimizer flag, stateless or not.
        assert substrate.checkpoint(include_optimizer=True) == {}
        substrate.restore({})  # clears the board without raising

    @pytest.mark.parametrize("mode", ["ps", "ring", "sfb"])
    def test_checkpoint_type_error_is_not_swallowed(self, mode, monkeypatch):
        """A TypeError raised *inside* a substrate's checkpoint used to be
        caught as "takes no optimizer flag" and retried without it --
        silently dropping server-side momentum from the snapshot."""
        trainer = _make_trainer(mode)
        substrate = trainer.substrate(mode)
        calls = []

        def broken(include_optimizer=False):
            calls.append(include_optimizer)
            raise TypeError("bug inside the substrate")

        monkeypatch.setattr(substrate, "checkpoint", broken)
        with pytest.raises(TypeError, match="bug inside the substrate"):
            trainer._take_checkpoint(0)
        assert calls == [True]  # asked once, with the optimizer; no retry
