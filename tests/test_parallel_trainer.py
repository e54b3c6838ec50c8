"""Tests for the functional distributed trainer and the serial references."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ScheduleMode, TrainingConfig
from repro.data import shard_dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.model_zoo import build_mlp_network
from repro.parallel import (
    DistributedTrainer,
    assign_schemes,
    simulate_synchronous_sgd,
)
from train_reference import make_linearly_separable, replica_states_close


NUM_WORKERS = 3
BATCH = 8


def deterministic_provider(shards, batch=BATCH):
    """A batch provider shared by distributed and serial-emulation runs."""
    def provider(iteration, worker):
        rng = np.random.default_rng(10_000 + iteration * 31 + worker)
        images, labels = shards[worker]
        indices = rng.choice(images.shape[0], size=batch, replace=False)
        return images[indices], labels[indices]
    return provider


@pytest.fixture
def setup():
    train_x, train_y, test_x, test_y = make_linearly_separable(
        num_train=180, num_test=60, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    config = TrainingConfig(batch_size=BATCH, learning_rate=0.05, iterations=6, seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16), num_classes=4,
                                 seed=21)

    return factory, shards, config, (test_x, test_y)


def make_trainer(setup, mode, schedule=ScheduleMode.WFBP, provider=None, **kwargs):
    factory, shards, config, test_data = setup
    return DistributedTrainer(
        network_factory=factory,
        num_workers=NUM_WORKERS,
        train_shards=shards,
        training=config,
        mode=mode,
        schedule=schedule,
        test_data=test_data,
        batch_provider=provider,
        **kwargs,
    )


class TestSchemeAssignment:
    FOUR = ClusterConfig(num_workers=4)
    def test_ps_mode_assigns_ps_everywhere(self, setup):
        factory = setup[0]
        assignment = assign_schemes(factory(), "ps", self.FOUR, 32)
        assert all(s == "ps" for s in assignment.schemes.values())

    def test_sfb_mode_assigns_sfb_to_dense(self, setup):
        factory = setup[0]
        assignment = assign_schemes(factory(), "sfb", self.FOUR, 32)
        assert assignment.sfb_layers  # every Dense layer
        assert set(assignment.sfb_layers) == set(assignment.schemes)

    def test_hybrid_prefers_ps_for_small_layers(self, setup):
        factory = setup[0]
        assignment = assign_schemes(factory(), "hybrid", self.FOUR, 32)
        # These layers are tiny (32x16 etc.); PS should win everywhere.
        assert assignment.sfb_layers == []

    def test_hybrid_prefers_sfb_for_wide_layer_and_small_batch(self):
        network = build_mlp_network(input_dim=2048, hidden_dims=(2048,),
                                    num_classes=1000, seed=0)
        assignment = assign_schemes(network, "hybrid",
                                    ClusterConfig(num_workers=8), batch_size=4)
        assert "fc1" in assignment.sfb_layers

    def test_unknown_mode_rejected(self, setup):
        factory = setup[0]
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            assign_schemes(factory(), "carrier-pigeon", self.FOUR, 8)


class TestDistributedTraining:
    @pytest.mark.parametrize("mode", ["ps", "sfb", "hybrid", "adam", "onebit"])
    def test_all_modes_train_and_stay_consistent(self, setup, mode):
        trainer = make_trainer(setup, mode)
        history = trainer.train(4)
        assert len(history.losses) == 4
        assert np.isfinite(history.losses).all()
        assert replica_states_close(trainer)

    def test_exact_modes_agree_with_each_other(self, setup):
        """PS, SFB, hybrid and Adam all perform exact synchronization."""
        provider = deterministic_provider(setup[1])
        final_losses = {}
        for mode in ("ps", "sfb", "adam"):
            trainer = make_trainer(setup, mode, provider=provider)
            history = trainer.train(5)
            final_losses[mode] = history.losses
        np.testing.assert_allclose(final_losses["ps"], final_losses["sfb"], atol=1e-4)
        np.testing.assert_allclose(final_losses["ps"], final_losses["adam"], atol=1e-4)

    def test_distributed_ps_matches_serial_emulation(self, setup):
        factory, shards, config, _ = setup
        provider = deterministic_provider(shards)
        trainer = make_trainer(setup, "ps", provider=provider)
        history = trainer.train(5)

        reference = factory()
        serial_losses = simulate_synchronous_sgd(
            reference, provider, NUM_WORKERS, 5, config)
        np.testing.assert_allclose(history.losses, serial_losses, atol=1e-4)
        replica_state = trainer.replica(0).get_state()
        reference_state = reference.get_state()
        for layer in reference_state:
            for key in reference_state[layer]:
                np.testing.assert_allclose(replica_state[layer][key],
                                           reference_state[layer][key], atol=1e-4)

    def test_sequential_schedule_produces_same_result_as_wfbp(self, setup):
        provider = deterministic_provider(setup[1])
        wfbp = make_trainer(setup, "ps", schedule=ScheduleMode.WFBP,
                            provider=provider).train(4)
        seq = make_trainer(setup, "ps", schedule=ScheduleMode.SEQUENTIAL,
                           provider=provider).train(4)
        np.testing.assert_allclose(wfbp.losses, seq.losses, atol=1e-5)

    def test_loss_decreases_over_training(self, setup):
        trainer = make_trainer(setup, "hybrid")
        history = trainer.train(30)
        early = np.mean(history.losses[:5])
        late = np.mean(history.losses[-5:])
        assert late < early

    def test_eval_records_test_error(self, setup):
        trainer = make_trainer(setup, "ps", eval_every=2)
        history = trainer.train(4)
        assert len(history.test_errors) == 2
        assert all(0.0 <= err <= 1.0 for _, err in history.test_errors)

    def test_onebit_uses_fewer_bytes_than_ps(self, setup):
        provider = deterministic_provider(setup[1])
        ps_history = make_trainer(setup, "ps", provider=provider).train(3)
        onebit_history = make_trainer(setup, "onebit", provider=provider).train(3)
        assert onebit_history.bytes_sent < ps_history.bytes_sent

    def test_zero_iterations_is_a_noop(self, setup):
        history = make_trainer(setup, "ps").train(0)
        assert history.losses == []

    @pytest.mark.parametrize("schedule", list(ScheduleMode))
    def test_second_train_call_raises_before_any_thread_starts(
            self, setup, schedule, monkeypatch):
        trainer = make_trainer(setup, "ps", schedule=schedule)
        first = trainer.train(2)
        state = trainer.replica(0).get_state()

        def no_attempt(*_args, **_kwargs):
            raise AssertionError("a retired trainer must not start workers")

        monkeypatch.setattr(trainer, "_run_attempt", no_attempt)
        with pytest.raises(TrainingError, match="already run"):
            trainer.train(2)
        assert len(first.losses) == 2
        for layer, params in trainer.replica(0).get_state().items():
            for key, value in params.items():
                np.testing.assert_array_equal(value, state[layer][key])

    def test_history_metadata(self, setup):
        history = make_trainer(setup, "hybrid").train(2)
        assert history.mode == "hybrid"
        assert history.num_workers == NUM_WORKERS
        assert history.iterations == 2
        assert history.total_bytes == history.bytes_sent + history.bytes_received

    def test_invalid_configurations_rejected(self, setup):
        factory, shards, config, _ = setup
        with pytest.raises(ConfigurationError):
            DistributedTrainer(factory, 0, shards, config)
        with pytest.raises(TrainingError):
            DistributedTrainer(factory, 2, shards, config)  # 3 shards for 2 workers
        with pytest.raises(TrainingError):
            DistributedTrainer(factory, 3, None, config)

    @pytest.mark.parametrize("num_workers", [2.5, 0, -1])
    def test_worker_count_must_be_whole_and_positive(self, setup, num_workers):
        """Refused like every cluster count: ``int()`` used to truncate 2.5
        to a 2-worker trainer, and 0 raised a ``TrainingError``."""
        factory, shards, config, _ = setup
        with pytest.raises(ConfigurationError, match="num_workers"):
            DistributedTrainer(factory, num_workers, None, config,
                               batch_provider=lambda step, worker: shards[0])

    @pytest.mark.parametrize("sync_timeout", [0, -1, float("nan"), float("inf")])
    def test_sync_timeout_must_be_finite_and_positive(self, setup, sync_timeout):
        """Rejected at construction, not as a misleading "timed out" later."""
        with pytest.raises(ConfigurationError, match="sync_timeout"):
            make_trainer(setup, "ps", sync_timeout=sync_timeout)

    @pytest.mark.parametrize("knob,value", [
        ("eval_every", 2.5), ("checkpoint_interval", 1.5),
        ("retry_limit", 2.7), ("num_servers", 1.5), ("eval_every", -3),
        ("retry_backoff", float("nan"))])
    def test_counts_must_be_whole_and_backoff_finite(self, setup, knob, value):
        """Refused at construction: ``int()`` used to truncate the
        fractional counts, and a negative ``eval_every`` or a NaN backoff
        went through."""
        with pytest.raises(ConfigurationError, match=knob):
            make_trainer(setup, "ps", **{knob: value})


class TestReplicasStartEqual:
    @pytest.mark.parametrize("mode", ["ps", "sfb", "ring"])
    def test_replicas_that_differ_are_rejected(self, setup, mode):
        """A factory seeding each replica differently fails construction.

        Server-free substrates would never reconcile such replicas, and
        under a parameter server iteration 0 would train on different
        weights before the first pull hid it.
        """
        _, shards, config, _ = setup
        seeds = iter(range(21, 30))

        def factory():
            return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                     num_classes=4, seed=next(seeds))

        with pytest.raises(TrainingError, match=r"worker 1's .*fc1\.weight"):
            DistributedTrainer(factory, NUM_WORKERS, shards, config, mode=mode)

    def test_one_differing_scalar_names_its_worker_layer_and_parameter(self, setup):
        base, shards, config, _ = setup
        built = []

        def factory():
            network = base()
            if len(built) == 2:
                network.layer_by_name("classifier").params["bias"][3] += 1e-7
            built.append(network)
            return network

        with pytest.raises(TrainingError,
                           match=r"worker 2's .*classifier\.bias differs"):
            DistributedTrainer(factory, NUM_WORKERS, shards, config, mode="ps")


class TestConstructionMemory:
    """A trainer holds each parameter tensor once per replica and server.

    ``P`` replicas plus, under a parameter server, the server's copy --
    no float64 twin from the initialisers, no zero-gradient buffers and no
    intermediate snapshot of the reference replica on the way in.
    """

    @pytest.mark.parametrize("mode, server_copies", [("ps", 1), ("hybrid", 0)])
    def test_construction_peak_is_the_copies_it_keeps(self, mode, server_copies):
        import gc
        import tracemalloc

        workers = 2

        def factory():
            return build_mlp_network(512, (512, 512), 10)

        config = TrainingConfig(batch_size=32, learning_rate=0.01, seed=0)
        batch = (np.zeros((32, 512), np.float32), np.zeros(32, np.int64))

        def build():
            return DistributedTrainer(factory, workers, None, config, mode=mode,
                                      batch_provider=lambda _i, _w: batch,
                                      deterministic=True)

        build()                   # the first build loads the substrate modules
        gc.collect()
        param_bytes = sum(value.nbytes for _, layer in factory().parameter_layers()
                          for value in layer.params.values())
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copies = workers + server_copies
        assert peak <= copies * param_bytes * 1.05, peak / param_bytes
