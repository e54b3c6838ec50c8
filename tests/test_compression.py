"""Tests for the pluggable gradient-compression zoo.

Four layers of protection:

* the shared wire-size helper (:mod:`repro.comm.wire`): payload formulas
  for every compressor kind, the FC-only scope rule, spec parsing (and
  its rejection of malformed specs at construction time);
* compressor math (:mod:`repro.comm.compression`): top-k error feedback
  conserves gradient mass (residual = exactly the un-sent entries, a
  hypothesis property), PowerSGD's warm-started factors are deterministic, and every compressor's state
  round-trips through ``get_state``/``set_state`` -- including through a
  trainer checkpoint/restore cycle under fault injection;
* end-to-end wire-byte agreement: the trainer's measured per-layer
  ``bytes_sent``, the cost model's compression factor, and both
  simulation engines' traffic bookings all derive from the same
  ``repro.comm.wire`` formulas, pinned exactly for every (backend,
  compressor) pair;
* configuration validation: a compressor on a backend with no
  dense-gradient path (sfb, onebit, adam), the retired ``"onebit"``
  compressor spec (1-bit is a backend) and wire axes under fine
  partitioning raise ``ConfigurationError`` in the trainer and in both
  simulators.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import wire
from repro.comm.backend import check_compression, get_backend
from repro.comm.compression import (
    TOPK_SAMPLE,
    PowerSGDCompressor,
    TopKCompressor,
    _topk_indices,
    make_compressor,
)
from repro.comm.wire import CompressionConfig
from repro.config import (
    ClusterConfig,
    Partitioning,
    ScheduleMode,
    SystemConfig,
    TrainingConfig,
)
from repro.core.cost_model import CostModel
from repro.core.faults import CrashFault, FaultPlan
from repro.data import shard_dataset
from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import (
    build_mlp_network,
    build_transformer_network,
    get_model_spec,
)
from repro.nn.optim import (
    SGD,
    SparseGradient,
    fold_in_order,
    reduce_in_worker_order,
)
from repro.nn.spec import LayerKind
from repro.parallel import DistributedTrainer
from repro.simulation.fluid import FluidSimulator
from repro.simulation.plan import resolve_plan
from repro.simulation.throughput import IterationSimulator
from repro.simulation.workload import build_workload
from train_reference import make_linearly_separable

VGG = get_model_spec("vgg19")
NUM_WORKERS = 3
BATCH = 8

F32 = 4  # float32 bytes


# -- shared trainer fixture ----------------------------------------------------
@pytest.fixture
def setup():
    train_x, train_y, test_x, test_y = make_linearly_separable(
        num_train=180, num_test=60, input_dim=16, num_classes=4, seed=1)
    shards = shard_dataset(train_x, train_y, NUM_WORKERS, seed=2)
    config = TrainingConfig(batch_size=BATCH, learning_rate=0.05,
                            iterations=6, seed=5)

    def factory():
        return build_mlp_network(input_dim=16, hidden_dims=(32, 16),
                                 num_classes=4, seed=21)

    return factory, shards, config


def make_trainer(setup, mode, **kwargs):
    factory, shards, config = setup
    return DistributedTrainer(
        network_factory=factory,
        num_workers=NUM_WORKERS,
        train_shards=shards,
        training=config,
        mode=mode,
        schedule=ScheduleMode.WFBP,
        deterministic=True,
        **kwargs,
    )


def coarse_system(comm: str, compressor: str = "none",
                  bucket_bytes=None) -> SystemConfig:
    return SystemConfig(
        name="probe", comm=comm,
        schedule=ScheduleMode.WFBP, partitioning=Partitioning.COARSE,
        overlap_pull=True, overlap_host_copy=True,
    ).with_compression(compressor, bucket_bytes)


# -- wire formulas -------------------------------------------------------------
class TestWireFormulas:
    def test_sign_payload_ceil_divides(self):
        assert wire.sign_payload_bytes(8) == 1
        assert wire.sign_payload_bytes(9) == 2
        assert wire.sign_payload_bytes(0) == 0

    def test_topk_count_fraction_and_absolute(self):
        assert wire.topk_count(0.01, 1000) == 10
        assert wire.topk_count(0.0001, 1000) == 1      # floor of one entry
        assert wire.topk_count(50, 1000) == 50         # absolute count
        assert wire.topk_count(5000, 1000) == 1000     # clamped to elements
        with pytest.raises(ConfigurationError):
            wire.topk_count(0.5, 0)

    def test_topk_payload_is_index_value_pairs(self):
        assert wire.topk_payload_bytes(0.01, 100, 10) == 10 * wire.TOPK_ENTRY_BYTES

    def test_powersgd_payload_and_rank_clamp(self):
        assert wire.powersgd_rank(4, 100, 10) == 4
        assert wire.powersgd_rank(64, 100, 10) == 10   # clamped to min(m, n)
        assert wire.powersgd_payload_bytes(4, 100, 10) == (100 + 10) * 4 * F32

    def test_scope_rule_small_matrices_ship_dense(self):
        config = CompressionConfig.parse("topk(0.01)")
        assert not config.compresses(7, 9)             # 63 < 64 elements
        assert config.compresses(8, 8)
        assert config.weight_payload_bytes(7, 9) == 63 * F32

    def test_unit_wire_bytes_identity_and_dense(self):
        config = CompressionConfig.parse("topk(0.01)")
        assert wire.unit_wire_bytes(None, 1000) == 1000
        # No fc_dims: the unit is conv/bias-only and ships dense.
        assert wire.unit_wire_bytes(config, 1000) == 1000

    def test_unit_wire_bytes_fc_plus_dense_remainder(self):
        config = CompressionConfig.parse("powersgd(2)")
        m, n = 100, 50
        param_bytes = m * n * F32 + 200    # weight + 200 bytes of bias
        expected = config.weight_payload_bytes(m, n) + 200
        assert wire.unit_wire_bytes(config, param_bytes, (m, n)) == expected

    def test_unit_wire_bytes_sums_payload_parts(self):
        config = CompressionConfig.parse("topk(0.01)")
        parts = ((100 * 50 * F32, (100, 50)), (300, None))
        merged = wire.unit_wire_bytes(config, 100 * 50 * F32 + 300,
                                      fc_dims=None, payload_parts=parts)
        assert merged == (wire.unit_wire_bytes(config, 100 * 50 * F32, (100, 50))
                          + 300)

    @pytest.mark.parametrize("spec", [
        "gzip", "topk", "topk()", "topk(-1)", "topk(x)", "powersgd",
        "powersgd(0)", "powersgd(1.5)", "onebit(3)", "none(1)", "topk(0.1",
        "topk(nan)", "topk(NaN)", "topk(inf)", "topk(1e999)",
        "topk(2.5)",    # k >= 1 is a count: not silently truncated to 2
    ])
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigurationError):
            CompressionConfig.parse(spec)

    def test_parse_accepts_canonical_specs(self):
        assert CompressionConfig.parse(None).is_identity
        assert CompressionConfig.parse("none").is_identity
        assert CompressionConfig.parse("topk(0.01)").k == 0.01
        assert CompressionConfig.parse("powersgd(4)").rank == 4

    def test_compression_flops_zero_at_identity_and_out_of_scope(self):
        assert CompressionConfig.parse("none").compression_flops(100, 100) == 0.0
        assert CompressionConfig.parse("topk(0.1)").compression_flops(7, 9) == 0.0
        assert CompressionConfig.parse("topk(0.1)").compression_flops(10, 10) > 0.0


# -- compressor math -----------------------------------------------------------
def random_grads(seed: int, shape=(24, 16)):
    rng = np.random.default_rng(seed)
    return {
        "weight": rng.standard_normal(shape).astype(np.float32),
        "bias": rng.standard_normal(shape[1]).astype(np.float32),
    }


def reference_topk(grad, residual, k):
    """The pre-partition implementation: full stable argsort of ``-|x|``."""
    corrected = grad + residual
    flat = corrected.reshape(-1)
    keep = np.argsort(-np.abs(flat), kind="stable")[:wire.topk_count(k, flat.size)]
    lossy_flat = np.zeros_like(flat)
    lossy_flat[keep] = flat[keep]
    lossy = lossy_flat.reshape(corrected.shape).astype(grad.dtype)
    return keep, lossy, corrected - lossy


def dense(payload):
    """The zero-filled array a sparse payload stands for (a one-term fold)."""
    assert isinstance(payload, SparseGradient)
    return fold_in_order([payload])


class TestTopKCompressor:
    def test_error_feedback_conserves_mass(self):
        compressor = TopKCompressor(CompressionConfig.parse("topk(0.1)"))
        grads = random_grads(1)
        lossy, _ = compressor.compress("fc", grads)
        residual = compressor._residuals["fc/weight"]
        # Sent + residual == the full corrected gradient, elementwise.
        np.testing.assert_allclose(dense(lossy["weight"]) + residual,
                                   grads["weight"], rtol=0, atol=1e-7)

    def test_residual_reenters_next_iteration(self):
        compressor = TopKCompressor(CompressionConfig.parse("topk(1)"))
        grads = {"weight": np.arange(64, dtype=np.float32).reshape(8, 8)}
        compressor.compress("fc", grads)   # sends entry 63, zero residual there
        # Iteration 2's corrected gradient doubles every un-sent entry, so
        # entry 62 (62 + 62 = 124) overtakes the freshly-sent entry 63.
        lossy, _ = compressor.compress("fc", grads)
        assert lossy["weight"].indices.tolist() == [62]
        assert lossy["weight"].values.tolist() == [124.0]

    def test_bias_passes_through_dense(self):
        compressor = TopKCompressor(CompressionConfig.parse("topk(0.1)"))
        grads = random_grads(2)
        lossy, nbytes = compressor.compress("fc", grads)
        np.testing.assert_array_equal(lossy["bias"], grads["bias"])
        assert nbytes == (wire.topk_payload_bytes(0.1, 24, 16)
                          + grads["bias"].nbytes)

    def test_state_round_trips(self):
        a = TopKCompressor(CompressionConfig.parse("topk(0.1)"))
        b = TopKCompressor(CompressionConfig.parse("topk(0.1)"))
        a.compress("fc", random_grads(3))
        b.set_state(a.get_state())
        lossy_a, _ = a.compress("fc", random_grads(4))
        lossy_b, _ = b.compress("fc", random_grads(4))
        np.testing.assert_array_equal(lossy_a["weight"].indices,
                                      lossy_b["weight"].indices)
        np.testing.assert_array_equal(lossy_a["weight"].values,
                                      lossy_b["weight"].values)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([0.01, 0.1, 0.5, 3]))
    def test_error_feedback_property(self, seed, k):
        """Residual always equals the un-sent mass of the corrected gradient."""
        compressor = TopKCompressor(CompressionConfig.parse(f"topk({k})"))
        corrected = np.zeros((12, 8), dtype=np.float32)
        for step in range(3):
            grads = random_grads(seed + step, shape=(12, 8))
            corrected = corrected + grads["weight"]
            lossy, _ = compressor.compress("fc", grads)
            sent = dense(lossy["weight"])
            count = wire.topk_count(k, 96)
            assert int(np.count_nonzero(sent)) <= count
            residual = compressor._residuals["fc/weight"]
            np.testing.assert_allclose(sent + residual, corrected, atol=1e-5)
            corrected = residual

    @staticmethod
    def draw(kind, rng, shape, count):
        """One worker's gradient of the given kind."""
        if kind == "normal":
            return rng.standard_normal(shape).astype(np.float32)
        if kind == "ties":      # few distinct magnitudes, both signs
            return rng.integers(-2, 3, size=shape).astype(np.float32)
        # Both signs of zero everywhere else.
        grad = np.where(rng.random(shape) < 0.5, np.float32(-0.0),
                        np.float32(0.0))
        flat = grad.reshape(-1)
        if kind == "strided":   # large exactly where the sample looks
            flat[::flat.size // TOPK_SAMPLE | 1] = 100.0
            flat += rng.standard_normal(flat.size).astype(np.float32)
        elif kind == "sparse":  # fewer nonzeros than kept entries
            where = rng.choice(flat.size, count // 2, replace=False)
            flat[where] = rng.standard_normal(where.size)
        return grad

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           # the sampled threshold runs from 4096 elements; (257, 512)
           # spans three server blocks
           shape=st.sampled_from([(8, 8), (12, 8), (5, 31), (64, 16),
                                  (128, 512), (257, 512)]),
           # tiny fraction, the benchmark's 1 %, half, one entry, everything
           k=st.sampled_from([1e-4, 0.01, 0.5, 1.0, 10_000]),
           kind=st.sampled_from(["normal", "ties", "zeros", "strided",
                                 "sparse"]),
           workers=st.sampled_from([2, 3]))
    def test_matches_stable_argsort_reference(self, seed, shape, k, kind,
                                              workers):
        """Sampled selection == the stable argsort it replaced, bit for bit,
        and the payloads fold on the ring and in the server's blocked step
        exactly as the dense lossy arrays did, signed zeros included."""
        compressors = [TopKCompressor(CompressionConfig.parse(f"topk({k})"))
                       for _ in range(workers)]
        rng = np.random.default_rng(seed)
        count = wire.topk_count(k, shape[0] * shape[1])
        residuals = [np.zeros(shape, dtype=np.float32)] * workers
        for _ in range(3):
            payloads, wants = [], []
            for worker, compressor in enumerate(compressors):
                grad = self.draw(kind, rng, shape, count)
                lossy, _ = compressor.compress("fc", {"weight": grad})
                magnitudes = np.abs(grad + residuals[worker]).reshape(-1)
                want_keep, want_lossy, residuals[worker] = reference_topk(
                    grad, residuals[worker], k)
                payload = lossy["weight"]
                got_residual = compressor._residuals["fc/weight"]
                assert payload.indices.dtype == np.int32
                assert payload.values.dtype == got_residual.dtype == np.float32
                assert payload.indices.tolist() == sorted(want_keep.tolist())
                assert dense(payload).tobytes() == want_lossy.tobytes()
                assert got_residual.tobytes() == residuals[worker].tobytes()
                got_keep = _topk_indices(magnitudes, count)
                assert got_keep.tolist() == sorted(want_keep.tolist())
                payloads.append(payload)
                wants.append(want_lossy)
            folds = [reduce_in_worker_order(dict(enumerate(
                {"weight": grad} for grad in grads)), mean_divisor=workers)
                for grads in (payloads, wants)]
            assert folds[0]["weight"].tobytes() == folds[1]["weight"].tobytes()
            # -0.0 parameters show the sign of a zero step.
            params = [np.full(shape, -0.0, dtype=np.float32) for _ in range(2)]
            for param, grads in zip(params, (payloads, wants)):
                SGD(learning_rate=0.5).apply("fc/weight", param, grads,
                                             scale=1.0 / workers)
            assert params[0].tobytes() == params[1].tobytes()

    def test_a_strided_pattern_takes_the_fallback(self, monkeypatch):
        """Large magnitudes on every sampled position but too few of them:
        the sampled threshold keeps too few candidates, so the whole array
        is partitioned; a normal gradient is never partitioned whole."""
        sizes = []

        def spy(array, kth):
            sizes.append(array.size)
            return partition(array, kth)

        partition = np.partition
        monkeypatch.setattr(np, "partition", spy)
        rng = np.random.default_rng(0)
        for kind, whole in (("normal", False), ("strided", True)):
            sizes.clear()
            grad = self.draw(kind, rng, (128, 512), 655)
            TopKCompressor(CompressionConfig.parse("topk(0.01)")).compress(
                "fc", {"weight": grad})
            assert (128 * 512 in sizes) == whole

    def test_count_equal_to_size_keeps_everything(self):
        compressor = TopKCompressor(CompressionConfig.parse("topk(10000)"))
        grads = random_grads(7)
        lossy, _ = compressor.compress("fc", grads)
        np.testing.assert_array_equal(dense(lossy["weight"]), grads["weight"])
        assert not compressor._residuals["fc/weight"].any()

    def test_non_finite_magnitudes_fall_back_to_argsort(self):
        """NaNs defeat the threshold test, so the stable sort decides."""
        flat = np.arange(64, dtype=np.float32)
        flat[[3, 40]] = np.nan
        flat[10] = np.inf
        magnitudes = np.abs(flat)
        for count in (1, 2, 5, 64):
            want = np.argsort(-magnitudes, kind="stable")[:count]
            got = _topk_indices(magnitudes, count)
            assert sorted(got.tolist()) == sorted(want.tolist())
        # All-infinite thresholds need no fallback: ties go to the low index.
        np.testing.assert_array_equal(
            _topk_indices(np.full(8, np.inf, dtype=np.float32), 3), [0, 1, 2])


class TestPowerSGDCompressor:
    def test_lossy_is_rank_r(self):
        compressor = PowerSGDCompressor(CompressionConfig.parse("powersgd(2)"))
        lossy, nbytes = compressor.compress("fc", random_grads(30))
        assert np.linalg.matrix_rank(lossy["weight"]) <= 2
        assert nbytes == (wire.powersgd_payload_bytes(2, 24, 16)
                          + random_grads(30)["bias"].nbytes)

    def test_warm_start_is_deterministic(self):
        runs = []
        for _ in range(2):
            compressor = PowerSGDCompressor(
                CompressionConfig.parse("powersgd(2)"))
            for step in range(3):
                lossy, _ = compressor.compress("fc", random_grads(40 + step))
            runs.append(lossy["weight"])
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_state_round_trips(self):
        a = PowerSGDCompressor(CompressionConfig.parse("powersgd(2)"))
        b = PowerSGDCompressor(CompressionConfig.parse("powersgd(2)"))
        a.compress("fc", random_grads(50))
        b.set_state(a.get_state())
        lossy_a, _ = a.compress("fc", random_grads(51))
        lossy_b, _ = b.compress("fc", random_grads(51))
        np.testing.assert_array_equal(lossy_a["weight"], lossy_b["weight"])


class TestMakeCompressor:
    def test_identity_returns_none(self):
        assert make_compressor(None) is None
        assert make_compressor("none") is None

    def test_spec_round_trips(self):
        for spec in ("topk(0.01)", "topk(3)", "powersgd(4)"):
            assert make_compressor(spec).spec == spec
        for spec in ("topk(0.0123456789)", "topk(1234567)", "topk(1e-07)"):
            compressor = make_compressor(spec)
            assert make_compressor(compressor.spec).config == compressor.config

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_compressor("gzip")


# -- configuration validation --------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("mode", ["sfb", "onebit", "adam"])
    def test_trainer_rejects_compressor_on_non_dense_backend(self, setup, mode):
        with pytest.raises(ConfigurationError):
            make_trainer(setup, mode, compressor="topk(0.1)")

    def test_trainer_rejects_bad_bucket(self, setup):
        with pytest.raises(ConfigurationError):
            make_trainer(setup, "ps", bucket_bytes=0)

    @pytest.mark.parametrize("bucket_bytes", [2.5, float("nan"), float("inf")])
    def test_trainer_rejects_a_bucket_that_is_not_a_whole_byte_count(
            self, setup, bucket_bytes):
        with pytest.raises(ConfigurationError, match="bucket_bytes"):
            make_trainer(setup, "ps", bucket_bytes=bucket_bytes)

    @pytest.mark.parametrize("bucket_bytes", [2.5, float("nan"), float("inf")])
    def test_system_rejects_a_bucket_that_is_not_a_whole_byte_count(
            self, bucket_bytes):
        """The simulators would price 2.5 as 2-byte buckets and die on inf
        in ``bucket_workload``; the trainer already refuses both."""
        with pytest.raises(ConfigurationError, match="bucket_bytes"):
            coarse_system("ps", "topk(0.1)", bucket_bytes=bucket_bytes)
        assert coarse_system("ps", bucket_bytes=4096.0).bucket_bytes == 4096

    def test_trainer_takes_a_whole_float_bucket(self, setup):
        assert make_trainer(setup, "ps", bucket_bytes=4096.0).bucket_bytes == 4096

    def test_backend_compressible_registry(self):
        config = CompressionConfig.parse("topk(0.1)")
        assert get_backend("ps").supports_compression(config)
        assert get_backend("ring").supports_compression(config)
        assert not get_backend("onebit").supports_compression(config)
        assert not get_backend("sfb").supports_compression(config)
        # Identity is supported everywhere.
        identity = CompressionConfig.parse("none")
        assert get_backend("sfb").supports_compression(identity)

    def test_simulators_reject_compressor_under_fine_partitioning(self):
        fine = SystemConfig(
            name="probe", comm="ps",
            schedule=ScheduleMode.WFBP, partitioning=Partitioning.FINE,
            overlap_pull=True, overlap_host_copy=True,
        )
        # No simulator is reached: the system value refuses to exist.
        with pytest.raises(ConfigurationError, match="coarse partitioning"):
            fine.with_compression("topk(0.1)")
        with pytest.raises(ConfigurationError, match="coarse partitioning"):
            fine.with_compression(bucket_bytes=1 << 20)

    def test_simulators_reject_compressor_on_non_dense_backend(self):
        system = coarse_system("sfb", "topk(0.1)")
        with pytest.raises(ConfigurationError, match="dense-gradient path"):
            check_compression(system.comm, system.compressor)
        cluster = ClusterConfig(num_workers=4, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        with pytest.raises(ConfigurationError, match="dense-gradient path"):
            IterationSimulator(workload, cluster, system)
        with pytest.raises(ConfigurationError, match="dense-gradient path"):
            FluidSimulator(workload, cluster, system)

    def test_parse_refuses_onebit(self):
        """1-bit is the ``onebit`` backend, not a compressor spec."""
        with pytest.raises(ConfigurationError, match="unknown compressor"):
            CompressionConfig.parse("onebit")
        with pytest.raises(ConfigurationError):
            make_compressor("onebit")

    @pytest.mark.parametrize("mode", ["ps", "ring", "hybrid"])
    def test_trainer_refuses_onebit_compressor(self, setup, mode):
        with pytest.raises(ConfigurationError, match="unknown compressor"):
            make_trainer(setup, mode, compressor="onebit")

    def test_resolve_plan_refuses_onebit_compressor(self):
        cluster = ClusterConfig(num_workers=4, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        # The coarse PS system value already refuses to exist, so no plan
        # (and no engine) is ever built for it.
        with pytest.raises(ConfigurationError, match="unknown compressor"):
            resolve_plan(workload, coarse_system("ps", "onebit"), cluster)

    def test_validate_identity_returns_none(self):
        assert check_compression("ps", "none") is None
        config = check_compression("ps", "topk(0.1)")
        assert config is not None and config.kind == "topk"


# -- end-to-end wire-byte agreement --------------------------------------------
class TestTrainerWireBytes:
    """Trainer-measured bytes == the shared wire formulas, per layer."""

    @pytest.mark.parametrize("spec", ["topk(0.1)", "powersgd(2)"])
    def test_ps_bytes_sent_match_formula(self, setup, spec):
        config = CompressionConfig.parse(spec)
        trainer = make_trainer(setup, "ps", compressor=spec)
        iterations = 4
        trainer.train(iterations)
        network = setup[0]()
        for layer in network.layers:
            if not layer.has_parameters:
                continue
            expected_per_iter = sum(
                config.weight_payload_bytes(*param.shape)
                if param.ndim == 2 and param.size >= wire.MIN_COMPRESS_ELEMENTS
                else int(param.nbytes)
                for param in layer.params.values())
            for worker in range(NUM_WORKERS):
                syncer = trainer._workers[worker].syncers[layer.name]
                assert syncer.stats.bytes_sent == iterations * expected_per_iter

    def test_ring_bytes_sent_match_formula(self, setup):
        config = CompressionConfig.parse("topk(0.1)")
        trainer = make_trainer(setup, "ring", compressor="topk(0.1)")
        iterations = 4
        trainer.train(iterations)
        network = setup[0]()
        ring_factor = 2 * (NUM_WORKERS - 1) / NUM_WORKERS
        for layer in network.layers:
            if not layer.has_parameters:
                continue
            payload = sum(
                config.weight_payload_bytes(*param.shape)
                if param.ndim == 2 and param.size >= wire.MIN_COMPRESS_ELEMENTS
                else int(param.nbytes)
                for param in layer.params.values())
            expected_per_iter = int(payload * ring_factor)
            syncer = trainer._workers[0].syncers[layer.name]
            assert syncer.stats.bytes_sent == iterations * expected_per_iter

    def test_compressed_losses_agree_across_backends(self, setup):
        """The lossy math is substrate-independent: ps == ring == hybrid."""
        losses = {}
        for mode in ("ps", "ring", "hybrid"):
            trainer = make_trainer(setup, mode, compressor="topk(0.1)")
            losses[mode] = trainer.train(4).losses
        assert losses["ps"] == losses["ring"] == losses["hybrid"]


class TestTransformerWireBytes:
    """A float32 transformer books float32 bytes: trainer == wire formula.

    The model, batch and ring/top-k/bucket settings are the repo
    benchmark's ``train_gpt_ring_topk`` workload.  A float64 gradient
    anywhere (see the dtype contract in docs/architecture.md) would put
    its dense remainder on the wire at 8 bytes/element and break this.
    """

    WORKERS = 2
    ITERATIONS = 2

    @staticmethod
    def factory():
        return build_transformer_network(vocab_size=512, block_size=32,
                                         n_embd=128, num_heads=4, num_blocks=2,
                                         num_classes=10)

    @staticmethod
    def provider(iteration, worker):
        rng = np.random.default_rng(100 * iteration + worker)
        return rng.integers(0, 512, size=(8, 32)), rng.integers(0, 10, size=8)

    def formula_bytes_per_iteration(self, spec):
        config = CompressionConfig.parse(spec)
        ring_factor = 2 * (self.WORKERS - 1) / self.WORKERS
        per_worker = 0
        for _, layer in self.factory().parameter_layers():
            parts = tuple((int(p.nbytes), p.shape if p.ndim == 2 else None)
                          for p in layer.params.values())
            unit = wire.unit_wire_bytes(config, sum(b for b, _ in parts),
                                        payload_parts=parts)
            per_worker += int(unit * ring_factor)
        return per_worker * self.WORKERS * 2   # sent + received

    @pytest.mark.parametrize("bucket_bytes", [None, 262144])
    @pytest.mark.parametrize("spec", ["none", "topk(0.01)"])
    def test_ring_total_bytes_match_wire_formula(self, spec, bucket_bytes):
        config = TrainingConfig(batch_size=8, learning_rate=0.01,
                                iterations=self.ITERATIONS, seed=0)
        trainer = DistributedTrainer(
            self.factory, self.WORKERS, None, config, mode="ring",
            batch_provider=self.provider, deterministic=True,
            compressor=spec, bucket_bytes=bucket_bytes)
        history = trainer.train(self.ITERATIONS)
        assert history.total_bytes == (
            self.ITERATIONS * self.formula_bytes_per_iteration(spec))

    def test_ring_topk_payloads_are_the_priced_bytes(self):
        """What the compressor hands the ring is what the wire prices: an
        index/value payload of ``topk_payload_bytes`` per in-scope weight."""
        config = TrainingConfig(batch_size=8, learning_rate=0.01,
                                iterations=1, seed=0)
        trainer = DistributedTrainer(
            self.factory, self.WORKERS, None, config, mode="ring",
            batch_provider=self.provider, deterministic=True,
            compressor="topk(0.01)", bucket_bytes=262144)
        sent = []
        for runtime in trainer._workers:
            compressor = runtime.resources.compressor

            def recording(layer, grads, compress=compressor.compress):
                lossy, nbytes = compress(layer, grads)
                sent.extend((f"{layer}/{name}", payload)
                            for name, payload in lossy.items())
                return lossy, nbytes
            compressor.compress = recording
        trainer.train(1)
        shapes = {f"{layer.name}/{name}": param.shape
                  for _, layer in self.factory().parameter_layers()
                  for name, param in layer.params.items()}
        assert (sorted(key for key, _ in sent)
                == sorted(list(shapes) * self.WORKERS))
        sparse = 0
        for key, payload in sent:
            shape = shapes[key]
            if len(shape) == 2 and shape[0] * shape[1] >= 64:
                assert isinstance(payload, SparseGradient)
                assert payload.nbytes == wire.topk_payload_bytes(0.01, *shape)
                sparse += 1
            else:
                assert isinstance(payload, np.ndarray)
        assert sparse == 11 * self.WORKERS

    def test_benchmark_model_topk_bytes_pinned(self):
        assert self.formula_bytes_per_iteration("topk(0.01)") == 206_016


class TestCostModelAgreement:
    """Cost-model compression factors derive from the same wire formulas."""

    def test_ps_factor_is_push_compressed_pull_dense(self):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        config = CompressionConfig.parse("topk(0.01)")
        plain = CostModel(cluster, batch_size=32)
        compressed = CostModel(cluster, batch_size=32, compression="topk(0.01)")
        for layer in VGG.layers:
            if layer.kind is not LayerKind.FC:
                continue
            m, n = layer.fc_dims
            base = plain.scheme_cost_params(layer, "ps")
            got = compressed.scheme_cost_params(layer, "ps")
            expected = base * (1.0 + config.weight_ratio(m, n)) / 2.0
            assert got == pytest.approx(expected)

    def test_ring_factor_is_wire_ratio(self):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        config = CompressionConfig.parse("powersgd(4)")
        plain = CostModel(cluster, batch_size=32)
        compressed = CostModel(cluster, batch_size=32,
                               compression="powersgd(4)")
        for layer in VGG.layers:
            if layer.kind is not LayerKind.FC:
                continue
            m, n = layer.fc_dims
            base = plain.scheme_cost_params(layer, "ring")
            got = compressed.scheme_cost_params(layer, "ring")
            assert got == pytest.approx(base * config.weight_ratio(m, n))

    def test_best_scheme_never_considers_compression(self):
        """Algorithm 1 routes on dense bytes; compression is orthogonal."""
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        plain = CostModel(cluster, batch_size=32)
        compressed = CostModel(cluster, batch_size=32, compression="topk(0.01)")
        for layer in VGG.layers:
            assert (plain.best_scheme(layer)
                    == compressed.best_scheme(layer))


class TestSimulatorAgreement:
    """DES and fluid book identical traffic for every compressor."""

    @pytest.mark.parametrize("comm", ["ps", "ring"])
    @pytest.mark.parametrize("spec", ["none", "topk(0.01)", "powersgd(4)"])
    def test_des_and_fluid_traffic_exactly_equal(self, comm, spec):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        system = coarse_system(comm, spec)
        des = IterationSimulator(workload, cluster, system).run()
        fluid = FluidSimulator(workload, cluster, system).run()
        assert des.mean_traffic_gbits == pytest.approx(
            fluid.mean_traffic_gbits, rel=1e-12)

    def test_compression_shrinks_traffic_and_time(self):
        cluster = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        dense = IterationSimulator(
            workload, cluster, coarse_system("ring")).run()
        sparse = IterationSimulator(
            workload, cluster,
            coarse_system("ring", "topk(0.01)")).run()
        assert sparse.mean_traffic_gbits < dense.mean_traffic_gbits / 4
        assert sparse.iteration_seconds < dense.iteration_seconds

    def test_des_traffic_matches_wire_formula(self):
        """The booked PS push bytes are exactly unit_wire_bytes per unit."""
        cluster = ClusterConfig(num_workers=4, bandwidth_gbps=10.0)
        workload = build_workload(VGG, gpu=cluster.gpu)
        config = CompressionConfig.parse("topk(0.01)")
        sim = IterationSimulator(workload, cluster,
                                 coarse_system("ps", "topk(0.01)"))
        for unit in sim.workload.units:
            push, pull = sim.plan.by_name[unit.name].phases
            expected = wire.unit_wire_bytes(config, unit.param_bytes,
                                            unit.fc_dims, unit.payload_parts)
            assert push.nbytes == expected
            # Pulls stay dense under every pluggable compressor.
            assert pull.nbytes == unit.param_bytes


# -- compressor state through checkpoint/restore -------------------------------
class TestCheckpointedCompressorState:
    def test_state_survives_crash_recovery(self, setup):
        """A crash + restore run matches an undisturbed run bit-for-bit.

        Only true because compressor state (error-feedback residuals,
        PowerSGD factors) joins the checkpoint; without it the restored
        replica would re-lose mass the residuals already carried.
        """
        baseline = make_trainer(setup, "ps", compressor="topk(0.1)")
        baseline_history = baseline.train(6)
        plan = FaultPlan(crashes=(CrashFault(worker_id=1, iteration=3),))
        faulted = make_trainer(setup, "ps", compressor="topk(0.1)",
                               fault_plan=plan, recovery="restart",
                               checkpoint_interval=2)
        faulted_history = faulted.train(6)
        assert faulted_history.losses[-1] == pytest.approx(
            baseline_history.losses[-1])
        base_state = baseline.replica(0).get_state()
        fault_state = faulted.replica(0).get_state()
        assert base_state.keys() == fault_state.keys()
        for layer, params in base_state.items():
            for name, value in params.items():
                np.testing.assert_array_equal(
                    fault_state[layer][name], value,
                    err_msg=f"{layer}/{name} diverged after recovery")

    def test_checkpoint_carries_compressor_states(self, setup):
        trainer = make_trainer(setup, "ps", compressor="powersgd(2)",
                               checkpoint_interval=2, recovery="restart",
                               fault_plan=FaultPlan())
        trainer.train(4)
        ckpt = trainer._checkpoint
        assert ckpt is not None
        assert len(ckpt.compressor_states) == NUM_WORKERS
        for state in ckpt.compressor_states:
            assert state["qs"]            # warm factors were checkpointed
            assert state["residuals"]
