"""Tests for cluster, training and system configuration objects."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import (
    ADAM_TF,
    CAFFE_PS,
    CAFFE_WFBP,
    CNTK_1BIT,
    POSEIDON_CAFFE,
    POSEIDON_TF,
    TESLA_K80,
    TF,
    TF_WFBP,
    TITAN_X,
    BandwidthPreset,
    ClusterConfig,
    GpuModel,
    Partitioning,
    ScheduleMode,
    SystemConfig,
    TrainingConfig,
)
from repro.core.policy import BSP
from repro.exceptions import ConfigurationError
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import get_model_spec
from repro.simulation import simulate_system


class TestBandwidthPreset:
    def test_values_in_gbps(self):
        assert BandwidthPreset.GBE_40.value == 40.0

    def test_a_preset_is_a_cluster_bandwidth(self):
        cluster = ClusterConfig(num_workers=2,
                                bandwidth_gbps=BandwidthPreset.GBE_10)
        assert cluster.bandwidth_bps == 10e9


class TestGpuModel:
    def test_compute_seconds(self):
        gpu = GpuModel(effective_flops=1e12)
        assert gpu.compute_seconds(2e12) == pytest.approx(2.0)

    def test_compute_seconds_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            TITAN_X.compute_seconds(-1)

    def test_k80_slower_than_titan(self):
        assert TESLA_K80.effective_flops < TITAN_X.effective_flops


class TestClusterConfig:
    def test_servers_default_to_workers(self):
        cluster = ClusterConfig(num_workers=6)
        assert cluster.num_servers == 6

    def test_explicit_server_count_preserved(self):
        cluster = ClusterConfig(num_workers=6, num_servers=2)
        assert cluster.num_servers == 2

    def test_effective_bandwidth_below_line_rate(self):
        cluster = ClusterConfig(num_workers=2, bandwidth_gbps=10)
        assert cluster.effective_bandwidth_bps < cluster.bandwidth_bps
        assert cluster.effective_bandwidth_bps == pytest.approx(
            10e9 * cluster.network_efficiency)

    def test_with_workers_updates_colocated_servers(self):
        cluster = ClusterConfig(num_workers=4)
        grown = cluster.with_workers(16)
        assert grown.num_workers == 16
        assert grown.num_servers == 16

    def test_with_workers_keeps_dedicated_servers(self):
        cluster = ClusterConfig(num_workers=4, num_servers=2, colocate_servers=False)
        grown = cluster.with_workers(8)
        assert grown.num_servers == 2

    def test_with_bandwidth(self):
        cluster = ClusterConfig(num_workers=4).with_bandwidth(10)
        assert cluster.bandwidth_gbps == 10

    def test_total_gpus(self):
        assert ClusterConfig(num_workers=4, gpus_per_node=8).total_gpus == 32

    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 0},
        {"num_workers": 2, "num_servers": 0},
        {"num_workers": 2, "bandwidth_gbps": 0},
        {"num_workers": 2, "gpus_per_node": 0},
        {"num_workers": 2, "network_efficiency": 0.0},
        {"num_workers": 2, "network_efficiency": 1.5},
        {"num_workers": 2, "racks": 0},
        {"num_workers": 2, "racks": 2, "oversubscription": 0.5},
    ])
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    @pytest.mark.parametrize("kwargs", [
        {"bandwidth_gbps": math.nan},
        {"latency_seconds": math.nan},
        {"latency_seconds": -1e-6},
        {"racks": 2, "oversubscription": math.nan},
        {"network_efficiency": math.nan},
    ], ids=["bandwidth nan", "latency nan", "latency negative",
            "oversubscription nan", "efficiency nan"])
    def test_nan_or_negative_network_fails_when_built(self, kwargs, engine):
        """Not mid-run (the DES's ``SimulationError``) and not as a free
        network (the fluid engine's alexnet speedup of exactly 4.0)."""
        with pytest.raises(ConfigurationError):
            simulate_system(get_model_spec("alexnet"), POSEIDON_CAFFE,
                            ClusterConfig(num_workers=4, **kwargs),
                            engine=engine)

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 4.0},
        {"num_workers": 2.5},
        {"num_servers": 2.5},
        {"num_servers": math.nan},
        {"gpus_per_node": 1.5},
        {"racks": 2.5, "oversubscription": 4.0},
        {"racks": math.nan, "oversubscription": 4.0},
        {"oversubscription": math.inf, "racks": 2},
        {"latency_seconds": math.inf},
        {"bandwidth_gbps": math.inf},
    ], ids=["workers float", "workers fractional", "servers fractional",
            "servers nan", "gpus fractional", "racks fractional",
            "racks nan", "oversubscription inf",
            "latency inf", "bandwidth inf"])
    def test_fractional_count_or_infinite_size_fails_when_built(self, kwargs,
                                                                engine):
        """Not as a bare ``TypeError`` mid-run, not as an infinite
        iteration, and not as two engines disagreeing (one raising, the
        other returning a number)."""
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            simulate_system(get_model_spec("alexnet"), POSEIDON_CAFFE,
                            ClusterConfig(**{"num_workers": 4, **kwargs}),
                            engine=engine)

    def test_numpy_integer_counts_are_valid(self):
        cluster = ClusterConfig(num_workers=np.int64(8), racks=np.int32(2),
                                gpus_per_node=np.int64(1))
        assert cluster.nodes_per_rack == 4

    @pytest.mark.parametrize("kwargs", [
        {"gpu": math.nan},
        {"colocate_servers": math.nan},
        {"colocate_servers": 2.5},
    ], ids=["gpu nan", "colocate nan", "colocate fractional"])
    def test_non_model_gpu_or_non_bool_placement_fails_when_built(self,
                                                                  kwargs):
        """Not mid-run (the DES's ``AttributeError`` on a float GPU), and
        not a NaN or 2.5 taken as true."""
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            ClusterConfig(num_workers=4, **kwargs)

    def test_numpy_bool_placement_is_valid(self):
        cluster = ClusterConfig(num_workers=4, num_servers=2,
                                colocate_servers=np.bool_(False))
        assert cluster.num_nodes == 6

    def test_nan_bandwidth_fails_in_a_sweep(self):
        """``sweep_axis`` builds each point with ``with_bandwidth``."""
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=4).with_bandwidth(math.nan)

    def test_zero_latency_is_valid(self):
        assert ClusterConfig(num_workers=2, latency_seconds=0.0).latency_seconds == 0.0


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"iterations": -1},
        # Not accepted and then trained silently to a NaN loss, or
        # rejected only later by the trainer's scheme choice:
        {"batch_size": 2.5},
        {"batch_size": 32.0},
        {"batch_size": math.nan},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"weight_decay": math.nan},
        {"weight_decay": math.inf},
        {"weight_decay": -0.1},
        {"iterations": 2.5},
        {"iterations": math.nan},
        {"seed": math.nan},
        {"seed": math.inf},
        {"seed": -math.inf},
        {"seed": -1},
        {"seed": 2.5},
    ])
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            TrainingConfig(**kwargs)

    def test_numpy_integer_counts_are_valid(self):
        config = TrainingConfig(batch_size=np.int64(8), iterations=np.int32(3),
                                seed=np.int64(7))
        assert (config.batch_size, config.iterations, config.seed) == (8, 3, 7)


WFBP, SEQUENTIAL = ScheduleMode.WFBP, ScheduleMode.SEQUENTIAL
FINE, COARSE = Partitioning.FINE, Partitioning.COARSE

#: Every preset's fields past ``overlap_host_copy``, as recorded before the
#: presets moved here (host-copy bandwidth, policy -- the recorded
#: ``staleness=0, sync_period=1`` pair -- straggler fraction and factor,
#: MTBF, checkpoint interval and cost, compressor, bucket bytes).
DEFAULT_TAIL = (16_000_000_000, BSP, 0.0, 1.0, None, None, 0.0, "none", None)

#: (system, (name, schedule, partitioning, comm, overlap_pull,
#: overlap_host_copy)) of the paper's eight systems and the seven compared
#: schemes, as recorded before the presets moved here.
RECORDED_SYSTEMS = (
    (CAFFE_PS, ("Caffe+PS", SEQUENTIAL, FINE, "ps", False, False)),
    (CAFFE_WFBP, ("Caffe+WFBP", WFBP, FINE, "ps", True, True)),
    (POSEIDON_CAFFE, ("Poseidon (Caffe)", WFBP, FINE, "hybrid", True, True)),
    (TF, ("TF", WFBP, COARSE, "ps", False, True)),
    (TF_WFBP, ("TF+WFBP", WFBP, FINE, "ps", True, True)),
    (POSEIDON_TF, ("Poseidon (TF)", WFBP, FINE, "hybrid", True, True)),
    (ADAM_TF, ("Adam", WFBP, COARSE, "adam", True, True)),
    (CNTK_1BIT, ("CNTK-1bit", SEQUENTIAL, FINE, "onebit", True, False)),
    *zip(backend_systems(), (
        ("PS", WFBP, FINE, "ps", True, True),
        ("SFB", WFBP, FINE, "sfb", True, True),
        ("HybComm", WFBP, FINE, "hybrid", True, True),
        ("1-bit PS", WFBP, FINE, "onebit", True, True),
        ("Adam", WFBP, FINE, "adam", True, True),
        ("Ring-AllReduce", WFBP, FINE, "ring", True, True),
        ("Hierarchical-PS", WFBP, FINE, "hierps", True, True),
    )),
)


class TestSystemConfig:
    def test_presets_are_the_recorded_values(self):
        assert len(backend_systems()) == 7
        for system, recorded in RECORDED_SYSTEMS:
            values = tuple(getattr(system, f.name) for f in fields(system))
            assert values == (*recorded, *DEFAULT_TAIL), system.name

    def test_has_fifteen_fields(self):
        names = [f.name for f in fields(SystemConfig)]
        assert len(names) == 15 and "policy" in names
        assert "staleness" not in names and "sync_period" not in names

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: replace(POSEIDON_CAFFE, straggler_factor=0.5),
                     id="straggler-factor-below-one"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, straggler_fraction=2.0),
                     id="straggler-fraction-above-one"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     host_copy_bandwidth_bps=0),
                     id="zero-host-copy-bandwidth"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, mtbf_seconds=-5.0),
                     id="negative-mtbf"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     checkpoint_cost_seconds=-1.0),
                     id="negative-checkpoint-cost"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     checkpoint_interval_seconds=0.0),
                     id="zero-checkpoint-interval"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, bucket_bytes=0),
                     id="zero-bucket-bytes"),
        # Infinite values used to build: checkpoint_cost_seconds=inf under
        # a 1 h MTBF priced 4-node alexnet as fault-free (0.2502 s/iter).
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     straggler_factor=math.inf),
                     id="infinite-straggler-factor"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, mtbf_seconds=math.inf),
                     id="infinite-mtbf"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     checkpoint_interval_seconds=math.inf),
                     id="infinite-checkpoint-interval"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     checkpoint_cost_seconds=math.inf),
                     id="infinite-checkpoint-cost"),
        pytest.param(lambda: replace(POSEIDON_CAFFE,
                                     host_copy_bandwidth_bps=math.inf),
                     id="infinite-host-copy-bandwidth"),
        # A checkpoint that outlasts the MTBF used to build, priced by the
        # overhead factor at 24.57x: a job that never completes one.
        pytest.param(lambda: POSEIDON_CAFFE.with_faults(
            mtbf_seconds=3600.0, checkpoint_cost_seconds=1e6),
                     id="checkpoint-cost-above-mtbf"),
        pytest.param(lambda: POSEIDON_CAFFE.with_faults(
            mtbf_seconds=3600.0, checkpoint_cost_seconds=3600.0),
                     id="checkpoint-cost-at-mtbf"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, compressor="topk("),
                     id="malformed-compressor"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, compressor="topk(0.01)"),
                     id="compressor-on-fine-partitioning"),
        pytest.param(lambda: replace(POSEIDON_CAFFE, policy="ssp(2)"),
                     id="policy-spec-not-parsed"),
        pytest.param(lambda: POSEIDON_CAFFE.with_policy("local_sgd(0)"),
                     id="local-sgd-period-zero"),
    ])
    def test_bad_system_fails_when_built(self, build):
        """A value no engine can run fails when it is built.  The field
        cases used to build, and the DES and the fluid engine then crashed
        on them, disagreed, or one of them ran them silently."""
        with pytest.raises(ConfigurationError):
            build()

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_checkpoint_outlasting_the_mtbf_builds_no_simulator(self, engine):
        """Both engines apply the overhead factor; neither is handed a
        system whose checkpoint never completes between failures."""
        from repro.simulation.fluid import FluidSimulator
        from repro.simulation.throughput import IterationSimulator
        from repro.simulation.workload import build_workload

        simulator = {"des": IterationSimulator,
                     "fluid": FluidSimulator}[engine]
        cluster = ClusterConfig(num_workers=4)
        workload = build_workload(get_model_spec("alexnet"), gpu=cluster.gpu)
        with pytest.raises(ConfigurationError, match="checkpoint_cost"):
            simulator(workload, cluster, POSEIDON_CAFFE.with_faults(
                mtbf_seconds=3600.0, checkpoint_cost_seconds=1e6))
        below = POSEIDON_CAFFE.with_faults(mtbf_seconds=3600.0,
                                           checkpoint_cost_seconds=5.0)
        assert math.isfinite(simulator(workload, cluster, below).run()
                             .iteration_seconds)
