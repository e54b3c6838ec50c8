"""Tests for cluster, training and system configuration objects."""

import math
import re
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
from repro.comm.wire import TOPK_KEEP, CompressionConfig
from repro.core.policy import BSP, POLICY_KINDS, SyncPolicy
from repro.domains import (AT_LEAST_ONE, BOOL, COUNT, COUNT0, FRACTION,
                           NONNEGATIVE, POSITIVE, WHOLE, fraction, instance,
                           one_of, optional)
from repro.exceptions import ConfigurationError
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import get_model_spec


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


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.batch_size == 32


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
    ])
    def test_bad_system_fails_when_built(self, build):
        """A rule across fields, or the compressor's grammar, refuses the
        value when it is built (each field's own domain is
        :class:`TestFieldDomains`'s)."""
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


#: Draws at every domain's edges: NaN, both infinities, -1, 0, 0.5, 1 and
#: the whole float 1.0, 2.5, a bool, strings (two enums' own spellings among
#: them) and None.
DRAWS = (math.nan, math.inf, -math.inf, -1, 0, 0.5, 1, 1.0, 2.5, True, "10",
         ScheduleMode.WFBP.value, Partitioning.FINE.value, None)

#: In-domain boundary draws: numpy ints and bools, zero, a whole float.
IN_BOUNDS = (0, 1.0, np.int64(0), np.int32(1), np.bool_(False),
             np.bool_(True))

#: Each domain and the draws it accepts (every other draw it refuses).
DOMAIN_CASES = [
    (COUNT, (1, np.int64(1))),
    (COUNT0, (0, 1, np.int32(0))),
    (WHOLE, (1, 1.0, 4096.0, np.int64(1))),
    (POSITIVE, (0.5, 1, 1.0, 2.5, np.float64(1e-300))),
    (NONNEGATIVE, (0, 0.5, 1, 1.0, 2.5)),
    (AT_LEAST_ONE, (1, 1.0, 2.5, np.float64(1.0))),
    (FRACTION, (0, 0.5, 1, 1.0)),
    (fraction(low_open=True), (0.5, 1, 1.0)),
    (fraction(high_open=True), (0, 0.5)),
    (BOOL, (True, False, np.bool_(False))),
    (instance(str), ("10", "wfbp", "fine")),
    (instance(ScheduleMode), (ScheduleMode.WFBP,)),
    (optional(COUNT), (None, 1)),
    (one_of(*POLICY_KINDS), ("bsp", "local_sgd")),
    (TOPK_KEEP, (0.5, 1, 1.0, np.int64(1))),
]

#: Each field's domain, stated apart from its declaration: re-declaring
#: ``momentum`` as a closed fraction or ``batch_size`` as a whole float
#: fails here, and so does a new field that this table does not name.
EXPECTED = {
    "GpuModel.name": instance(str),
    "GpuModel.effective_flops": POSITIVE,
    "GpuModel.memory_bytes": POSITIVE,
    "GpuModel.pcie_bandwidth_bps": POSITIVE,
    "ClusterConfig.num_workers": COUNT,
    "ClusterConfig.num_servers": optional(COUNT),
    "ClusterConfig.bandwidth_gbps": POSITIVE,
    "ClusterConfig.gpus_per_node": COUNT,
    "ClusterConfig.gpu": instance(GpuModel),
    "ClusterConfig.colocate_servers": BOOL,
    "ClusterConfig.latency_seconds": NONNEGATIVE,  # 0: an ideal network
    "ClusterConfig.network_efficiency": fraction(low_open=True),
    "ClusterConfig.racks": COUNT,
    "ClusterConfig.oversubscription": AT_LEAST_ONE,
    "TrainingConfig.batch_size": COUNT,
    "TrainingConfig.learning_rate": POSITIVE,
    "TrainingConfig.momentum": fraction(high_open=True),
    "TrainingConfig.weight_decay": NONNEGATIVE,
    "TrainingConfig.iterations": COUNT0,           # 0: train() returns
    "TrainingConfig.seed": COUNT0,
    "SystemConfig.name": instance(str),
    "SystemConfig.schedule": instance(ScheduleMode),
    "SystemConfig.partitioning": instance(Partitioning),
    "SystemConfig.comm": instance(str),
    "SystemConfig.overlap_pull": BOOL,
    "SystemConfig.overlap_host_copy": BOOL,
    "SystemConfig.host_copy_bandwidth_bps": POSITIVE,
    "SystemConfig.policy": instance(SyncPolicy),
    "SystemConfig.straggler_fraction": FRACTION,
    "SystemConfig.straggler_factor": AT_LEAST_ONE,
    "SystemConfig.mtbf_seconds": optional(POSITIVE),
    "SystemConfig.checkpoint_interval_seconds": optional(POSITIVE),
    "SystemConfig.checkpoint_cost_seconds": NONNEGATIVE,
    "SystemConfig.compressor": instance(str),
    "SystemConfig.bucket_bytes": optional(WHOLE),
    "SyncPolicy.kind": one_of(*POLICY_KINDS),
    "SyncPolicy.staleness": COUNT0,                # 0: ssp(0) is BSP
    "SyncPolicy.sync_period": COUNT,
    "CompressionConfig.kind": one_of("none", "topk", "powersgd"),
    "CompressionConfig.k": optional(TOPK_KEEP),
    "CompressionConfig.rank": optional(COUNT),
}

#: Each checked class and a valid base its fields are drawn over.
CHECKED = [
    (GpuModel, {}),
    (ClusterConfig, {"num_workers": 4}),
    (TrainingConfig, {}),
    # Coarse: a bucket is refused on fine partitioning.
    (SystemConfig, {f.name: getattr(TF, f.name) for f in fields(TF)}),
    (SyncPolicy, {"kind": "ssp", "staleness": 1}),
    (CompressionConfig, {"kind": "topk", "k": 0.01}),
]


#: A field whose draws need another base than its class's.
BASE_FOR = {"CompressionConfig.rank": {"kind": "powersgd", "rank": 4}}

#: Every field of the checked classes, with its valid base.
FIELDS = [(cls, BASE_FOR.get(f"{cls.__name__}.{each.name}", base), each)
          for cls, base in CHECKED for each in fields(cls)]
FIELD_IDS = [f"{cls.__name__}.{each.name}" for cls, _, each in FIELDS]


def _domain(cls, each):
    """The field's expected domain, which it must declare; a field without
    a declared or an expected domain fails."""
    declared = each.metadata.get("domain")
    expected = EXPECTED.get(f"{cls.__name__}.{each.name}")
    assert declared is not None and expected is not None, each.name
    assert declared.rule == expected.rule, each.name
    return expected


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or a != a and b != b)


class TestFieldDomains:
    """Each config field declares its domain once, and one checker holds
    every construction to it."""

    @pytest.mark.parametrize("domain,accepted", DOMAIN_CASES,
                             ids=[domain.rule for domain, _ in DOMAIN_CASES])
    def test_each_domain_accepts_exactly(self, domain, accepted):
        """A bool is not a number and a string is no enum member."""
        for draw in accepted:
            assert domain.check(draw), (domain.rule, draw)
        for draw in DRAWS:
            if not any(_same(draw, value) for value in accepted):
                assert not domain.check(draw), (domain.rule, draw)

    @pytest.mark.parametrize("cls,base,each", FIELDS, ids=FIELD_IDS)
    def test_out_of_domain_fails_naming_the_field(self, cls, base, each):
        """Out of its domain a field fails at construction, naming itself:
        never a bare ``TypeError``, never a value that builds and runs as
        something else (``schedule="wfbp"`` used to build and run as
        sequential)."""
        domain = _domain(cls, each)
        for draw in DRAWS:
            if not domain.check(draw):
                with pytest.raises(ConfigurationError, match=re.escape(
                        f"{cls.__name__}.{each.name} must be")):
                    cls(**{**base, each.name: draw})

    @pytest.mark.parametrize("cls,base,each", FIELDS, ids=FIELD_IDS)
    def test_in_domain_boundaries_build(self, cls, base, each):
        domain = _domain(cls, each)
        for draw in IN_BOUNDS:
            if domain.check(draw):
                built = cls(**{**base, each.name: draw})
                assert getattr(built, each.name) is draw

    def test_boundaries_keep_their_meaning(self):
        """numpy counts count and a numpy False is false downstream; the
        zeros that look like holes build: an ideal network, a ``train()``
        that returns at once, and ssp(0), which is BSP."""
        assert ClusterConfig(num_workers=np.int64(8), racks=np.int32(2),
                             gpus_per_node=np.int64(1)).nodes_per_rack == 4
        assert ClusterConfig(num_workers=4, num_servers=2,
                             colocate_servers=np.bool_(False)).num_nodes == 6
        assert ClusterConfig(num_workers=2,
                             latency_seconds=0).latency_seconds == 0
        assert TrainingConfig(iterations=0).iterations == 0
        assert SyncPolicy(kind="ssp", staleness=0).is_bsp_equivalent
