"""Tests for scaling sweeps, convergence models and engine descriptors."""

from dataclasses import replace

import pytest

from repro.config import (
    CAFFE_PS,
    CAFFE_WFBP,
    POSEIDON_CAFFE,
    POSEIDON_TF,
    TF,
    ClusterConfig,
    Partitioning,
    ScheduleMode,
)
from repro.exceptions import ConfigurationError
from repro.simulation.convergence import (
    RESNET152_FINAL_ERROR,
    epochs_to_error,
    resnet152_error_curve,
    time_to_error_hours,
)
from repro.simulation.speedup import compare_systems, scaling_curve


class TestScalingCurve:
    def test_curve_records_every_node_count(self, googlenet_spec):
        curve = scaling_curve(googlenet_spec, POSEIDON_CAFFE, node_counts=(1, 2, 4))
        assert curve.node_counts == [1, 2, 4]
        assert len(curve.speedups) == 3
        assert len(curve.results) == 3

    def test_speedup_at_unknown_node_count_raises(self, googlenet_spec):
        curve = scaling_curve(googlenet_spec, POSEIDON_CAFFE, node_counts=(1, 2))
        with pytest.raises(KeyError):
            curve.speedup_at(64)

    def test_compare_systems_keys(self, googlenet_spec):
        curves = compare_systems(googlenet_spec, (CAFFE_PS, POSEIDON_CAFFE),
                                 node_counts=(1, 4))
        assert set(curves) == {"Caffe+PS", "Poseidon (Caffe)"}

    def test_base_cluster_override(self, vgg19_spec):
        base = ClusterConfig(num_workers=1, network_efficiency=1.0)
        curve = scaling_curve(vgg19_spec, CAFFE_WFBP, node_counts=(1, 8),
                              bandwidth_gbps=10.0, base_cluster=base)
        default = scaling_curve(vgg19_spec, CAFFE_WFBP, node_counts=(1, 8),
                                bandwidth_gbps=10.0)
        assert curve.speedup_at(8) >= default.speedup_at(8)


class TestConvergenceModel:
    def test_error_decreases_with_epochs(self):
        curve = resnet152_error_curve(num_nodes=16, epochs=100)
        assert curve.errors[0] > curve.errors[-1]
        assert all(curve.errors[i] >= curve.errors[i + 1] - 1e-9
                   for i in range(len(curve.errors) - 1))

    def test_reaches_paper_error_within_budget(self):
        """16 and 32 nodes reach ~0.24 error in under 90 epochs (Figure 9b)."""
        for nodes in (16, 32):
            epochs = epochs_to_error(nodes, target_error=0.25)
            assert epochs is not None
            assert epochs < 90

    def test_final_error_close_to_paper(self):
        curve = resnet152_error_curve(num_nodes=16, epochs=120)
        assert curve.final_error == pytest.approx(RESNET152_FINAL_ERROR, abs=0.02)

    def test_larger_clusters_slightly_slower_per_epoch(self):
        """Very large effective batches converge a bit slower per epoch."""
        small = resnet152_error_curve(num_nodes=8, epochs=60)
        huge = resnet152_error_curve(num_nodes=128, epochs=60)
        assert huge.final_error >= small.final_error

    def test_epochs_to_reach(self):
        curve = resnet152_error_curve(num_nodes=8, epochs=100)
        assert curve.errors[curve.epochs.index(0)] > 0.9
        assert curve.epochs_to_reach(2.0) == 0

    def test_time_to_error_decreases_with_more_nodes(self):
        hours_8 = time_to_error_hours(8, iteration_seconds=1.8)
        hours_32 = time_to_error_hours(32, iteration_seconds=1.8)
        assert hours_32 < hours_8

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            resnet152_error_curve(num_nodes=0)
        with pytest.raises(ConfigurationError):
            resnet152_error_curve(num_nodes=4, epochs=0)


class TestSystemDescriptors:
    def test_poseidon_uses_hybrid_and_wfbp(self):
        assert POSEIDON_CAFFE.comm == "hybrid"
        assert POSEIDON_CAFFE.schedule is ScheduleMode.WFBP
        assert POSEIDON_CAFFE.partitioning is Partitioning.FINE

    def test_tf_baseline_is_coarse_without_pull_overlap(self):
        assert TF.partitioning is Partitioning.COARSE
        assert TF.overlap_pull is False

    def test_caffe_ps_does_not_overlap_host_copies(self):
        assert CAFFE_PS.overlap_host_copy is False
        assert CAFFE_PS.schedule is ScheduleMode.SEQUENTIAL

    def test_replace_returns_modified_copies(self):
        modified = replace(POSEIDON_CAFFE, comm="ps")
        assert modified.comm == "ps"
        assert POSEIDON_CAFFE.comm == "hybrid"
        renamed = replace(POSEIDON_CAFFE, name="x")
        assert renamed.name == "x"
        rescheduled = replace(POSEIDON_CAFFE, schedule=ScheduleMode.SEQUENTIAL)
        assert rescheduled.schedule is ScheduleMode.SEQUENTIAL
        repartitioned = replace(POSEIDON_CAFFE,
                                partitioning=Partitioning.COARSE)
        assert repartitioned.partitioning is Partitioning.COARSE
