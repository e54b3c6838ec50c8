"""Tests for workload derivation (calibration, coarsening, unit ordering)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import POSEIDON_CAFFE, TITAN_X, ClusterConfig
from repro.exceptions import ConfigurationError
from repro.nn.model_zoo import get_model_spec
from repro.simulation import simulate_system
from repro.simulation.workload import build_workload


class TestCalibration:
    def test_single_node_time_matches_reported_throughput(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        # 32 images at 35.5 img/s.
        assert workload.single_node_seconds == pytest.approx(32 / 35.5, rel=1e-6)

    def test_compute_seconds_equals_single_node_seconds(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        assert workload.compute_seconds == pytest.approx(
            workload.single_node_seconds, rel=1e-6)

    def test_forward_faster_than_backward(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        assert workload.forward_seconds < workload.backward_seconds

    def test_batch_size_scales_compute(self, vgg19_spec):
        full = build_workload(vgg19_spec, batch_size=32)
        half = build_workload(vgg19_spec, batch_size=16)
        assert half.single_node_seconds == pytest.approx(
            full.single_node_seconds / 2, rel=1e-6)

    def test_uncalibrated_model_uses_gpu_flops(self):
        spec = get_model_spec("mlp")
        workload = build_workload(spec, batch_size=64, gpu=TITAN_X)
        expected = 64 * spec.flops_per_sample / TITAN_X.effective_flops
        assert workload.single_node_seconds == pytest.approx(expected, rel=1e-6)

    def test_invalid_batch_rejected(self, vgg19_spec):
        # Not priced as a truncated batch (2.5 as 2), which the trainer
        # would reject, and not a bare ``ValueError`` from ``int()``.
        for batch in (0, 2.5, 32.0, math.nan):
            with pytest.raises(ConfigurationError, match="batch_size"):
                build_workload(vgg19_spec, batch_size=batch)

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    def test_simulators_reject_a_fractional_batch(self, vgg19_spec, engine):
        with pytest.raises(ConfigurationError, match="batch_size"):
            simulate_system(vgg19_spec, POSEIDON_CAFFE,
                            ClusterConfig(num_workers=4), batch_size=2.5,
                            engine=engine)

    def test_numpy_integer_batch_is_the_same_workload(self, vgg19_spec):
        assert build_workload(vgg19_spec, batch_size=np.int64(16)) is \
            build_workload(vgg19_spec, batch_size=16)


class TestUnits:
    def test_total_bytes_preserved_by_coarsening(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        assert sum(u.param_bytes for u in workload.units) == vgg19_spec.total_param_bytes

    def test_fc_layers_never_merged(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        fc_units = [u for u in workload.units if u.sf_eligible]
        assert {u.name for u in fc_units} == {"fc6", "fc7", "fc8"}
        assert all(len(u.layer_names) == 1 for u in fc_units)

    def test_coarsening_reduces_unit_count(self):
        spec = get_model_spec("resnet-152")
        fine = build_workload(spec, coarsen_bytes=0)
        coarse = build_workload(spec, coarsen_bytes=2 * units.MB)
        assert len(coarse.units) < len(fine.units)
        assert sum(u.param_bytes for u in fine.units) == \
            sum(u.param_bytes for u in coarse.units)

    def test_units_in_forward_order(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        names = [u.name for u in workload.units]
        assert names.index("conv1_1") < names.index("fc6") < names.index("fc8")

    def test_backward_seconds_positive(self, vgg19_spec):
        workload = build_workload(vgg19_spec)
        assert all(u.backward_seconds > 0 for u in workload.units)

    def test_fc_gradients_available_early_in_backward(self, vgg19_spec):
        """FC backward time is a small share of the whole backward pass."""
        workload = build_workload(vgg19_spec)
        fc_backward = sum(u.backward_seconds for u in workload.units if u.sf_eligible)
        assert fc_backward < 0.2 * workload.backward_seconds

    def test_sf_bytes_accessor(self, vgg19_spec):
        workload = build_workload(vgg19_spec, batch_size=32)
        units = {unit.name: unit for unit in workload.units}
        fc6 = units["fc6"]
        assert fc6.sufficient_factor_bytes(32) == 32 * (25088 + 4096) * 4
        conv = units["conv1_1"]
        with pytest.raises(ConfigurationError):
            conv.sufficient_factor_bytes(32)

    @settings(max_examples=10, deadline=None)
    @given(coarsen_mb=st.sampled_from([0, 1, 2, 4, 16]))
    def test_byte_conservation_for_any_coarsening(self, coarsen_mb):
        spec = get_model_spec("googlenet")
        workload = build_workload(spec, coarsen_bytes=coarsen_mb * units.MB)
        assert sum(u.param_bytes for u in workload.units) == spec.total_param_bytes
