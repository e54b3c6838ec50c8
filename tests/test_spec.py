"""Tests for layer/model specifications and the spec builder."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.exceptions import ModelSpecError
from repro.nn.spec import LayerKind, LayerSpec, ModelSpec, SpecBuilder
from repro.simulation.workload import build_workload


def build_toy_spec():
    builder = SpecBuilder("toy", input_shape=(3, 16, 16))
    builder.conv("conv1", out_channels=8, kernel=3, pad=1)
    builder.relu("relu1")
    builder.max_pool("pool1", kernel=2, stride=2)
    builder.flatten("flatten")
    builder.fc("fc1", 32)
    builder.fc("fc2", 10)
    builder.softmax("prob")
    return builder.build(dataset="toy", default_batch_size=8)


def factor_bytes(layer, batch):
    """A layer's sufficient-factor bytes as the simulators price them: the
    ``SyncUnit`` the workload derives from it."""
    unit, = build_workload(ModelSpec(name="one", layers=(layer,)),
                           batch_size=batch).units
    return unit.sufficient_factor_bytes(batch)


class TestLayerSpec:
    def test_param_bytes_is_four_per_param(self):
        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=100,
                          param_shape=(10, 10), sf_decomposable=True,
                          output_shape=(10,))
        assert layer.param_bytes == 400

    def test_fc_dims(self):
        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=110,
                          param_shape=(10, 11), sf_decomposable=True,
                          output_shape=(11,))
        assert layer.fc_dims == (10, 11)

    def test_fc_dims_rejected_for_conv(self):
        layer = LayerSpec(name="conv", kind=LayerKind.CONV, param_count=9,
                          param_shape=(1, 1, 3, 3), output_shape=(1, 4, 4))
        with pytest.raises(ModelSpecError):
            layer.fc_dims

    def test_negative_params_rejected(self):
        with pytest.raises(ModelSpecError):
            LayerSpec(name="x", kind=LayerKind.FC, param_count=-1)

    def test_params_on_pool_rejected(self):
        with pytest.raises(ModelSpecError):
            LayerSpec(name="pool", kind=LayerKind.POOL, param_count=10)

    def test_sf_flag_only_on_fc(self):
        with pytest.raises(ModelSpecError):
            LayerSpec(name="conv", kind=LayerKind.CONV, param_count=9,
                      sf_decomposable=True)

    def test_factor_rank_multiplies_the_factor_rows(self):
        """K = batch * factor_rank rows of M + N floats."""
        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=200,
                          param_shape=(10, 20), sf_decomposable=True,
                          output_shape=(6, 20), factor_rank=6)
        assert factor_bytes(layer, batch=4) == 4 * 6 * 30 * units.FLOAT32_BYTES

    def test_fc_built_without_a_rank_has_rank_one(self):
        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=200,
                          param_shape=(10, 20), sf_decomposable=True)
        assert layer.factor_rank == 1

    @pytest.mark.parametrize("rank", [0, -3, 2.5, "4"])
    def test_bad_factor_rank_rejected(self, rank):
        with pytest.raises(ModelSpecError, match="factor_rank"):
            LayerSpec(name="fc", kind=LayerKind.FC, param_count=200,
                      param_shape=(10, 20), sf_decomposable=True,
                      factor_rank=rank)

    @pytest.mark.parametrize("kind", [LayerKind.CONV, LayerKind.NORM,
                                      LayerKind.EMBED, LayerKind.POOL])
    def test_factor_rank_only_on_fc(self, kind):
        with pytest.raises(ModelSpecError, match="factor_rank"):
            LayerSpec(name="x", kind=kind, factor_rank=1)
        assert LayerSpec(name="x", kind=kind).factor_rank is None


class TestSpecBuilder:
    def test_conv_output_shape_tracking(self):
        builder = SpecBuilder("t", input_shape=(3, 32, 32))
        conv = builder.conv("c1", out_channels=16, kernel=3, stride=2, pad=1)
        assert conv.output_shape == (16, 16, 16)

    def test_conv_param_count(self):
        builder = SpecBuilder("t", input_shape=(3, 32, 32))
        conv = builder.conv("c1", out_channels=8, kernel=3)
        assert conv.param_count == 8 * 3 * 3 * 3 + 8

    def test_fc_requires_flat_input(self):
        builder = SpecBuilder("t", input_shape=(3, 8, 8))
        with pytest.raises(ModelSpecError):
            builder.fc("fc", 10)

    def test_conv_requires_spatial_input(self):
        builder = SpecBuilder("t", input_shape=(64,))
        with pytest.raises(ModelSpecError):
            builder.conv("c1", out_channels=8, kernel=3)

    def test_conv_rect_rectangular_kernel(self):
        builder = SpecBuilder("t", input_shape=(4, 17, 17))
        layer = builder.conv_rect("c", out_channels=8, kernel_h=1, kernel_w=7, pad_w=3)
        assert layer.output_shape == (8, 17, 17)
        assert layer.param_count == 8 * 4 * 1 * 7 + 8

    def test_collapsing_convolution_rejected(self):
        builder = SpecBuilder("t", input_shape=(3, 4, 4))
        with pytest.raises(ModelSpecError):
            builder.conv("too-big", out_channels=4, kernel=7)

    def test_flatten_and_fc_dims(self):
        spec = build_toy_spec()
        fc1 = spec.layer("fc1")
        assert fc1.fc_dims == (8 * 8 * 8, 32)

    def test_global_avg_pool_collapses_spatial(self):
        builder = SpecBuilder("t", input_shape=(12, 7, 7))
        layer = builder.global_avg_pool("gap")
        assert layer.output_shape == (12, 1, 1)

    def test_batch_norm_params(self):
        builder = SpecBuilder("t", input_shape=(16, 8, 8))
        layer = builder.batch_norm("bn")
        assert layer.param_count == 32

    def test_concat_channels(self):
        builder = SpecBuilder("t", input_shape=(8, 14, 14))
        layer = builder.concat_channels("cat", (8, 16, 4))
        assert layer.output_shape == (28, 14, 14)


class TestFactorRankOfBuiltLayers:
    def test_cnn_fc_has_one_row_per_sample(self):
        spec = build_toy_spec()
        assert [layer.factor_rank for layer in spec.layers
                if layer.kind is LayerKind.FC] == [1, 1]

    def test_token_fc_has_one_row_per_token(self):
        builder = SpecBuilder("lm", input_shape=(7,))
        builder.embedding("wte", 50, 8)
        head = builder.token_fc("head", 50)
        assert head.factor_rank == 7
        assert factor_bytes(head, batch=3) == \
            3 * 7 * (8 + 50) * units.FLOAT32_BYTES

    def test_sequence_mean_pool_leaves_one_row_per_sample(self):
        builder = SpecBuilder("cls", input_shape=(7,))
        builder.embedding("wte", 50, 8)
        builder.sequence_mean_pool("pool")
        assert builder.fc("head", 4).factor_rank == 1


class TestModelSpec:
    def test_duplicate_layer_names_rejected(self):
        layer = LayerSpec(name="dup", kind=LayerKind.ACTIVATION, output_shape=(4,))
        with pytest.raises(ModelSpecError):
            ModelSpec(name="bad", layers=(layer, layer))

    def test_empty_model_rejected(self):
        with pytest.raises(ModelSpecError):
            ModelSpec(name="empty", layers=())

    def test_total_params_sum(self):
        spec = build_toy_spec()
        assert spec.total_params == sum(l.param_count for l in spec.layers)

    def test_fc_params_are_the_fc_layers(self):
        spec = build_toy_spec()
        fc = sum(layer.param_count for layer in spec.layers
                 if layer.kind is LayerKind.FC)
        assert 0 < spec.fc_params == fc < spec.total_params
        assert spec.fc_param_fraction == pytest.approx(fc / spec.total_params)

    def test_parameter_layers_only_parameterised(self):
        spec = build_toy_spec()
        assert all(layer.has_parameters for layer in spec.parameter_layers())

    def test_layer_lookup_unknown_raises(self):
        spec = build_toy_spec()
        with pytest.raises(KeyError):
            spec.layer("nonexistent")

    def test_flops_positive(self):
        spec = build_toy_spec()
        assert spec.flops_forward > 0
        assert spec.flops_backward > spec.flops_forward


class TestSpecProperties:
    @given(m=st.integers(min_value=1, max_value=2048),
           n=st.integers(min_value=1, max_value=2048),
           batch=st.integers(min_value=1, max_value=512))
    def test_sf_bytes_smaller_than_dense_for_large_layers(self, m, n, batch):
        layer = LayerSpec(name="fc", kind=LayerKind.FC, param_count=m * n,
                          param_shape=(m, n), sf_decomposable=True,
                          output_shape=(n,))
        sf = factor_bytes(layer, batch)
        dense = layer.param_bytes
        # SFs win exactly when K(M+N) < MN.
        assert (sf < dense) == (batch * (m + n) < m * n)

    @given(channels=st.integers(min_value=1, max_value=32),
           kernel=st.integers(min_value=1, max_value=5),
           size=st.integers(min_value=8, max_value=32))
    def test_conv_flops_scale_with_output(self, channels, kernel, size):
        builder = SpecBuilder("t", input_shape=(3, size, size))
        layer = builder.conv("c", out_channels=channels, kernel=kernel)
        out_c, out_h, out_w = layer.output_shape
        expected = 2.0 * channels * 3 * kernel * kernel * out_h * out_w
        assert layer.flops_forward == pytest.approx(expected)
