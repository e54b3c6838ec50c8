"""Tests for the runnable numpy layers, including numeric gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ShapeError
from repro.nn.layers import (
    GELU,
    Conv2D,
    Dense,
    Embedding,
    Flatten,
    LayerNorm,
    MaxPool2D,
    MultiHeadAttention,
    PositionalEmbedding,
    ReLU,
    SequenceMeanPool,
    TokenFlatten,
    TransformerBlock,
)
from repro.nn.layers.conv import col2im, im2col
from gradcheck import check_layer_gradients, numeric_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense("fc", 8, 4, rng=rng)
        out = layer.forward(rng.standard_normal((5, 8)).astype(np.float32))
        assert out.shape == (5, 4)

    def test_forward_rejects_wrong_features(self, rng):
        layer = Dense("fc", 8, 4, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 9), dtype=np.float32))

    def test_backward_before_forward_raises(self, rng):
        layer = Dense("fc", 8, 4, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 4)))

    def test_gradient_check(self, rng):
        layer = Dense("fc", 6, 5, rng=rng)
        inputs = rng.standard_normal((4, 6)).astype(np.float64)
        check_layer_gradients(layer, inputs)

    def test_weight_gradient_equals_sf_reconstruction(self, rng):
        layer = Dense("fc", 6, 5, rng=rng)
        inputs = rng.standard_normal((4, 6)).astype(np.float64)
        layer.forward(inputs)
        grad_out = rng.standard_normal((4, 5))
        layer.backward(grad_out)
        u, v = layer.sufficient_factors()
        np.testing.assert_allclose(u.T @ v, layer.grads["weight"], rtol=1e-6)

    @pytest.mark.parametrize("training", [True, False])
    def test_forward_invalidates_the_previous_backwards_factors(self, rng,
                                                                training):
        """``(new x, old dy)`` has matching shapes; it must never be paired."""
        layer = Dense("fc", 6, 5, rng=rng)
        layer.forward(rng.standard_normal((4, 6)).astype(np.float32))
        layer.backward(rng.standard_normal((4, 5)).astype(np.float32))
        layer.sufficient_factors()
        layer.forward(rng.standard_normal((4, 6)).astype(np.float32),
                      training=training)
        with pytest.raises(RuntimeError, match="before backward"):
            layer.sufficient_factors()

    def test_factor_only_layer_keeps_no_dense_weight_gradient(self, rng):
        layer = Dense("fc", 6, 5, rng=rng)
        layer.publish_factors_only()
        assert set(layer.grads) == {"bias"}
        inputs = rng.standard_normal((4, 6)).astype(np.float32)
        grad_out = rng.standard_normal((4, 5)).astype(np.float32)
        layer.forward(inputs)
        grad_in = layer.backward(grad_out)
        np.testing.assert_array_equal(grad_in, grad_out @ layer.params["weight"].T)
        assert set(layer.grads) == {"bias"}
        with pytest.raises(KeyError):
            layer.grads["weight"]
        np.testing.assert_array_equal(layer.grads["bias"], grad_out.sum(axis=0))
        u, v = layer.sufficient_factors()
        assert u is inputs and v is grad_out
        layer.zero_grads()                      # no zero matrix sneaks back in
        assert set(layer.grads) == {"bias"}

    def test_set_params_shape_mismatch(self, rng):
        layer = Dense("fc", 6, 5, rng=rng)
        with pytest.raises(ShapeError):
            layer.set_params({"weight": np.zeros((2, 2), dtype=np.float32)})

    def test_set_params_unknown_key(self, rng):
        layer = Dense("fc", 6, 5, rng=rng)
        with pytest.raises(KeyError):
            layer.set_params({"gamma": np.zeros((5,), dtype=np.float32)})


class TestConv2D:
    def test_forward_shape_with_padding(self, rng):
        layer = Conv2D("conv", in_channels=3, out_channels=4, kernel=3, pad=1, rng=rng)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert out.shape == (2, 4, 8, 8)

    def test_forward_shape_with_stride(self, rng):
        layer = Conv2D("conv", in_channels=3, out_channels=4, kernel=3, stride=2, rng=rng)
        out = layer.forward(rng.standard_normal((2, 3, 9, 9)).astype(np.float32))
        assert out.shape == (2, 4, 4, 4)

    def test_channel_mismatch_rejected(self, rng):
        layer = Conv2D("conv", in_channels=3, out_channels=4, kernel=3, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_gradient_check(self, rng):
        layer = Conv2D("conv", in_channels=2, out_channels=3, kernel=3, pad=1, rng=rng)
        inputs = rng.standard_normal((2, 2, 6, 6)).astype(np.float64)
        check_layer_gradients(layer, inputs, max_elements=24)

    def test_backward_input_gradient_shape(self, rng):
        layer = Conv2D("conv", in_channels=2, out_channels=3, kernel=3, pad=1, rng=rng)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out = layer.forward(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_im2col_col2im_adjoint(self, rng):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.standard_normal((2, 3, 6, 6))
        cols, _, _ = im2col(x, kernel=3, stride=1, pad=1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel=3, stride=1, pad=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestPooling:
    def test_max_pool_selects_maximum(self):
        layer = MaxPool2D("pool", kernel=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        layer = MaxPool2D("pool", kernel=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        # Only the max positions receive gradient.
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 0, 1, 1] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    @pytest.mark.parametrize("cls", [MaxPool2D])
    def test_backward_buffer_reuse_is_equivalent(self, cls):
        """Repeated backwards through one layer (reused grad-col buffer)
        match a fresh layer bit for bit, and returned gradients stay valid
        after the buffer is overwritten by the next iteration."""
        rng = np.random.default_rng(3)
        layer = cls("pool", kernel=3, stride=2, pad=1)
        previous = None
        for _ in range(3):
            x = rng.standard_normal((4, 8, 12, 12)).astype(np.float32)
            out = layer.forward(x)
            grad_out = rng.standard_normal(out.shape).astype(np.float32)
            grad_in = layer.backward(grad_out)

            fresh = cls("fresh", kernel=3, stride=2, pad=1)
            fresh.forward(x)
            np.testing.assert_array_equal(grad_in, fresh.backward(grad_out))
            if previous is not None:
                # The previous iteration's output must not alias the buffer.
                np.testing.assert_array_equal(previous[0], previous[1])
            previous = (grad_in, grad_in.copy())

    @pytest.mark.parametrize("cls", [MaxPool2D])
    def test_backward_buffer_rebuilds_on_shape_change(self, cls):
        rng = np.random.default_rng(4)
        layer = cls("pool", kernel=2, stride=2)
        for shape in ((2, 4, 8, 8), (3, 4, 6, 6), (2, 4, 8, 8)):
            x = rng.standard_normal(shape).astype(np.float32)
            out = layer.forward(x)
            grad_out = rng.standard_normal(out.shape).astype(np.float32)
            grad_in = layer.backward(grad_out)
            fresh = cls("fresh", kernel=2, stride=2)
            fresh.forward(x)
            np.testing.assert_array_equal(grad_in, fresh.backward(grad_out))
            assert grad_in.shape == shape


class TestActivationsAndFriends:
    def test_relu_masks_negative(self):
        layer = ReLU("relu")
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0, 2, 0, 4]])

    def test_relu_backward_uses_mask(self):
        layer = ReLU("relu")
        x = np.array([[-1.0, 2.0]])
        layer.forward(x)
        np.testing.assert_array_equal(layer.backward(np.array([[5.0, 5.0]])), [[0, 5]])

    def test_flatten_roundtrip(self):
        layer = Flatten("flat")
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape

    def test_param_count_zero_for_stateless_layers(self):
        assert ReLU("r").param_count == 0
        assert Flatten("f").param_count == 0

    def test_gelu_matches_tanh_approximation(self):
        layer = GELU("gelu")
        x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
        expected = 0.5 * x * (1.0 + np.tanh(
            np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12)

    def test_gelu_gradient_check(self, rng):
        layer = GELU("gelu")
        x = rng.standard_normal((3, 7))
        proj = rng.standard_normal((3, 7))
        layer.forward(x.copy())
        analytic = layer.backward(proj)
        numeric = numeric_gradient(
            lambda arr: float((layer.forward(arr.copy()) * proj).sum()),
            x, max_elements=16, rng=rng)
        for index, estimate in numeric.items():
            assert analytic[index] == pytest.approx(estimate, abs=1e-5)

    def test_gelu_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            GELU("gelu").backward(np.ones((2, 2)))

    def test_gelu_inference_forward_does_not_arm_backward(self):
        layer = GELU("gelu")
        layer.forward(np.ones((2, 2), dtype=np.float32), training=False)
        assert layer._cache is None
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2), dtype=np.float32))

    def test_gelu_matches_pow_formula_in_float32(self, rng):
        """Pow-free forward / cached-tanh backward vs the textbook formula."""
        x = (3.0 * rng.standard_normal((64, 96))).astype(np.float32)
        grad_out = rng.standard_normal(x.shape).astype(np.float32)
        layer = GELU("gelu")
        out = layer.forward(x)
        grad_in = layer.backward(grad_out)
        assert out.dtype == grad_in.dtype == np.float32

        coeff, root = 0.044715, np.sqrt(2.0 / np.pi)
        x64, g64 = x.astype(np.float64), grad_out.astype(np.float64)
        tanh_inner = np.tanh(root * (x64 + coeff * x64 ** 3))
        want_out = 0.5 * x64 * (1.0 + tanh_inner)
        want_local = (0.5 * (1.0 + tanh_inner) + 0.5 * x64
                      * (1.0 - tanh_inner ** 2)
                      * root * (1.0 + 3.0 * coeff * x64 ** 2))
        # <= 1e-6 relative to the scale of the quantity (float32 cannot do
        # better than its epsilon near the zeros of the deep-negative tail).
        assert np.abs(out - want_out).max() <= 1e-6 * np.abs(want_out).max()
        want_grad = g64 * want_local
        assert np.abs(grad_in - want_grad).max() <= 1e-6 * np.abs(want_grad).max()


class TestEmbedding:
    def test_forward_looks_up_rows(self, rng):
        layer = Embedding("wte", 10, 4, rng=rng)
        tokens = np.array([[1, 3], [3, 9]])
        out = layer.forward(tokens)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 1], layer.params["weight"][3])
        np.testing.assert_array_equal(out[1, 0], layer.params["weight"][3])

    def test_rejects_float_tokens(self, rng):
        layer = Embedding("wte", 10, 4, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 3), dtype=np.float32))

    def test_rejects_out_of_range_tokens(self, rng):
        layer = Embedding("wte", 10, 4, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.array([[0, 10]]))

    def test_gradient_check_sparse_rows(self, rng):
        """The batch touches few rows; the helper must still find them."""
        layer = Embedding("wte", 50, 6, rng=rng)
        tokens = rng.integers(0, 50, size=(3, 4))
        check_layer_gradients(layer, tokens)

    def test_backward_scatter_adds_repeated_tokens(self, rng):
        layer = Embedding("wte", 10, 4, rng=rng)
        tokens = np.array([[2, 2, 2]])
        out = layer.forward(tokens)
        layer.backward(np.ones_like(out))
        np.testing.assert_allclose(layer.grads["weight"][2], 3.0)

    def test_untouched_rows_get_zero_gradient(self, rng):
        layer = Embedding("wte", 10, 4, rng=rng)
        out = layer.forward(np.array([[1, 2]]))
        layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(layer.grads["weight"][5], 0.0)

    def test_positional_gradient_check(self, rng):
        layer = PositionalEmbedding("wpe", 8, 6, rng=rng)
        check_layer_gradients(layer, rng.standard_normal((3, 5, 6)))

    def test_positional_rejects_long_sequence(self, rng):
        layer = PositionalEmbedding("wpe", 4, 6, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 5, 6)))


class TestLayerNorm:
    def test_output_is_normalized(self, rng):
        layer = LayerNorm("ln", 16)
        out = layer.forward(10.0 + 3.0 * rng.standard_normal((4, 5, 16)))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_check_3d(self, rng):
        layer = LayerNorm("ln", 8)
        check_layer_gradients(layer, rng.standard_normal((3, 5, 8)))

    def test_gradient_check_2d(self, rng):
        layer = LayerNorm("ln", 8)
        check_layer_gradients(layer, rng.standard_normal((6, 8)))

    def test_rejects_wrong_channels(self, rng):
        layer = LayerNorm("ln", 8)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 3, 7)))

    def test_identical_train_and_eval(self, rng):
        layer = LayerNorm("ln", 8)
        x = rng.standard_normal((2, 3, 8))
        np.testing.assert_array_equal(layer.forward(x.copy(), training=True),
                                      layer.forward(x.copy(), training=False))


class TestMultiHeadAttention:
    def test_forward_shape(self, rng):
        layer = MultiHeadAttention("attn", 8, 2, rng=rng)
        out = layer.forward(rng.standard_normal((2, 5, 8)))
        assert out.shape == (2, 5, 8)

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ShapeError):
            MultiHeadAttention("attn", 8, 3, rng=rng)

    def test_gradient_check_causal(self, rng):
        layer = MultiHeadAttention("attn", 8, 2, causal=True, rng=rng)
        check_layer_gradients(layer, rng.standard_normal((2, 4, 8)))

    def test_gradient_check_unmasked(self, rng):
        layer = MultiHeadAttention("attn", 8, 2, causal=False, rng=rng)
        check_layer_gradients(layer, rng.standard_normal((2, 4, 8)))

    def test_causal_mask_blocks_future_tokens(self, rng):
        layer = MultiHeadAttention("attn", 8, 2, causal=True, rng=rng)
        x = rng.standard_normal((1, 5, 8))
        base = layer.forward(x.copy(), training=False)
        perturbed = x.copy()
        perturbed[0, 4] += 10.0
        shifted = layer.forward(perturbed, training=False)
        np.testing.assert_allclose(base[0, :4], shifted[0, :4], atol=1e-12)
        assert not np.allclose(base[0, 4], shifted[0, 4])

    def test_unmasked_attention_sees_future_tokens(self, rng):
        layer = MultiHeadAttention("attn", 8, 2, causal=False, rng=rng)
        x = rng.standard_normal((1, 5, 8))
        base = layer.forward(x.copy(), training=False)
        perturbed = x.copy()
        perturbed[0, 4] += 10.0
        shifted = layer.forward(perturbed, training=False)
        assert not np.allclose(base[0, :4], shifted[0, :4])


class TestTransformerBlock:
    def test_gradient_check(self, rng):
        layer = TransformerBlock("h0", 8, 2, rng=rng)
        check_layer_gradients(layer, rng.standard_normal((2, 4, 8)),
                              max_elements=16)

    def test_params_share_arrays_with_sublayers(self, rng):
        layer = TransformerBlock("h0", 8, 2, rng=rng)
        assert layer.params["attn.qkv_weight"] is \
            layer._sublayers["attn"].params["qkv_weight"]
        update = {"ln1.gain": np.full((8,), 2.0, dtype=np.float32)}
        layer.set_params(update)
        np.testing.assert_array_equal(layer._sublayers["ln1"].params["gain"], 2.0)

    def test_residual_path_dominates_at_init(self, rng):
        """Pre-norm blocks start near the identity: output tracks the input."""
        layer = TransformerBlock("h0", 8, 2, rng=rng)
        x = rng.standard_normal((2, 4, 8))
        out = layer.forward(x.copy(), training=False)
        assert np.corrcoef(out.ravel(), x.ravel())[0, 1] > 0.5

    def test_grads_cover_every_param(self, rng):
        layer = TransformerBlock("h0", 8, 2, rng=rng)
        out = layer.forward(rng.standard_normal((2, 4, 8)))
        layer.backward(np.ones_like(out))
        assert set(layer.grads) == set(layer.params)
        for key, grad in layer.grads.items():
            assert grad.shape == layer.params[key].shape


class TestTokenReshapeHeads:
    def test_token_flatten_roundtrip(self, rng):
        layer = TokenFlatten("tokens")
        x = rng.standard_normal((2, 4, 8))
        out = layer.forward(x)
        assert out.shape == (8, 8)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_mean_pool_value_and_gradient(self, rng):
        layer = SequenceMeanPool("pool")
        x = rng.standard_normal((2, 4, 8))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=1))
        grad = layer.backward(np.ones((2, 8)))
        np.testing.assert_allclose(grad, 0.25)


class TestTransformerLayerProperties:
    """Hypothesis property tests over arbitrary shapes and dtypes."""

    @settings(max_examples=20, deadline=None)
    @given(batch=st.integers(1, 3), seq=st.integers(1, 6),
           dim=st.sampled_from([4, 8]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_layernorm_shape_and_stats(self, batch, seq, dim, dtype):
        layer = LayerNorm("ln", dim)
        x = np.random.default_rng(0).standard_normal(
            (batch, seq, dim)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == x.shape
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        if dim > 1:
            np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(batch=st.integers(1, 3), seq=st.integers(1, 5),
           heads=st.sampled_from([1, 2]), causal=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_mha_shapes_any_config(self, batch, seq, heads, causal, dtype):
        dim = 4 * heads
        layer = MultiHeadAttention("attn", dim, heads, causal=causal,
                                   rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal(
            (batch, seq, dim)).astype(dtype)
        out = layer.forward(x)
        assert out.shape == (batch, seq, dim)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == (batch, seq, dim)
        assert np.isfinite(out).all() and np.isfinite(grad).all()

    @settings(max_examples=20, deadline=None)
    @given(vocab=st.integers(2, 30), batch=st.integers(1, 3),
           seq=st.integers(1, 6), dim=st.sampled_from([2, 8]))
    def test_embedding_gradient_rows_match_token_counts(self, vocab, batch,
                                                        seq, dim):
        layer = Embedding("wte", vocab, dim, rng=np.random.default_rng(3))
        tokens = np.random.default_rng(4).integers(0, vocab, size=(batch, seq))
        out = layer.forward(tokens)
        layer.backward(np.ones_like(out))
        counts = np.bincount(tokens.ravel(), minlength=vocab).astype(float)
        np.testing.assert_allclose(
            layer.grads["weight"], counts[:, None] * np.ones((1, dim)))

    @settings(max_examples=20, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_gelu_monotone_and_dtype_preserving(self, shape, dtype):
        layer = GELU("gelu")
        x = np.sort(np.random.default_rng(5).standard_normal(shape).astype(dtype),
                    axis=-1)
        out = layer.forward(x)
        assert out.dtype == x.dtype
        # GELU is monotone on [-0.7, inf); restrict to positives for the check.
        positive = np.clip(x, 0.1, None)
        assert (np.diff(layer.forward(positive), axis=-1) >= 0).all()


# -- dtype contract ------------------------------------------------------------
def _float_case(factory, shape):
    return factory, lambda rng, dtype: rng.standard_normal(shape).astype(dtype)


def _token_case(factory, vocab, shape):
    return factory, lambda rng, _dtype: rng.integers(0, vocab, size=shape)


DTYPE_CASES = {
    "Dense": _float_case(lambda: Dense("fc", 8, 4), (5, 8)),
    "Conv2D": _float_case(lambda: Conv2D("conv", 2, 3, 3, pad=1), (2, 2, 6, 6)),
    "MaxPool2D": _float_case(lambda: MaxPool2D("pool", 2), (2, 2, 6, 6)),
    "ReLU": _float_case(lambda: ReLU("relu"), (4, 6)),
    "GELU": _float_case(lambda: GELU("gelu"), (4, 6)),
    "Flatten": _float_case(lambda: Flatten("flat"), (2, 2, 3, 3)),
    "Embedding": _token_case(lambda: Embedding("wte", 10, 4), 10, (2, 5)),
    "PositionalEmbedding": _float_case(
        lambda: PositionalEmbedding("wpe", 8, 4), (2, 6, 4)),
    "LayerNorm": _float_case(lambda: LayerNorm("ln", 4), (2, 6, 4)),
    "MultiHeadAttention": _float_case(
        lambda: MultiHeadAttention("attn", 8, 2), (2, 6, 8)),
    "TransformerBlock": _float_case(
        lambda: TransformerBlock("block", 8, 2), (2, 6, 8)),
    "TokenFlatten": _float_case(lambda: TokenFlatten("tokens"), (2, 6, 8)),
    "SequenceMeanPool": _float_case(lambda: SequenceMeanPool("pool"), (2, 6, 8)),
}


PARAMETERISED = sorted(name for name, (factory, _) in DTYPE_CASES.items()
                       if factory().has_parameters)


class TestGradientOwnership:
    """``backward`` rebinds ``grads[...]``; it never writes a previous array.

    The syncers stage gradients by reference and a substrate may hold them
    until the aggregate is applied (``docs/architecture.md``, "Gradient
    buffer ownership"), so an array read out of ``layer.grads`` must stay
    bit-unchanged -- and unaliased -- across the next backward pass.
    """

    def test_every_parameterised_layer_is_covered(self):
        import repro.nn.layers as layers
        assert set(DTYPE_CASES) == set(layers.__all__) - {"Layer"}
        assert PARAMETERISED == [
            "Conv2D", "Dense", "Embedding", "LayerNorm", "MultiHeadAttention",
            "PositionalEmbedding", "TransformerBlock"]

    @pytest.mark.parametrize("need_input_grad", [True, False])
    @pytest.mark.parametrize("name", PARAMETERISED)
    def test_second_backward_leaves_captured_grads_alone(self, name,
                                                         need_input_grad, rng):
        factory, make_input = DTYPE_CASES[name]
        layer = factory()

        def step():
            out = layer.forward(make_input(rng, np.float32), training=True)
            layer.backward(rng.standard_normal(out.shape).astype(np.float32),
                           need_input_grad=need_input_grad)

        step()
        captured = dict(layer.grads)
        frozen = {key: grad.copy() for key, grad in captured.items()}
        assert set(captured) == set(layer.params)
        step()
        for key, grad in captured.items():
            np.testing.assert_array_equal(grad, frozen[key])
            assert not np.shares_memory(grad, layer.grads[key]), key
            assert np.any(layer.grads[key] != grad), key  # it did recompute

    @pytest.mark.parametrize("need_input_grad", [True, False])
    def test_factor_synchronised_dense_rebinds_what_it_publishes(
            self, need_input_grad, rng):
        """It publishes ``(x, dy)`` and the bias gradient, all by reference."""
        factory, make_input = DTYPE_CASES["Dense"]
        layer = factory()
        layer.publish_factors_only()

        def step():
            out = layer.forward(make_input(rng, np.float32), training=True)
            layer.backward(rng.standard_normal(out.shape).astype(np.float32),
                           need_input_grad=need_input_grad)
            u, v = layer.sufficient_factors()
            return {"u": u, "v": v, **layer.grads}

        captured = step()
        assert set(captured) == {"u", "v", "bias"}
        frozen = {key: array.copy() for key, array in captured.items()}
        published = step()
        assert "weight" not in layer.grads
        for key, array in captured.items():
            np.testing.assert_array_equal(array, frozen[key])
            assert not np.shares_memory(array, published[key]), key
            assert np.any(published[key] != array), key


    @pytest.mark.parametrize("name", PARAMETERISED)
    def test_zeroed_grads_are_read_only_zero_views(self, name, rng):
        """``zero_grads`` costs no memory, and nothing may write into it."""
        factory, make_input = DTYPE_CASES[name]
        layer = factory()
        out = layer.forward(make_input(rng, np.float32), training=True)
        layer.backward(rng.standard_normal(out.shape).astype(np.float32))
        layer.zero_grads()
        assert set(layer.grads) == set(layer.params)
        for key, grad in layer.grads.items():
            param = layer.params[key]
            assert grad.shape == param.shape and grad.dtype == param.dtype
            np.testing.assert_array_equal(grad, np.zeros_like(param))
            assert grad.strides == (0,) * grad.ndim, key   # one scalar
            assert not grad.flags.writeable, key
            with pytest.raises(ValueError):
                grad[...] = 1.0
            with pytest.raises(ValueError):
                grad += 1.0

    def test_network_gradients_of_zeroed_layers_are_writeable_copies(self):
        from repro.nn.model_zoo import build_transformer_network
        network = build_transformer_network(vocab_size=20, block_size=6,
                                            n_embd=8, num_heads=2,
                                            num_blocks=1, num_classes=3)
        network.zero_grads()
        for layer_name, grads in network.get_gradients().items():
            layer = network.layer_by_name(layer_name)
            for key, grad in grads.items():
                assert grad.flags.writeable, (layer_name, key)
                assert not np.shares_memory(grad, layer.grads[key])
                grad += 1.0
                np.testing.assert_array_equal(layer.grads[key], 0.0)


class TestInitializers:
    """The float32 initialisers draw exactly what the float64 expression did.

    The oracle is the whole-tensor expression the initialisers replaced:
    one float64 draw of the full shape, cast to float32.  The block-by-block
    fill must give the same bits and leave the generator where the oracle
    left it.
    """

    @staticmethod
    def _shapes():
        from repro.nn.initializers import BLOCK_ELEMENTS as block
        return [(1,), (7,), (block - 1,), (block,), (block + 1,), (3, block + 5),
                (1024, 1024)]

    @staticmethod
    def _cases():
        from repro.nn import initializers as init
        limit = lambda fan_in, fan_out: np.sqrt(6.0 / float(fan_in + fan_out))
        std = lambda fan_in: np.sqrt(2.0 / float(fan_in))
        return {
            "xavier_uniform": (
                lambda shape, rng: init.xavier_uniform(shape, 5, 11, rng),
                lambda shape, rng: rng.uniform(-limit(5, 11), limit(5, 11),
                                               size=shape).astype(np.float32)),
            "he_normal": (
                lambda shape, rng: init.he_normal(shape, 9, rng),
                lambda shape, rng: (rng.standard_normal(size=shape)
                                    * std(9)).astype(np.float32)),
            "positional": (
                lambda shape, rng: init.normal(shape, 0.02, rng),
                lambda shape, rng: (0.02 * rng.standard_normal(
                    shape)).astype(np.float32)),
        }

    @pytest.mark.parametrize("kind", ["xavier_uniform", "he_normal", "positional"])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_bit_identical_to_the_float64_expression(self, kind, seed):
        new, old = self._cases()[kind]
        for shape in self._shapes():
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            got, want = new(shape, rng_new), old(shape, rng_old)
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint32),
                                          want.view(np.uint32))
            # The generator stands where the oracle left it.
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            assert rng_new.standard_normal() == rng_old.standard_normal()

    def test_positional_embedding_table_matches_the_old_expression(self):
        max_len, dim = 40, 300   # 12,000 elements: more than one block
        table = PositionalEmbedding("pos", max_len, dim,
                                    rng=np.random.default_rng(3)).params["weight"]
        want = (0.02 * np.random.default_rng(3).standard_normal(
            (max_len, dim))).astype(np.float32)
        np.testing.assert_array_equal(table.view(np.uint32), want.view(np.uint32))

    def test_no_float64_twin_of_the_tensor(self):
        """The largest temporary is one block, not the tensor."""
        import tracemalloc
        from repro.nn.initializers import BLOCK_ELEMENTS, he_normal, xavier_uniform
        for make in (lambda rng: xavier_uniform((1024, 1024), 8, 8, rng),
                     lambda rng: he_normal((1024, 1024), 8, rng)):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                make(rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1024 * 1024 * 4 + BLOCK_ELEMENTS * 8 + 64 * 1024


class TestDtypeContract:
    """A layer never changes precision on its own.

    Parameters are float32.  With float32 activations everything a layer
    produces -- output, input gradient, every parameter gradient -- is
    float32 (what training runs on, and what the wire accounting assumes);
    with float64 activations and upstream gradients everything is float64
    (what the finite-difference gradient checks rely on).
    """

    def test_every_exported_layer_is_covered(self):
        import repro.nn.layers as layers
        assert set(DTYPE_CASES) == set(layers.__all__) - {"Layer"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(DTYPE_CASES))
    def test_layer_preserves_dtype(self, name, dtype, rng):
        factory, make_input = DTYPE_CASES[name]
        layer = factory()
        inputs = make_input(rng, dtype)
        out = layer.forward(inputs, training=True)
        # Token ids carry no float dtype: a lookup returns the table's.
        want_out = dtype if np.issubdtype(inputs.dtype, np.floating) else np.float32
        assert out.dtype == want_out
        grad_in = layer.backward(rng.standard_normal(out.shape).astype(dtype))
        assert grad_in.dtype == dtype
        assert set(layer.grads) == set(layer.params)
        for key, grad in layer.grads.items():
            assert grad.dtype == dtype, key
        assert layer.forward(inputs, training=False).dtype == want_out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_preserves_dtype(self, dtype, rng):
        from repro.nn.loss import SoftmaxCrossEntropyLoss
        logits = rng.standard_normal((6, 5)).astype(dtype)
        _, grad = SoftmaxCrossEntropyLoss().forward(logits, np.arange(6) % 5)
        assert grad.dtype == dtype

    def test_float32_transformer_has_no_float64_anywhere(self, rng):
        """Layer by layer through the benchmark-shaped network (both heads)."""
        from repro.nn.model_zoo import build_transformer_network
        for num_classes, labels in ((3, rng.integers(0, 3, size=4)),
                                    (None, rng.integers(0, 20, size=4 * 6))):
            network = build_transformer_network(
                vocab_size=20, block_size=6, n_embd=8, num_heads=2,
                num_blocks=2, num_classes=num_classes)
            activation = rng.integers(0, 20, size=(4, 6))
            for layer in network.layers:
                activation = layer.forward(activation, training=True)
                assert activation.dtype == np.float32, layer.name
            _, grad = network.loss.forward(activation, labels)
            assert grad.dtype == np.float32
            for layer in reversed(network.layers):
                grad = layer.backward(grad)
                assert grad.dtype == np.float32, layer.name
                for key, value in layer.grads.items():
                    assert value.dtype == np.float32, (layer.name, key)
