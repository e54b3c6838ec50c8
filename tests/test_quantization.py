"""Tests for 1-bit quantization with error feedback."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.quantization import OneBitQuantizer
from repro.exceptions import CommunicationError


class TestOneBitQuantizer:
    def test_dequantized_shape_matches(self, rng):
        quantizer = OneBitQuantizer()
        grad = rng.standard_normal((8, 5)).astype(np.float32)
        quantized = quantizer.quantize("w", grad)
        assert quantized.dequantize().shape == grad.shape

    def test_wire_size_much_smaller_than_dense(self, rng):
        quantizer = OneBitQuantizer()
        grad = rng.standard_normal((256, 256)).astype(np.float32)
        quantized = quantizer.quantize("w", grad)
        assert quantized.nbytes < grad.nbytes / 8

    def test_signs_preserved(self, rng):
        quantizer = OneBitQuantizer()
        grad = rng.standard_normal((16, 4)).astype(np.float32)
        quantized = quantizer.quantize("w", grad)
        recon = quantized.dequantize()
        # Column means of positive/negative entries keep the sign structure.
        assert np.all((recon >= 0) == (grad >= 0))

    def test_residual_is_quantization_error(self, rng):
        quantizer = OneBitQuantizer()
        grad = rng.standard_normal((8, 3)).astype(np.float32)
        quantized = quantizer.quantize("w", grad)
        residual = quantizer.get_state()["w"]
        np.testing.assert_allclose(residual, grad - quantized.dequantize(), atol=1e-6)

    def test_error_feedback_compensates_over_time(self):
        """The running sum of dequantized gradients tracks the true sum."""
        quantizer = OneBitQuantizer()
        rng = np.random.default_rng(0)
        true_total = np.zeros((8, 4))
        sent_total = np.zeros((8, 4))
        for _ in range(50):
            grad = rng.standard_normal((8, 4))
            true_total += grad
            sent_total += quantizer.quantize("w", grad).dequantize()
        residual = quantizer.get_state()["w"]
        np.testing.assert_allclose(sent_total + residual, true_total, atol=1e-6)

    def test_column_means_reconstructed_exactly(self):
        quantizer = OneBitQuantizer()
        grad = np.array([[1.0, -2.0], [3.0, -4.0]], dtype=np.float32)
        recon = quantizer.quantize("w", grad).dequantize()
        np.testing.assert_allclose(recon[:, 0], 2.0)
        np.testing.assert_allclose(recon[:, 1], -3.0)

    def test_scalar_rejected(self):
        with pytest.raises(CommunicationError):
            OneBitQuantizer().quantize("w", np.float32(3.0))

    def test_compress_quantizes_every_large_tensor(self, rng):
        """Scope: >= 2-D tensors of >= 64 elements, conv kernels too;
        small tensors pass through untouched, the same array."""
        grads = {"weight": rng.standard_normal((8, 3, 3, 3)).astype(np.float32),
                 "small": rng.standard_normal((7, 9)).astype(np.float32),
                 "bias": rng.standard_normal(8).astype(np.float32)}
        reference = OneBitQuantizer()
        quantizer = OneBitQuantizer()
        for step in range(3):   # across steps, so the residuals agree too
            lossy, _ = quantizer.compress("conv", grads)
            expected = reference.quantize("conv/weight", grads["weight"])
            np.testing.assert_array_equal(lossy["weight"], expected.dequantize())
            assert lossy["small"] is grads["small"]
            assert lossy["bias"] is grads["bias"]
        assert "conv/small" not in quantizer.get_state()

    def test_compress_keeps_every_key_and_shape(self, rng):
        grads = {"weight": rng.standard_normal((32, 16)).astype(np.float32),
                 "bias": rng.standard_normal(16).astype(np.float32)}
        lossy, _ = OneBitQuantizer().compress("fc", grads)
        assert list(lossy) == ["weight", "bias"]
        assert lossy["weight"].shape == (32, 16)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 7), (13, 1), (7, 3)])
    def test_wire_size_rounds_sign_payload_up(self, rng, shape):
        """Regression: odd element counts need ceil(bits/8) sign bytes.

        The seed implementation floored the division, undercounting every
        tensor whose size is not a multiple of 8 (a (3, 3) tensor's 9 sign
        bits were billed as 1 byte instead of 2).
        """
        quantizer = OneBitQuantizer()
        grad = rng.standard_normal(shape).astype(np.float32)
        quantized = quantizer.quantize("w", grad)
        elements = shape[0] * shape[1]
        scale_bytes = quantized.positive_scale.nbytes + quantized.negative_scale.nbytes
        assert quantized.nbytes == -(-elements // 8) + scale_bytes
        assert quantized.nbytes > scale_bytes  # sign payload never free

    def test_loop_reference_equivalence(self, rng):
        """The vectorized per-column scales match the per-column loop."""
        quantizer = OneBitQuantizer()
        for shape in ((8, 5), (1, 9), (16, 1), (6, 4, 3)):
            grad = rng.standard_normal(shape).astype(np.float32)
            quantized = quantizer.quantize(f"w{shape}", grad)
            matrix = grad.reshape(grad.shape[0], -1)
            signs = matrix >= 0
            for column in range(matrix.shape[1]):
                pos = matrix[signs[:, column], column]
                neg = matrix[~signs[:, column], column]
                expected_pos = pos.mean() if pos.size else 0.0
                expected_neg = neg.mean() if neg.size else 0.0
                assert quantized.positive_scale[0, column] == pytest.approx(
                    expected_pos, abs=1e-6)
                assert quantized.negative_scale[0, column] == pytest.approx(
                    expected_neg, abs=1e-6)

    def test_compress_wire_bytes_account_both_parts(self, rng):
        grads = {"weight": rng.standard_normal((32, 16)).astype(np.float32),
                 "bias": rng.standard_normal(16).astype(np.float32)}
        _, total = OneBitQuantizer().compress("fc", grads)
        quantized = OneBitQuantizer().quantize("fc/weight", grads["weight"])
        assert total == quantized.nbytes + grads["bias"].nbytes


class TestQuantizationProperties:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(2, 32), cols=st.integers(1, 16), seed=st.integers(0, 999))
    def test_residual_bounded_by_gradient_scale(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        grad = rng.standard_normal((rows, cols))
        quantizer = OneBitQuantizer()
        quantizer.quantize("w", grad)
        residual = quantizer.get_state()["w"]
        # The quantization error of a single step cannot exceed the spread of
        # the corrected gradient column-wise.
        assert np.abs(residual).max() <= np.abs(grad).max() * 2 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(2, 16), cols=st.integers(1, 8), seed=st.integers(0, 999))
    def test_compression_ratio_at_least_8(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        grad = rng.standard_normal((rows, cols)).astype(np.float32)
        quantized = OneBitQuantizer().quantize("w", grad)
        # 1 bit per element + two float32 scales per column.
        assert quantized.nbytes <= grad.nbytes // 8 + 8 * cols + 8
