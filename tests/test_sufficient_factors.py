"""Tests for sufficient-factor packaging and reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ShapeError
from repro.nn.sufficient_factors import SufficientFactors


class TestSufficientFactors:
    def test_reconstruct_matches_outer_product_sum(self, rng):
        u = rng.standard_normal((8, 5))
        v = rng.standard_normal((8, 3))
        factors = SufficientFactors(u=u, v=v)
        expected = sum(np.outer(u[i], v[i]) for i in range(8))
        np.testing.assert_allclose(factors.reconstruct(), expected, rtol=1e-6)

    def test_batch_size_and_shape(self, rng):
        factors = SufficientFactors(u=rng.standard_normal((4, 10)),
                                    v=rng.standard_normal((4, 6)))
        assert factors.batch_size == 4
        assert factors.weight_shape == (10, 6)

    def test_mismatched_batch_rejected(self, rng):
        with pytest.raises(ShapeError):
            SufficientFactors(u=rng.standard_normal((4, 10)),
                              v=rng.standard_normal((5, 6)))

    def test_one_dimensional_factors_rejected(self, rng):
        with pytest.raises(ShapeError):
            SufficientFactors(u=rng.standard_normal(4), v=rng.standard_normal((4, 6)))

    def test_nbytes_counts_both_factors(self, rng):
        u = rng.standard_normal((4, 10)).astype(np.float32)
        v = rng.standard_normal((4, 6)).astype(np.float32)
        factors = SufficientFactors(u=u, v=v)
        assert factors.nbytes == u.nbytes + v.nbytes

    def test_compression_ratio_large_layer(self, rng):
        u = rng.standard_normal((32, 4096)).astype(np.float32)
        v = rng.standard_normal((32, 4096)).astype(np.float32)
        factors = SufficientFactors(u=u, v=v)
        # MN / K(M+N) = 4096*4096 / (32*8192) = 64.
        assert 4096 * 4096 * 4 / factors.nbytes == pytest.approx(64.0)


class TestSufficientFactorProperties:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 16), m=st.integers(1, 24), n=st.integers(1, 24),
           seed=st.integers(0, 1000))
    def test_reconstruction_exact_for_any_shape(self, batch, m, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((batch, m))
        v = rng.standard_normal((batch, n))
        factors = SufficientFactors(u=u, v=v)
        np.testing.assert_allclose(factors.reconstruct(), u.T @ v, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 8), m=st.integers(2, 32), n=st.integers(2, 32))
    def test_rank_bounded_by_batch(self, batch, m, n):
        rng = np.random.default_rng(0)
        factors = SufficientFactors(u=rng.standard_normal((batch, m)),
                                    v=rng.standard_normal((batch, n)))
        rank = np.linalg.matrix_rank(factors.reconstruct())
        assert rank <= min(batch, m, n)
