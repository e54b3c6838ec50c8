"""Tests for unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestConversions:
    def test_gbe_to_bits_per_second(self):
        assert units.gbe(40) == 40e9

    def test_bytes_to_bits(self):
        assert units.bytes_to_bits(units.KB) == 8192.0

    def test_transfer_seconds_basic(self):
        # 1 GB over 8 Gb/s takes one second.
        assert units.transfer_seconds(1e9, 8e9) == pytest.approx(1.0)

    def test_transfer_seconds_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_seconds(100, 0)

    @given(st.floats(min_value=0, max_value=1e15),
           st.floats(min_value=1e3, max_value=1e12))
    def test_transfer_seconds_non_negative(self, nbytes, bandwidth):
        assert units.transfer_seconds(nbytes, bandwidth) >= 0.0

    @given(st.floats(min_value=1, max_value=1e15))
    def test_transfer_seconds_monotonic_in_bytes(self, nbytes):
        slow = units.transfer_seconds(nbytes, 1e9)
        fast = units.transfer_seconds(nbytes, 10e9)
        assert slow >= fast
