"""Benchmark: regenerate Table 1 (analytic communication costs)."""

import pytest

from repro.experiments import table1


def test_table1_worked_example(benchmark, once):
    """Table 1 for the Section 3.2 worked example (M=N=4096, K=32, P1=P2=8)."""
    result = once(benchmark, table1.run_table1)
    assert result.row("PS").server_and_worker == pytest.approx(58.7, rel=0.01)
    assert result.row("SFB").worker == pytest.approx(3.7, rel=0.02)
    assert result.best_scheme == "sfb"
