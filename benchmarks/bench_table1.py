"""Benchmark: regenerate Table 1 (analytic communication costs)."""

import pytest

from repro.experiments import table1


def test_table1_worked_example(benchmark, once):
    """Table 1 for the Section 3.2 worked example (M=N=4096, K=32, P1=P2=8)."""
    result = once(benchmark, table1.run_table1)
    assert result.row("PS").server_and_worker == pytest.approx(58.7, rel=0.01)
    assert result.row("SFB").worker == pytest.approx(3.7, rel=0.02)
    assert result.best_scheme == "sfb"


def test_table1_cluster_size_sweep(benchmark, once):
    """Cost-model sweep over cluster sizes 2..64."""
    sweep = once(benchmark, table1.sweep_cluster_sizes)
    assert set(sweep) == {2, 4, 8, 16, 32, 64}


def test_table1_crossover_search(benchmark, once):
    """Batch-size crossover search for the 4096x4096 layer."""
    crossover = once(benchmark, table1.crossover_batch_size, 4096, 4096, 8, 8)
    assert 256 < crossover <= 1024
