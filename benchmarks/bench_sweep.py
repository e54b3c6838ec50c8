"""Sweep-runner benchmarks: figure-level sweep wall-clock, serial vs pool.

Part of the slow ``make bench-full`` suite (the gated micro-benchmark for
the sweep machinery itself lives in ``bench_micro.py``).  The parallel
variant's advantage scales with core count: on a single-core machine it
only measures pool overhead, on a 4-core machine the full default sweep
is expected to finish >= 2x faster than the sequential runner.
"""

import os

from repro.experiments.figures import FIG5, FIG8

#: The --quick sweeps: 1, 4 and 16 nodes.
QUICK_FIG5 = FIG5.reduced(quick=True)
QUICK_FIG8 = FIG8.reduced(quick=True)


def test_fig5_quick_sweep_serial(benchmark):
    """Figure 5 quick sweep (9 series x 3 node counts), sequential."""
    assert benchmark(QUICK_FIG5.run, jobs=1)


def test_fig5_quick_sweep_parallel(benchmark):
    """The same sweep over one worker per core."""
    assert benchmark(QUICK_FIG5.run, jobs=os.cpu_count() or 1)


def test_fig8_quick_sweep_serial(benchmark):
    """Figure 8 quick sweep (18 bandwidth series), sequential."""
    assert benchmark(QUICK_FIG8.run, jobs=1)


def test_fig8_quick_sweep_parallel(benchmark):
    """The same sweep over one worker per core."""
    assert benchmark(QUICK_FIG8.run, jobs=os.cpu_count() or 1)
