"""Benchmark: regenerate Figure 11 (exact sync vs. 1-bit quantization).

This is the only benchmark backed by the *functional* runtime (real numpy
SGD on model replicas); it uses a reduced iteration count so the whole
benchmark suite stays fast.  The full-length run is produced by
``python -m repro.experiments.runner fig11``.
"""

import numpy as np

from repro.experiments import fig11


def test_fig11_exact_vs_onebit_training(benchmark, once):
    """Train CIFAR-quick (downscaled) with exact and 1-bit synchronization."""
    result = once(benchmark, fig11.run_fig11, 40)
    for label in ("Poseidon", "Poseidon-1bit"):
        losses = result.histories[label].losses
        assert len(losses) == 40
        assert np.isfinite(losses).all()


def test_fig11_cntk_throughput_comparison(benchmark, once):
    """Section 5.3: CNTK-1bit throughput scaling sits below Poseidon's."""
    scaling = once(benchmark, fig11.cntk_scaling, (8, 16, 32))
    for nodes in (8, 16, 32):
        assert scaling["CNTK-1bit"][nodes] < scaling["Poseidon"][nodes]
