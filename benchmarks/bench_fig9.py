"""Benchmark: regenerate Figure 9 (ResNet-152 throughput + convergence)."""

from repro.experiments import fig9


def _both_panels():
    points = fig9.FIGURE.run()
    return points, fig9.convergence(points)


def test_fig9_resnet152(benchmark, once):
    """Throughput scaling plus the statistical-performance panel."""
    points, convergence = once(benchmark, _both_panels)
    # Paper: 31x speedup on 32 nodes; 0.24 error within ~90 epochs.
    assert points.at(system="Poseidon (TF)", nodes=32).result.speedup > 28.0
    for nodes, _, epochs, _ in convergence:
        if nodes in (16, 32):
            assert epochs is not None and epochs <= 90
