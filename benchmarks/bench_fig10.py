"""Benchmark: regenerate Figure 10 (per-node communication load)."""

from repro.experiments.figures import FIG10


def test_fig10_per_node_traffic(benchmark, once):
    """Traffic balance of TF-WFBP / Adam / Poseidon for VGG19 on 8 nodes."""
    points = once(benchmark, FIG10.run)
    assert points.at(system="Adam").imbalance > 2.0
    assert points.at(system="TF+WFBP").imbalance < 1.1
    assert (points.at(system="Poseidon (TF)").result.mean_traffic_gbits
            < points.at(system="TF+WFBP").result.mean_traffic_gbits)
