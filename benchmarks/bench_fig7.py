"""Benchmark: regenerate Figure 7 (GPU computation vs. stall on 8 nodes)."""

from repro.experiments.figures import FIG7


def test_fig7_stall_breakdown(benchmark, once):
    """Compute/stall split for TF, TF+WFBP and Poseidon on 8 nodes."""
    points = once(benchmark, FIG7.run)

    def result(model, system):
        return points.at(model=model, system=system).result

    for model in ("Inception-V3", "VGG19", "VGG19-22K"):
        assert result(model, "Poseidon (TF)").gpu_busy_fraction > 0.9
        assert (result(model, "TF").gpu_stall_fraction
                >= result(model, "Poseidon (TF)").gpu_stall_fraction)
    assert result("VGG19-22K", "TF").gpu_stall_fraction > 0.3
