"""Benchmark: regenerate Figure 6 (TensorFlow-engine scaling at 40 GbE)."""

from repro.experiments.figures import FIG6


def test_fig6_tensorflow_engine_scaling(benchmark, once):
    """TF / TF+WFBP / Poseidon on Inception-V3, VGG19 and VGG19-22K."""
    points = once(benchmark, FIG6.run)

    def speedup(model, system):
        return points.at(model=model, system=system, nodes=32).result.speedup

    # Paper: Poseidon ~31.5x on Inception-V3, a ~50% improvement over TF.
    poseidon = speedup("Inception-V3", "Poseidon (TF)")
    assert poseidon > 28.0
    assert poseidon > 1.2 * speedup("Inception-V3", "TF")
    # Paper: stock TF fails to scale VGG19-22K.
    assert speedup("VGG19-22K", "TF") < 8.0
    assert speedup("VGG19-22K", "Poseidon (TF)") > 28.0
