"""Benchmark: regenerate Figure 5 (Caffe-engine scaling at 40 GbE)."""

from repro.experiments.figures import FIG5


def test_fig5_caffe_engine_scaling(benchmark, once):
    """All three Caffe-engine systems on GoogLeNet / VGG19 / VGG19-22K."""
    points = once(benchmark, FIG5.run)

    def speedup(model, system):
        return points.at(model=model, system=system, nodes=32).result.speedup

    # Shape: Poseidon near-linear, vanilla PS clearly behind on VGG19-22K.
    assert speedup("VGG19-22K", "Poseidon (Caffe)") > 28.0
    assert speedup("VGG19-22K", "Caffe+PS") < 20.0
    for model in ("GoogLeNet", "VGG19", "VGG19-22K"):
        assert (speedup(model, "Poseidon (Caffe)")
                >= speedup(model, "Caffe+WFBP") - 1e-6)
