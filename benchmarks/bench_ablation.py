"""Benchmark: design-choice ablations (WFBP, HybComm, partitioning, shards)."""

from dataclasses import replace

from repro.experiments import ablation
from repro.experiments.figures import MULTIGPU


def test_ablation_system_variants(benchmark, once):
    """Full Poseidon vs. variants with one design choice removed."""
    points = once(benchmark, ablation.FIGURE.run)

    def speedup(variant):
        return points.at(system=variant).result.speedup

    full = speedup("full poseidon")
    assert full >= speedup("no WFBP")
    assert full >= speedup("no HybComm (PS only)")
    assert full >= speedup("coarse partitioning")


def test_ablation_multigpu(benchmark, once):
    """Multi-GPU-per-node scaling (Section 5.1)."""
    points = once(benchmark, replace(MULTIGPU, models=("googlenet",)).run)
    assert points.at(topology="1x4").gpu_speedup > 3.5
