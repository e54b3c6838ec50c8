"""Tests for the fig_compression experiment (compressor x bucket x backend).

Pins the headline crossover the figure exists to show -- an aggressive
sparsifier on the bandwidth-optimal ring substrate beats the paper's
1-bit PS at constrained bandwidth -- plus the runner registration and
the structure of the rendering.
"""

from dataclasses import replace

import pytest

from repro.config import Partitioning
from repro.experiments.figure import Best, render
from repro.experiments.figures import COMPRESSION_VARIANTS, FIG_COMPRESSION
from repro.experiments.runner import EXPERIMENTS

#: Reduced sweep shared by the tests (module-scoped: one simulation pass).
NODES = 8
BANDWIDTH = 1.0
LABELS = ("PS dense", "1-bit PS", "Ring topk(0.01)", "Ring topk(0.01) +bucket")


@pytest.fixture(scope="module")
def points():
    return replace(FIG_COMPRESSION, nodes=(NODES,), bandwidths=(BANDWIDTH,),
                   systems=tuple(system for system in FIG_COMPRESSION.systems
                                 if system.name in LABELS)).run()


def throughput(points, label):
    return points.at(system=label).result.throughput_images_per_sec


class TestVariantSystems:
    def test_systems_are_coarse_with_unique_names(self):
        names = [system.name for system in FIG_COMPRESSION.systems]
        assert len(names) == len(set(names))
        assert all(system.partitioning is Partitioning.COARSE
                   for system in FIG_COMPRESSION.systems)

    def test_default_variants_cover_both_axes(self):
        variants = COMPRESSION_VARIANTS
        assert any(bucket is not None for *_, bucket in variants)
        assert any(spec.startswith("topk") for _, _, spec, _ in variants)
        assert any(spec.startswith("powersgd") for _, _, spec, _ in variants)
        assert any(comm == "onebit" for _, comm, _, _ in variants)


class TestCrossover:
    def test_ring_topk_beats_onebit_at_constrained_bandwidth(self, points):
        """The acceptance crossover: sparsified ring > dense 1-bit PS."""
        assert throughput(points, "Ring topk(0.01)") > \
            throughput(points, "1-bit PS")
        crossover = next(block for block in FIG_COMPRESSION.layout
                         if isinstance(block, Best))
        line = render((crossover,), points)
        assert line.startswith(f"  crossover at {BANDWIDTH:g} GbE, {NODES} "
                               f"nodes: Ring topk(0.01) (")
        assert "beats 1-bit PS (" in line

    def test_compression_beats_dense_everywhere_constrained(self, points):
        dense = throughput(points, "PS dense")
        for label in ("1-bit PS", "Ring topk(0.01)"):
            assert throughput(points, label) > dense

    def test_bucketing_preserves_traffic(self, points):
        def traffic(label):
            return points.at(system=label).result.mean_traffic_gbits
        assert traffic("Ring topk(0.01) +bucket") == \
            pytest.approx(traffic("Ring topk(0.01)"), rel=1e-12)


class TestRendering:
    def test_render_structure_and_crossover_line(self, points):
        rendering = render(FIG_COMPRESSION.layout, points)
        assert rendering.startswith(
            "Compression zoo: compressor x bucketing x backend x bandwidth")
        assert "throughput (images/s)" in rendering
        assert "mean per-node traffic" in rendering
        assert "crossover at 1 GbE" in rendering
        assert "Ring topk(0.01)" in rendering

    def test_registered_in_runner(self):
        assert "fig_compression" in EXPERIMENTS
