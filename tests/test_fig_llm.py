"""Tests for the fig_llm experiment (transformer scheme choice x topology).

Pins the acceptance physics the figure exists to show: priced at its real
rank (``K = batch * seq_len`` factor rows), no FC layer picks SFB at any
swept bandwidth or topology -- the flat fabric keeps every layer on the PS
and rack oversubscription hands them to the topology-aware collectives,
where the attention output projection flips scheme across the swept
bandwidths (the timed Algorithm-1 crossover the volumetric variant cannot
see).  Also pins byte-identity of the report across sweep worker counts
and the runner registration.
"""

import pytest

from repro.experiments import fig_llm
from repro.experiments.figure import render
from repro.experiments.runner import EXPERIMENTS
from repro.nn.model_zoo import get_model_spec
from repro.sweep import use_jobs

#: The --quick sweep (this one model), shared by the tests.
MODEL = "nanogpt-12l"


@pytest.fixture(scope="module")
def decisions():
    return fig_llm.timed_decisions(get_model_spec(MODEL))


@pytest.fixture(scope="module")
def points():
    return fig_llm.FIGURE.reduced(True).run(jobs=2)


@pytest.fixture(scope="module")
def rendering():
    with use_jobs(1):
        return fig_llm.report(quick=True)


def speedup(points, system, bandwidth, topology):
    return points.at(system=system, bandwidth=bandwidth,
                     topology=topology).result.speedup


class TestDecisionLayers:
    def test_block0_and_head_only(self):
        spec = get_model_spec("nanogpt-12l")
        layers = fig_llm.decision_layers(spec)
        assert layers == ["h0_attn_qkv", "h0_attn_proj", "h0_mlp_fc",
                          "h0_mlp_proj", "lm_head"]

    def test_systems_subset_of_backend_zoo(self):
        names = [system.name for system in fig_llm.FIGURE.systems]
        assert names == list(fig_llm.SYSTEM_NAMES)


class TestDecisions:
    def test_no_fc_layer_picks_sfb(self, decisions):
        """The headline: at K = B * T factor rows SFB never pays."""
        assert "sfb" not in {scheme for by_bandwidth in decisions.values()
                             for per_layer in by_bandwidth.values()
                             for scheme in per_layer.values()}

    def test_flat_fabric_is_all_ps(self, decisions):
        for per_layer in decisions["flat"].values():
            assert set(per_layer.values()) == {"ps"}

    def test_vocab_head_rides_the_ring_when_oversubscribed(self, decisions):
        assert {per_layer["lm_head"] for per_layer
                in decisions["4:1-oversub"].values()} == {"ring"}

    def test_attention_projection_flips_only_when_oversubscribed(
            self, decisions):
        """The crossover: a square projection changes scheme with bandwidth."""
        assert fig_llm.flipping_layers(decisions["flat"]) == []
        assert fig_llm.flipping_layers(decisions["4:1-oversub"]) == [
            "h0_attn_proj"]
        assert decisions["4:1-oversub"][10.0]["h0_attn_proj"] == "ring"
        assert decisions["4:1-oversub"][40.0]["h0_attn_proj"] == "hierps"

    def test_oversubscription_pulls_in_topology_schemes(self, decisions):
        """On the 4:1 fabric the projection goes topology-aware, not PS."""
        assert decisions["4:1-oversub"][10.0]["h0_attn_proj"] in ("ring",
                                                                 "hierps")

    def test_speedups_positive_for_all_systems(self, points):
        for system in fig_llm.SYSTEM_NAMES:
            for bandwidth in fig_llm.FIGURE.bandwidths:
                for label, _ in fig_llm.FIGURE.clusters:
                    assert speedup(points, system, bandwidth, label) > 0.0

    def test_ps_beats_sfb_and_hybcomm_keeps_up(self, points):
        """End to end, forced SFB loses to the PS at every point, and the
        hybrid is never slower than the PS it mostly picks."""
        for bandwidth in fig_llm.FIGURE.bandwidths:
            for label, _ in fig_llm.FIGURE.clusters:
                ps = speedup(points, "PS", bandwidth, label)
                assert speedup(points, "SFB", bandwidth, label) < ps
                assert speedup(points, "HybComm", bandwidth, label) >= ps


class TestRendering:
    def test_render_structure(self, rendering):
        assert rendering.startswith(
            "Transformer/LLM sweep: timed Algorithm-1 choice per FC layer")
        assert "K = 3072 factor rows" in rendering
        assert "no FC layer picks sfb at any swept bandwidth" in rendering
        assert ("vocab head lm_head (384x50304): ps (flat), "
                "ring (4:1-oversub)") in rendering
        assert ("crossover: h0_attn_proj flips ring -> hierps across "
                "10 -> 40 GbE (4:1-oversub)") in rendering
        assert "DES throughput speedup" in rendering

    def test_report_byte_identical_across_jobs(self, points, rendering):
        """The report must not depend on the sweep worker count: the
        sequential report ends in the series of the two-worker sweep."""
        assert rendering.endswith(
            "\n" + render(fig_llm.FIGURE.layout, points))

    def test_registered_in_runner(self):
        assert "fig_llm" in EXPERIMENTS
