"""Tests for the fig_llm experiment (transformer scheme choice x topology).

Pins the acceptance physics the figure exists to show: the untied
vocabulary head picks SFB at every swept bandwidth and topology, while at
least one attention/MLP projection flips scheme across the swept
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
    def test_vocab_head_is_sfb_everywhere(self, decisions):
        """The headline: the giant untied head always favours factors."""
        assert {per_layer["lm_head"] for by_bandwidth in decisions.values()
                for per_layer in by_bandwidth.values()} == {"sfb"}

    def test_vocab_head_is_sfb_at_10gbe_flat(self, decisions):
        assert decisions["flat"][10.0]["lm_head"] == "sfb"

    def test_attention_projection_flips_across_bandwidths(self, decisions):
        """The crossover: a square projection changes scheme with bandwidth."""
        assert "h0_attn_proj" in fig_llm.flipping_layers(decisions["flat"])

    def test_projection_prefers_sfb_only_when_constrained(self, decisions):
        assert decisions["flat"][10.0]["h0_attn_proj"] == "sfb"
        assert decisions["flat"][40.0]["h0_attn_proj"] == "ps"

    def test_oversubscription_pulls_in_topology_schemes(self, decisions):
        """On the 4:1 fabric the projection goes topology-aware, not PS."""
        assert decisions["4:1-oversub"][10.0]["h0_attn_proj"] in ("ring",
                                                                 "hierps")

    def test_speedups_positive_for_all_systems(self, points):
        for system in fig_llm.SYSTEM_NAMES:
            for bandwidth in fig_llm.FIGURE.bandwidths:
                for label, _ in fig_llm.FIGURE.clusters:
                    assert speedup(points, system, bandwidth, label) > 0.0

    def test_sfb_beats_ps_when_constrained(self, points):
        """Factor traffic wins end to end at 10 GbE on both fabrics."""
        for label, _ in fig_llm.FIGURE.clusters:
            assert speedup(points, "SFB", 10.0, label) > \
                speedup(points, "PS", 10.0, label)


class TestRendering:
    def test_render_structure(self, rendering):
        assert rendering.startswith(
            "Transformer/LLM sweep: timed Algorithm-1 choice per FC layer")
        assert "vocab head lm_head" in rendering
        assert "sfb at every swept bandwidth and topology" in rendering
        assert "crossover: h0_attn_proj flips" in rendering
        assert "DES throughput speedup" in rendering

    def test_report_byte_identical_across_jobs(self, points, rendering):
        """The report must not depend on the sweep worker count: the
        sequential report ends in the series of the two-worker sweep."""
        assert rendering.endswith(
            "\n" + render(fig_llm.FIGURE.layout, points))

    def test_registered_in_runner(self):
        assert "fig_llm" in EXPERIMENTS
