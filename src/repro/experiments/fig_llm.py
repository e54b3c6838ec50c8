"""Transformer/LLM sweep: timed per-layer scheme choice, bandwidth x topology.

The paper's Algorithm 1 was designed around CNN-era FC layers; this figure
puts GPT workloads in front of it.  A token FC layer caches one factor row
per token, so its sufficient factors have ``K = batch * seq_len`` rows
(3,072 for ``nanogpt-12l``) and SFB's ``2 K (P1 - 1)(M + N)`` dwarfs the
dense ``M x N`` gradient for every layer, the ``n_embd x vocab`` head
included: no FC layer picks SFB at any swept bandwidth or topology.  The
flat fabric keeps every layer on the PS; under 4:1 rack oversubscription
the topology-aware collectives take over, and there the attention output
projection flips ring -> hierarchical PS as the bandwidth grows.  The
volumetric Algorithm 1 cannot see such a flip -- parameter counts are
bandwidth-invariant -- so the figure sweeps the *timed* variant
(:meth:`~repro.core.cost_model.CostModel.best_scheme_timed`, which adds
per-message latency and factor-reconstruction compute) across bandwidth and
rack topology, plus end-to-end DES throughput for the fixed schemes and the
hybrid.

The throughput series are a :class:`~repro.experiments.figure.Figure`; the
decision table keeps a custom body, as it is the cost model's per-layer
choice rather than a simulated point.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.config import ClusterConfig
from repro.core.cost_model import CostModel
from repro.experiments.fig_backends import backend_systems
from repro.experiments.figure import Figure, Series, Text, render
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import LayerKind, ModelSpec

#: Throughput systems compared end to end (subset of the backend zoo).
SYSTEM_NAMES = ("PS", "SFB", "HybComm")

#: GPT-style configs at the paper's testbed scale (16 nodes), at its
#: constrained and full bandwidths, flat and 4:1 rack-oversubscribed.
FIGURE = Figure(
    models=("nanogpt-12l", "gpt2-small"),
    systems=tuple(system for system in backend_systems()
                  if system.name in SYSTEM_NAMES),
    bandwidths=(10.0, 40.0),
    clusters=(("flat", ClusterConfig(num_workers=16)),
              ("4:1-oversub", ClusterConfig(num_workers=16, racks=4,
                                            oversubscription=4.0))),
    quick={"models": ("nanogpt-12l",)},
    layout=(
        Text("  DES throughput speedup at {cluster.num_workers} nodes:"),
        Series("    {model.name} {system.name:8s}",
               "{cluster.bandwidth_gbps:g}GbE/{topology}",
               "{result.speedup:.1f}"),
    ))


def decision_layers(model: ModelSpec) -> List[str]:
    """FC layers whose scheme choice the report shows.

    All transformer blocks share the same shapes, so block 0 stands for
    the twelve; the vocabulary head is the headline layer.
    """
    names = [layer.name for layer in model.layers
             if layer.kind is LayerKind.FC and layer.sf_decomposable]
    return [name for name in names
            if name.startswith("h0_") or not name.startswith("h")]


def timed_decisions(model: ModelSpec, figure: Figure = FIGURE
                    ) -> Dict[str, Dict[float, Dict[str, str]]]:
    """``best_scheme_timed`` per topology label -> bandwidth -> layer."""
    layers = decision_layers(model)
    decisions: Dict[str, Dict[float, Dict[str, str]]] = {}
    for topology, cluster in figure.clusters:
        decisions[topology] = {}
        for bandwidth in map(float, figure.bandwidths):
            cost_model = CostModel(cluster.with_bandwidth(bandwidth),
                                   batch_size=model.default_batch_size)
            decisions[topology][bandwidth] = {
                name: cost_model.best_scheme_timed(model.layer(name))
                for name in layers
            }
    return decisions


def flipping_layers(by_bandwidth: Mapping[float, Mapping[str, str]]
                    ) -> List[str]:
    """Layers whose choice differs across one topology's bandwidths."""
    layers = next(iter(by_bandwidth.values()))
    return [layer for layer in layers
            if len({per_layer[layer] for per_layer in by_bandwidth.values()}) > 1]


def report(quick: bool = False) -> str:
    """The decision grid with its headline facts, then the DES series."""
    figure = FIGURE.reduced(quick)
    bandwidths = [float(bandwidth) for bandwidth in figure.bandwidths]
    lines: List[str] = [
        f"Transformer/LLM sweep: timed Algorithm-1 choice per FC layer, "
        f"{figure.clusters[0][1].num_workers} nodes",
        "  (Table-1 factor costs use K = batch x seq_len, one factor row "
        "per token; see docs)",
    ]
    for model_key in figure.models:
        spec = get_model_spec(model_key)
        decisions = timed_decisions(spec, figure)
        blocks = sum(1 for layer in spec.layers
                     if layer.name.endswith("_attn_core"))
        head = spec.layer("lm_head")
        rows = spec.default_batch_size * head.factor_rank
        lines.append(
            f"  {spec.name}: {spec.total_params / 1e6:.0f}M params, "
            f"{blocks} blocks, batch {spec.default_batch_size}, "
            f"K = {rows} factor rows")
        for topology, by_bandwidth in decisions.items():
            for bandwidth, per_layer in by_bandwidth.items():
                rendered = " ".join(f"{layer}={scheme}"
                                    for layer, scheme in per_layer.items())
                lines.append(f"    {topology:12s} @ {bandwidth:g} GbE: "
                             f"{rendered}")
        sfb_layers = sorted({layer for by_bandwidth in decisions.values()
                             for per_layer in by_bandwidth.values()
                             for layer, scheme in per_layer.items()
                             if scheme == "sfb"})
        if sfb_layers:
            lines.append(f"    sfb picked for: {' '.join(sfb_layers)}")
        else:
            lines.append("    no FC layer picks sfb at any swept bandwidth "
                         "or topology")
        m, n = head.fc_dims
        head_choices = ", ".join(
            "/".join(sorted({per_layer["lm_head"]
                             for per_layer in by_bandwidth.values()}))
            + f" ({topology})"
            for topology, by_bandwidth in decisions.items())
        lines.append(f"    vocab head lm_head ({m}x{n}): {head_choices}")
        flips = [(topology, layer) for topology, by_bandwidth
                 in decisions.items() for layer in flipping_layers(by_bandwidth)]
        for topology, layer in flips:
            choices = " -> ".join(decisions[topology][bandwidth][layer]
                                  for bandwidth in bandwidths)
            lines.append(f"    crossover: {layer} flips {choices} across "
                         f"{bandwidths[0]:g} -> {bandwidths[-1]:g} GbE "
                         f"({topology})")
        if not flips:
            lines.append("    no layer flips scheme across the swept "
                         "bandwidths")
    lines.append(render(figure.layout, figure.run()))
    return "\n".join(lines)
