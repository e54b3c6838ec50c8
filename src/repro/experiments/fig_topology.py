"""Topology sweep: every communication scheme under rack oversubscription.

The paper's testbed (and every original figure) assumes a flat
full-bisection network.  Real GPU clusters are rack-oversubscribed: the
top-of-rack uplink carries a fraction ``1/oversubscription`` of the
bandwidth its members could inject.  This experiment sweeps that factor
across every registered communication backend and shows the headline
consequence: schemes that fan traffic across all peers (PS, SFB) degrade
with the oversubscription factor, while the topology-aware collectives
-- ring all-reduce (one boundary flow per rack) and hierarchical PS (one
pre-reduced aggregate per rack) -- hold their throughput.  PS falls
behind ring all-reduce, ring becomes GoogLeNet's fastest exact scheme,
and Algorithm 1's per-layer choice (rack-aware, see
:func:`repro.comm.backend.hybrid_choice`) shifts towards it; VGG19's
sufficient factors stay small enough for SFB to remain its fastest exact
scheme at 8x.

The speedup series are a :class:`~repro.experiments.figure.Figure`; the
Algorithm-1 shift keeps a custom body, as it is the volumetric cost
model's per-layer choice rather than a simulated point, printed after each
model's series.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.config import ClusterConfig
from repro.core.cost_model import CostModel
from repro.experiments.fig_backends import SCHEME_LABELS, backend_systems
from repro.experiments.figure import Best, Figure, Group, Series, Text, render
from repro.nn.model_zoo import get_model_spec
from repro.nn.spec import LayerKind, ModelSpec

#: Schemes that compute the exact update (1-bit quantization buys bandwidth
#: with convergence, Section 5.3, so it is ranked apart).
EXACT_SCHEMES: Tuple[str, ...] = tuple(
    label for comm, label in SCHEME_LABELS if comm != "onebit")


def racked(oversubscription: Sequence[float], nodes: int = 16, racks: int = 4
           ) -> Tuple[Tuple[float, ClusterConfig], ...]:
    """The cluster axis: ``nodes`` in ``racks`` at each oversubscription."""
    return tuple((float(factor), ClusterConfig(num_workers=nodes, racks=racks,
                                               oversubscription=factor))
                 for factor in oversubscription)


TITLE = Text("Rack-topology sweep: {cluster.num_workers} nodes in "
             "{cluster.racks} racks, speedup vs. cross-rack oversubscription")
SERIES = Group("  {model.name} @ {cluster.bandwidth_gbps:g} GbE:", (
    Series("    {system.name:16s}", "{topology:g}x", "{result.speedup:.1f}"),
    Best("    fastest exact scheme at {first.topology:g}x oversubscription: "
         "{first.system.name} ({first.result.speedup:.1f}x speedup)",
         metric="speedup", among=EXACT_SCHEMES, at={"topology": max}),
))

#: An FC-heavy and a conv-heavy model at constrained and full bandwidth.
FIGURE = Figure(
    models=("vgg19", "googlenet"),
    systems=backend_systems(),
    bandwidths=(10.0, 40.0),
    clusters=racked((1.0, 2.0, 4.0, 8.0)),
    quick={"models": ("vgg19",), "clusters": racked((1.0, 4.0, 8.0))},
    layout=(TITLE, SERIES),
)


def algorithm1_choices(model: ModelSpec, figure: Figure = FIGURE
                       ) -> Dict[float, Dict[str, str]]:
    """Algorithm 1's choice per FC layer at every oversubscription factor,
    at the figure's first bandwidth."""
    choices: Dict[float, Dict[str, str]] = {}
    for factor, cluster in figure.clusters:
        cost_model = CostModel(cluster.with_bandwidth(figure.bandwidths[0]),
                               batch_size=model.default_batch_size)
        choices[factor] = {
            layer.name: cost_model.best_scheme(layer)
            for layer in model.layers
            if layer.kind is LayerKind.FC and layer.sf_decomposable
        }
    return choices


def report(quick: bool = False) -> str:
    """Per model: the speedup series, then the Algorithm-1 shift."""
    figure = FIGURE.reduced(quick)
    points = figure.run()
    lines = [render((TITLE,), points)]
    for model_key in figure.models:
        model = get_model_spec(model_key)
        lines.append(render((SERIES,), points.where(model=model.name)))
        lines.append(f"  {model.name}: Algorithm-1 choice per FC layer "
                     f"(rack-aware cost model):")
        for factor, per_layer in algorithm1_choices(model, figure).items():
            rendered = " ".join(f"{layer}={scheme}"
                                for layer, scheme in per_layer.items())
            lines.append(f"    oversub {factor:g}x: {rendered}")
    return "\n".join(lines)
