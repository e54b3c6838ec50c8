"""Figure 9: ResNet-152 throughput scaling and statistical convergence.

Panel (a): speedup vs. number of nodes for Poseidon-TensorFlow against stock
TensorFlow -- a :class:`~repro.experiments.figure.Figure`.  Panel (b):
top-1 error vs. epoch for 8/16/32 nodes -- Poseidon's synchronous training
reaches the reported 0.24 error within ~90 epochs on 16 and 32 nodes, so
time-to-accuracy scales with throughput.

Panel (b) keeps a custom body: it is a table of the calibrated
learning-curve model of :mod:`repro.simulation.convergence` (ImageNet-scale
ResNet training is not runnable here), timed by panel (a)'s Poseidon
points, not a sweep metric.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config import POSEIDON_TF, TF
from repro.experiments.figure import Figure, Points, Series, Text, render
from repro.experiments.report import format_table
from repro.simulation.convergence import (
    RESNET152_FINAL_ERROR,
    resnet152_error_curve,
    time_to_error_hours,
)

#: Panel (a).
FIGURE = Figure(
    models=("resnet-152",),
    systems=(POSEIDON_TF, TF),
    nodes=(1, 2, 4, 8, 16, 32),
    quick={"nodes": (1, 8, 32)},
    layout=(
        Text("Figure 9(a): ResNet-152 throughput speedup"),
        Series("  {system.name:14s}", "{cluster.num_workers}",
               "{result.speedup:.1f}"),
    ))

#: Node counts of panel (b).
CONVERGENCE_NODES = (8, 16, 32)


def convergence(points: Points, node_counts: Sequence[int] = CONVERGENCE_NODES
                ) -> List[Tuple[int, float, Optional[float], Optional[float]]]:
    """Panel (b): (nodes, final error, epochs to ~0.25, hours to accuracy).

    The hours are ``None`` where panel (a) did not simulate that node count.
    """
    rows = []
    for nodes in node_counts:
        curve = resnet152_error_curve(nodes, epochs=120)
        seconds = [point.result.iteration_seconds for point in
                   points.where(system=POSEIDON_TF.name, nodes=nodes).values()]
        hours = time_to_error_hours(nodes, seconds[0]) if seconds else None
        rows.append((nodes, curve.final_error,
                     curve.epochs_to_reach(RESNET152_FINAL_ERROR + 0.01), hours))
    return rows


def report(quick: bool = False) -> str:
    """Both panels: (a) from the driver, (b) from the convergence model."""
    figure = FIGURE.reduced(quick)
    points = figure.run()
    rows = [(f"{nodes} nodes", error,
             epochs if epochs is not None else "not reached",
             f"{hours:.1f} h" if hours is not None else "n/a")
            for nodes, error, epochs, hours in convergence(points)]
    return "\n".join([
        render(figure.layout, points), "",
        "Figure 9(b): top-1 error vs. epoch (calibrated convergence model)",
        format_table(headers=["Cluster", "Final error", "Epochs to ~0.25",
                              "Time to accuracy"], rows=rows)])
