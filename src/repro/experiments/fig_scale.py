"""Scale extrapolation: all seven backends at 1k-10k nodes (fluid engine).

The paper's testbed tops out at 32 nodes; this experiment asks how the
Algorithm-1 backends *would* rank on clusters three orders of magnitude
larger -- flat and rack-oversubscribed, alone and with other jobs
contending for the same rack uplinks.  The event-driven simulator cannot
walk clusters of this size interactively, so every point is evaluated by
the closed-form fluid engine (:mod:`repro.simulation.fluid`); the
``engine="auto"`` switchover means these are exactly the sizes where the
fluid tiers are authoritative.

Single-job and multi-job speedups share one sweep: the multi-job column
re-evaluates each point with ``background_jobs`` additional identical jobs
whose cross-rack traffic fluid-shares the rack uplink aggregate
(``node_bw * members / oversubscription``), stretching every rack-wire
busy interval by the job count.

The figure keeps a custom body rather than a
:class:`~repro.experiments.figure.Figure`: the multi-job column is a
``background_jobs`` argument of the fluid engine that no other figure
sets, and the rack count follows the node count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.config import ClusterConfig
from repro.experiments.fig_backends import backend_systems
from repro.logging_util import get_logger
from repro.nn.model_zoo import get_model_spec
from repro.simulation.fluid import simulate_fluid
from repro.simulation.workload import build_workload

LOGGER = get_logger(__name__)

#: Cluster sizes, far past the DES's interactive range.
FIG_SCALE_NODE_COUNTS: Tuple[int, ...] = (1000, 4000, 10000)

#: Rack oversubscription factors: non-blocking vs. the common 4:1.
FIG_SCALE_OVERSUBSCRIPTION: Tuple[float, ...] = (1.0, 4.0)

#: Nodes per rack at scale (a typical dense-GPU rack row).
FIG_SCALE_RACK_SIZE: int = 40

#: Additional identical jobs in the multi-job column.
FIG_SCALE_BACKGROUND_JOBS: int = 1

FIG_SCALE_MODEL: str = "vgg19"
FIG_SCALE_BANDWIDTH_GBPS: float = 40.0


@dataclass
class ScalePoint:
    """One (scheme, nodes, oversubscription) evaluation."""

    scheme: str
    nodes: int
    oversubscription: float
    speedup: float
    multi_job_speedup: float
    iteration_seconds: float


@dataclass
class ScaleSweepResult:
    """All points of the scale sweep, in evaluation order."""

    model_name: str
    bandwidth_gbps: float
    background_jobs: int
    points: List[ScalePoint] = field(default_factory=list)

    def point(self, scheme: str, nodes: int,
              oversubscription: float) -> ScalePoint:
        """Look up one evaluated point.

        Raises:
            KeyError: if that configuration was not part of the sweep.
        """
        for point in self.points:
            if (point.scheme == scheme and point.nodes == nodes
                    and point.oversubscription == oversubscription):
                return point
        raise KeyError((scheme, nodes, oversubscription))


def _cluster(nodes: int, oversubscription: float,
             bandwidth_gbps: float) -> ClusterConfig:
    if oversubscription == 1.0:
        return ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth_gbps)
    return ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth_gbps,
                         racks=max(2, nodes // FIG_SCALE_RACK_SIZE),
                         oversubscription=oversubscription)


def run_fig_scale(node_counts: Sequence[int] = FIG_SCALE_NODE_COUNTS,
                  oversubscription: Sequence[float] = FIG_SCALE_OVERSUBSCRIPTION,
                  model: str = FIG_SCALE_MODEL,
                  bandwidth_gbps: float = FIG_SCALE_BANDWIDTH_GBPS,
                  background_jobs: int = FIG_SCALE_BACKGROUND_JOBS
                  ) -> ScaleSweepResult:
    """Evaluate every (scheme, nodes, oversub) point with the fluid engine.

    The sweep runs in-process: it is closed-form arithmetic and finishes in
    well under a second, so process workers would only add overhead.
    """
    spec = get_model_spec(model)
    result = ScaleSweepResult(model_name=spec.name,
                              bandwidth_gbps=bandwidth_gbps,
                              background_jobs=background_jobs)
    start = time.time()
    for system in backend_systems():
        for nodes in node_counts:
            for oversub in oversubscription:
                cluster = _cluster(nodes, oversub, bandwidth_gbps)
                workload = build_workload(spec, gpu=cluster.gpu)
                alone = simulate_fluid(spec, system, cluster,
                                       workload=workload)
                shared = simulate_fluid(spec, system, cluster,
                                        workload=workload,
                                        background_jobs=background_jobs)
                result.points.append(ScalePoint(
                    scheme=system.name,
                    nodes=nodes,
                    oversubscription=oversub,
                    speedup=alone.speedup,
                    multi_job_speedup=shared.speedup,
                    iteration_seconds=alone.iteration_seconds,
                ))
    LOGGER.info("fig_scale: %d fluid points in %.2fs",
                len(result.points), time.time() - start)
    return result


def render(result: ScaleSweepResult) -> str:
    """Render the sweep as one block per scheme."""
    extra = result.background_jobs + 1
    lines: List[str] = [
        f"Scale extrapolation (fluid engine): {result.model_name}, "
        f"{result.bandwidth_gbps:.0f} GbE, "
        f"multi-job = {extra} jobs sharing rack uplinks",
    ]
    by_scheme: Dict[str, List[ScalePoint]] = {}
    for point in result.points:
        by_scheme.setdefault(point.scheme, []).append(point)
    for scheme, points in by_scheme.items():
        lines.append(f"  {scheme}:")
        for point in points:
            lines.append(
                f"    n={point.nodes:6d} oversub={point.oversubscription:3.0f}"
                f"  speedup={point.speedup:9.1f}x"
                f"  multi-job={point.multi_job_speedup:9.1f}x"
                f"  iter={point.iteration_seconds * 1e3:9.2f} ms")
    return "\n".join(lines)


def report(quick: bool = False) -> str:
    """The runner's fig_scale section (1000 nodes only when ``quick``)."""
    return render(run_fig_scale(node_counts=(1000,) if quick
                                else FIG_SCALE_NODE_COUNTS))
