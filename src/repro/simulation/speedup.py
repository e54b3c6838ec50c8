"""Scaling sweeps: speedup vs. node count and vs. bandwidth.

These helpers drive :func:`repro.simulation.throughput.simulate_system`
across the node counts and bandwidths of Figures 5, 6, 8 and 9(a) and
package the results as :class:`ScalingCurve` objects the experiment modules
and benchmarks render.

Every sweep point is independent, so all the entry points below enumerate
their configurations as :class:`repro.sweep.SweepTask` objects and execute
them through :func:`repro.sweep.run_sweep` -- serially by default, or over
a process pool when a ``jobs`` argument (or the runner's ``--jobs`` flag)
asks for one.  Results are merged by config key, so the curves are
identical whichever way the sweep ran.

:func:`run_points` runs each distinct :func:`simulation_identity` of a
sweep once, so a HybComm point whose per-layer decision is SFB's (or
PS's) shares that point's run; nothing is kept across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.config import ClusterConfig, SystemConfig
from repro.nn.spec import ModelSpec
from repro.simulation.fluid import resolve_engine, session_engine
from repro.simulation.plan import SyncPlan, resolve_plan
from repro.simulation.throughput import SimulationResult, simulate_system
from repro.simulation.workload import IterationWorkload, build_workload
from repro.sweep import SweepTask, _check_unique_keys, run_sweep

#: Node counts used by the paper's scaling figures.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclass
class ScalingCurve:
    """Speedup of one system on one model across cluster sizes."""

    model_name: str
    system_name: str
    bandwidth_gbps: float
    node_counts: List[int] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)
    results: List[SimulationResult] = field(default_factory=list)

    def speedup_at(self, nodes: int) -> float:
        """Speedup at a specific cluster size.

        Raises:
            KeyError: if that size was not simulated.
        """
        try:
            return self.speedups[self.node_counts.index(nodes)]
        except ValueError as exc:
            raise KeyError(f"no result for {nodes} nodes") from exc


def simulate_point(model: ModelSpec, system: SystemConfig, nodes: int,
                   bandwidth_gbps: float = 40.0,
                   batch_size: Optional[int] = None,
                   base_cluster: Optional[ClusterConfig] = None,
                   workload: Optional[IterationWorkload] = None,
                   engine: Optional[str] = None) -> SimulationResult:
    """Simulate one sweep point (module-level, hence picklable)."""
    return simulate_system(model, system,
                           _point_cluster(nodes, bandwidth_gbps, base_cluster),
                           batch_size=batch_size, workload=workload,
                           engine=engine)


def _point_cluster(nodes: int, bandwidth_gbps: float,
                   base_cluster: Optional[ClusterConfig]) -> ClusterConfig:
    if base_cluster is not None:
        return base_cluster.with_workers(nodes).with_bandwidth(bandwidth_gbps)
    return ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth_gbps)


def simulation_identity(engine: str, workload: IterationWorkload,
                        plan: SyncPlan, system: SystemConfig,
                        cluster: ClusterConfig) -> Hashable:
    """Everything one simulation's result depends on but the system's name.

    ``engine`` is the resolved engine (``"des"`` or ``"fluid"``).  A
    :class:`SyncPlan` compares by object, so its contents stand in for it:
    ``shape`` and ``units`` (a bucketed plan's workload follows from those
    and ``bucket_bytes``).  The engines read ``system.comm`` only through
    the plan, so it is left out with the name, and HybComm's point where
    Algorithm 1 puts every unit on SFB has SFB's identity.
    """
    return (engine, workload, plan.shape, plan.units,
            tuple(getattr(system, f.name) for f in fields(system)
                  if f.name not in ("name", "comm")),
            cluster)


@dataclass(frozen=True)
class PointTask(SweepTask):
    """One sweep point: :func:`simulate_point` over ``args`` / ``kwargs``,
    and the :func:`simulation_identity` of the simulation it runs."""

    identity: Hashable = None


def point_key(model: ModelSpec, system: SystemConfig, bandwidth_gbps: float,
              nodes: int) -> Tuple[str, str, float, int]:
    """Canonical sweep key of one (model, system, bandwidth, nodes) config."""
    return (model.name, system.name, float(bandwidth_gbps), int(nodes))


def curve_tasks(model: ModelSpec, system: SystemConfig,
                node_counts: Sequence[int],
                bandwidth_gbps: float = 40.0,
                batch_size: Optional[int] = None,
                base_cluster: Optional[ClusterConfig] = None,
                engine: Optional[str] = None) -> List[PointTask]:
    """Enumerate one scaling curve as independent sweep tasks.

    The iteration workload only depends on (model, batch size, GPU), so it
    is derived once here -- :func:`build_workload` memoizes by exactly that
    key, so repeated curves (e.g. one per bandwidth in Figure 8) share one
    instance -- and shipped with every task instead of being rebuilt per
    sweep point.  Resolved plans are likewise memoized per (workload,
    system, cluster with the bandwidth normalised away), so a bandwidth
    sweep re-derives neither.  Each point's plan is resolved here, in the
    enumerating process, for the point's :func:`simulation_identity`; so a
    configuration no engine can run (say ring under SSP) raises here.
    """
    gpu_source = base_cluster if base_cluster is not None else ClusterConfig(
        num_workers=1)
    workload = build_workload(model, batch_size=batch_size,
                              gpu=gpu_source.gpu)
    # Bake the session default in at enumeration time: sweep tasks may run
    # in worker processes where a use_engine() context would not be active.
    engine = session_engine() if engine is None else engine
    tasks = []
    for nodes in map(int, node_counts):
        cluster = _point_cluster(nodes, bandwidth_gbps, base_cluster)
        identity = simulation_identity(
            resolve_engine(engine, nodes), workload,
            resolve_plan(workload, system, cluster), system, cluster)
        tasks.append(PointTask(
            key=point_key(model, system, bandwidth_gbps, nodes),
            fn=simulate_point,
            args=(model, system, nodes),
            kwargs={"bandwidth_gbps": bandwidth_gbps,
                    "batch_size": batch_size,
                    "base_cluster": base_cluster,
                    "workload": workload,
                    "engine": engine},
            identity=identity))
    return tasks


def run_points(tasks: Sequence[PointTask], jobs: Optional[int] = None
               ) -> Dict[Hashable, SimulationResult]:
    """Run a sweep's points: ``{task.key: result}`` in task order.

    Each distinct :attr:`PointTask.identity` runs once, through
    :func:`~repro.sweep.run_sweep` (so before any pool dispatch); a later
    point with the same identity gets a copy of that run's result,
    relabelled with its own system name.  Nothing outlives the call: a
    second sweep over the same points simulates them again.

    Raises:
        ValueError: on duplicate task keys.
    """
    _check_unique_keys(tasks)
    runs: Dict[Hashable, PointTask] = {}
    for task in tasks:
        runs.setdefault(task.identity, task)
    # The identity stays here: a pool worker needs only what it runs.
    done = run_sweep([SweepTask(task.key, task.fn, task.args, task.kwargs)
                      for task in runs.values()], jobs=jobs)
    results: Dict[Hashable, SimulationResult] = {}
    for task in tasks:
        run = runs[task.identity]
        result = done[run.key]
        if run is not task:  # args are simulate_point's (model, system, nodes)
            result = replace(
                result, system_name=task.args[1].name,
                per_node_traffic_bytes=list(result.per_node_traffic_bytes),
                scheme_by_unit=dict(result.scheme_by_unit))
        results[task.key] = result
    return results


def curve_from_results(model: ModelSpec, system: SystemConfig,
                       node_counts: Sequence[int], bandwidth_gbps: float,
                       results: Mapping[Hashable, SimulationResult]
                       ) -> ScalingCurve:
    """Assemble a :class:`ScalingCurve` from merged sweep results."""
    curve = ScalingCurve(
        model_name=model.name,
        system_name=system.name,
        bandwidth_gbps=bandwidth_gbps,
    )
    for nodes in node_counts:
        result = results[point_key(model, system, bandwidth_gbps, nodes)]
        curve.node_counts.append(int(nodes))
        curve.speedups.append(result.speedup)
        curve.results.append(result)
    return curve


def scaling_curve(model: ModelSpec, system: SystemConfig,
                  node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
                  bandwidth_gbps: float = 40.0,
                  batch_size: Optional[int] = None,
                  base_cluster: Optional[ClusterConfig] = None,
                  jobs: Optional[int] = None,
                  engine: Optional[str] = None) -> ScalingCurve:
    """Simulate ``system`` training ``model`` across ``node_counts``."""
    tasks = curve_tasks(model, system, node_counts,
                        bandwidth_gbps=bandwidth_gbps, batch_size=batch_size,
                        base_cluster=base_cluster, engine=engine)
    results = run_points(tasks, jobs=jobs)
    return curve_from_results(model, system, node_counts, bandwidth_gbps,
                              results)


def compare_systems(model: ModelSpec, systems: Sequence[SystemConfig],
                    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
                    bandwidth_gbps: float = 40.0,
                    batch_size: Optional[int] = None,
                    jobs: Optional[int] = None,
                    engine: Optional[str] = None) -> Dict[str, ScalingCurve]:
    """Scaling curves for several systems on the same model (Figures 5/6).

    All (system, nodes) configurations run in a single flat sweep.
    """
    tasks = [
        task
        for system in systems
        for task in curve_tasks(model, system, node_counts,
                                bandwidth_gbps=bandwidth_gbps,
                                batch_size=batch_size, engine=engine)
    ]
    results = run_points(tasks, jobs=jobs)
    return {
        system.name: curve_from_results(model, system, node_counts,
                                        bandwidth_gbps, results)
        for system in systems
    }
