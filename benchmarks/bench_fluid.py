"""Micro-benchmarks of the fluid-mode analytic simulator.

Five measurements bracket the fluid engine's cost:

* ``test_fluid_point`` -- one closed-form evaluation of a 1000-node
  oversubscribed cluster (the aggregate tier: class clocks and one wire
  clock per rack class and direction), the unit of work behind every
  ``engine="fluid"`` sweep point;
* ``test_fluid_sweep_10k`` -- the headline interactive what-if: a full
  bandwidth axis for all seven registered backends on a 10k-node
  oversubscribed cluster, from cold plan and workload memos, one
  scalar pass per axis element.  14-31 ms on rack classes (40-96 ms with
  numpy (racks, axis) wire clocks and order-check re-passes, 0.35 s when
  every phase looped over the 250 racks); the stated budget is 0.2 s;
* ``test_fluid_detail_convoy`` -- the detail tier where it is dearest: the
  64-node SFB and HybComm points on two racks at 2:1, ~20k all-to-all
  copies chained one heap hop each.  A flat plan of theirs is
  node-symmetric and books one sender (~1 ms), so the racked point is the
  one that still runs the every-node convoy: ~30-40 ms on plain-float
  clocks (the flat point read ~20 ms before it booked one node, ~59 ms
  when every booking went through ``np.maximum``);
* ``test_fluid_detail_every_node`` -- the two detail points that book every
  node: 64-node flat Adam (an owner fan: 64 fetches chained one heap hop
  each per unit) and hierarchical PS (a tree of 16 rack groups per unit),
  each from a new simulator, as ``engine="fluid"`` at 64 workers runs
  them: the plan's lowering (once per simulator) and one pass;
* ``test_plan_resolution_10k`` -- what every cold what-if query pays before
  its first pass: resolving the hierarchical-PS and PS plans of a new
  10k-node cluster.  Owners are placed by arithmetic and rack leaders named
  as ranges, so it is O(units) at any cluster size: ~0.5-0.9 ms (2.1-3.5 ms
  while it built a 10k-entry shard tuple and looped over the 250 racks per
  unit).

The DES cannot be benchmarked at these sizes at all -- a single 10k-node
iteration walk is minutes of event processing -- which is the point of the
fluid tier; ``tests/test_fluid.py`` carries the accuracy cross-validation
on DES-sized clusters instead.
"""

import pytest

from repro import memo
from repro.config import ClusterConfig
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import get_model_spec
from repro.simulation import fluid
from repro.simulation.plan import resolve_plan
from repro.simulation.workload import build_workload

VGG19 = get_model_spec("vgg19")
WORKLOAD = build_workload(VGG19)
SYSTEMS = backend_systems()

SWEEP_BANDWIDTHS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 56.0, 100.0)


def _cluster(nodes: int) -> ClusterConfig:
    return ClusterConfig(num_workers=nodes, bandwidth_gbps=40.0,
                         racks=nodes // 40, oversubscription=4.0)


def _fluid_point(nodes: int):
    cluster = _cluster(nodes)
    hybrid = SYSTEMS[2]  # HybComm: exercises the per-unit scheme mix
    return fluid.FluidSimulator(WORKLOAD, cluster, hybrid).run()


def _sweep_all_backends(nodes: int):
    memo.clear_all()  # cold plans: a new what-if query, not a re-query
    cluster = _cluster(nodes)
    curves = [
        fluid.sweep_axis(VGG19, system, cluster, SWEEP_BANDWIDTHS,
                         workload=WORKLOAD)
        for system in SYSTEMS
    ]
    return curves


def _resolve_plans_cold(nodes: int):
    memo.clear_all()  # plans cold (scheme decisions are never cached)
    cluster = _cluster(nodes)
    return [resolve_plan(WORKLOAD, system, cluster)
            for system in SYSTEMS if system.comm in ("hierps", "ps")]


def _detail_convoy(nodes: int):
    cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0, racks=2,
                            oversubscription=2.0)
    return [fluid.FluidSimulator(WORKLOAD, cluster, system,
                                 mode="detail").iteration_seconds()
            for system in SYSTEMS if system.name in ("SFB", "HybComm")]


def _detail_every_node(nodes: int):
    cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=40.0)
    return [fluid.FluidSimulator(WORKLOAD, cluster, system,
                                 mode="detail").iteration_seconds()
            for system in SYSTEMS if system.comm in ("adam", "hierps")]


def test_fluid_point(benchmark):
    """One 1000-node closed-form evaluation (aggregate tier)."""
    result = benchmark(_fluid_point, 1000)
    assert result.iteration_seconds > 0
    benchmark.extra_info["nodes"] = 1000


def test_fluid_detail_convoy(benchmark):
    """64-node, 2-rack SFB and HybComm evaluations (detail tier, per-copy
    convoy on every node)."""
    seconds = benchmark(_detail_convoy, 64)
    assert len(seconds) == 2 and all(type(t) is float for t in seconds)
    benchmark.extra_info["nodes"] = 64


def test_fluid_detail_every_node(benchmark):
    """64-node flat Adam and hierarchical-PS evaluations (detail tier, every
    node booked), lowering included."""
    seconds = benchmark(_detail_every_node, 64)
    assert len(seconds) == 2 and all(type(t) is float for t in seconds)
    benchmark.extra_info["nodes"] = 64


def test_plan_resolution_10k(benchmark):
    """Cold hierarchical-PS and PS plan resolution on a new 10k-node cluster."""
    plans = benchmark(_resolve_plans_cold, 10000)
    assert [len(plan.units) for plan in plans] == [len(WORKLOAD.units)] * 2
    benchmark.extra_info["nodes"] = 10000


def test_fluid_sweep_10k(benchmark):
    """Cold 10k-node bandwidth sweep across all seven backends."""
    curves = benchmark(_sweep_all_backends, 10000)
    assert len(curves) == len(SYSTEMS)
    assert all(curve.shape == (len(SWEEP_BANDWIDTHS),) for curve in curves)
    # The stated budget: interactive what-if means the whole cold sweep
    # lands within 0.2 s of wall-clock (five times the baseline, so a slow
    # box does not trip it; the 25 % gate is compare.py's).  stats is None
    # under --benchmark-disable (the bench-smoke CI job), where only the
    # shape assertions above apply.
    if benchmark.stats is not None:
        assert benchmark.stats.stats.mean <= 0.2
    benchmark.extra_info["points"] = len(SYSTEMS) * len(SWEEP_BANDWIDTHS)
