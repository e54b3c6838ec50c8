"""Event-throughput micro-benchmarks of the flow-level iteration simulator.

Each benchmark simulates one full BSP iteration of a figure-style
configuration and reports the wall-clock per simulated iteration; the
``simulated Kevents/s`` figure printed in PERFORMANCE.md is
``events_processed / mean_s``.  Three traffic patterns bound the simulator's
event graph:

* the SFB configs (VGG19 under HybComm) are dominated by the all-to-all
  sufficient-factor broadcasts of the FC layers -- a symmetric plan since
  the all-to-all became one rotated schedule, so the DES steps one
  representative worker: 178 / 254 events at 8 / 32 nodes (1,098 / 6,456
  while it stepped every worker);
* the fine-PS configs (VGG19 under Caffe+WFBP) are the per-unit KV-store
  scatter/gather against the fabric -- a symmetric plan, so the DES steps
  one representative worker: 171 events at 8, 32 and 64 nodes (985 /
  3,625 / 7,145 while it stepped every worker);
* the ring configs (VGG19 under ring all-reduce) are ``2(P-1)`` lockstep
  chunk steps per unit, booked as one hold per worker in a ring-only BSP
  plan and, being symmetric too, stepped once: 80 events (95 while each
  unit ended on an all-worker countdown nobody waited on; 565 / 2,125
  with every worker in its own process; 2,320 / 32,320 while every step
  had its own all-worker countdown);
* the LLM convoy (``nanogpt-12l`` under SFB, 16 nodes, 40 GbE, two racks
  at 2:1): 35,888 events, every worker stepped through the 49 token FCs'
  all-to-all broadcasts, each copy one queue entry and the float
  operations that book it (a cross-rack copy also holds both rack
  switches) -- the event count is the floor, the time per copy the gate.
  On a flat network the same plan is symmetric and one representative
  worker is stepped (1,348 events), so the gate is racked (under HybComm
  the model broadcasts nothing: at ``K = B * T`` factor rows every unit
  rides the PS);
* the relaxed-policy config (VGG19 under Caffe+WFBP with ``ssp(1)``, 8
  nodes, 10 GbE) is the multi-round run: eight rounds, every worker
  stepped, each gated on its own clock -- 4,920 events where BSP's one
  round of the same plan is 171;
* the every-worker configs (VGG19 under Adam and hierarchical PS, 32
  nodes, 10 GbE) are plans no node stands for: every worker is stepped,
  as one compute class whose kernels are booked once and whose members'
  same-instant syncs start from one entry -- 1,270 / 1,986 events (3,540 /
  3,504 with one process per worker; hierarchical PS 2,001 while each
  unit ended on an all-worker countdown nobody waited on).

The 8-node points track the constant overheads; the 32-node points are the
scaling gate (the event graph used to be quadratic in cluster size), and the
64-node fine-PS point must process exactly the 8-node point's events.
"""

import pytest

from repro.config import (CAFFE_WFBP, POSEIDON_CAFFE, ClusterConfig,
                          poseidon_system)
from repro.nn.model_zoo import get_model_spec
from repro.simulation.throughput import IterationSimulator
from repro.simulation.workload import build_workload

VGG19 = get_model_spec("vgg19")
WORKLOAD = build_workload(VGG19)
LLM_WORKLOAD = build_workload(get_model_spec("nanogpt-12l"))
RING_ALLREDUCE = poseidon_system("Ring-AllReduce", "ring")
SFB = poseidon_system("SFB", "sfb")
#: Plans no node stands for, with the events of their 32-node point.
EVERY_WORKER = {
    "Adam": (poseidon_system("Adam", "adam"), 1270),
    "Hierarchical-PS": (poseidon_system("Hierarchical-PS", "hierps"), 1986),
}


def _simulate(system, nodes, workload=WORKLOAD, bandwidth=40.0, **topology):
    cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=bandwidth,
                            **topology)
    simulator = IterationSimulator(workload, cluster, system)
    result = simulator.run()
    return result, simulator.env.events_processed


@pytest.mark.parametrize("nodes", [8, 32])
def test_flow_sim_sfb(benchmark, nodes):
    """One VGG19 iteration under HybComm (SFB-dominated all-to-all)."""
    result, events = benchmark(_simulate, POSEIDON_CAFFE, nodes)
    assert result.iteration_seconds > 0
    benchmark.extra_info["events_processed"] = events


@pytest.mark.parametrize("nodes", [8, 32, 64])
def test_flow_sim_fine_ps(benchmark, nodes):
    """One VGG19 iteration under Caffe+WFBP (fine-grained KV scatter/gather)."""
    result, events = benchmark(_simulate, CAFFE_WFBP, nodes)
    assert result.iteration_seconds > 0
    assert events == _simulate(CAFFE_WFBP, 8)[1]  # O(units), not O(P * units)
    benchmark.extra_info["events_processed"] = events


@pytest.mark.parametrize("nodes", [8, 32])
def test_flow_sim_ring(benchmark, nodes):
    """One VGG19 iteration under ring all-reduce (lockstep chunk steps)."""
    result, events = benchmark(_simulate, RING_ALLREDUCE, nodes)
    assert result.iteration_seconds > 0
    benchmark.extra_info["events_processed"] = events


def test_flow_sim_llm_convoy(benchmark):
    """One nanogpt-12l iteration under forced SFB at 16 nodes on two racks
    at 2:1 (SFB convoy, every worker stepped)."""
    result, events = benchmark(_simulate, SFB, 16, LLM_WORKLOAD,
                               racks=2, oversubscription=2.0)
    assert result.iteration_seconds > 0
    assert events == 35888  # every worker stepped; a copy is one entry
    benchmark.extra_info["events_processed"] = events


def test_flow_sim_relaxed_policy(benchmark):
    """Eight VGG19 rounds under Caffe+WFBP with ssp(1) (8 nodes, 10 GbE)."""
    result, events = benchmark(_simulate, CAFFE_WFBP.with_policy("ssp(1)"),
                               8, WORKLOAD, 10.0)
    assert result.iteration_seconds > 0
    assert events == 4920  # every worker in every round
    benchmark.extra_info["events_processed"] = events


@pytest.mark.parametrize("system", sorted(EVERY_WORKER))
def test_flow_sim_every_worker(benchmark, system):
    """One VGG19 iteration at 32 nodes, 10 GbE, under a plan no node
    stands for (every worker stepped, one compute class)."""
    config, pinned = EVERY_WORKER[system]
    result, events = benchmark(_simulate, config, 32, WORKLOAD, 10.0)
    assert result.iteration_seconds > 0
    assert events == pinned  # one compute class, not one process per worker
    benchmark.extra_info["events_processed"] = events
