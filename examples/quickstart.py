#!/usr/bin/env python
"""Quickstart: plan and simulate Poseidon for one model on one cluster.

This walks the three layers of the public API:

1. Pick a model from the zoo (VGG19 here) and describe the cluster.
2. Resolve the sync plan the engines run
   (:func:`repro.simulation.plan.resolve_plan`) -- it decides, per layer,
   whether to synchronize through the sharded parameter server or through
   sufficient-factor broadcasting (Algorithm 1 / HybComm).
3. Simulate one training iteration of three systems (vanilla PS, WFBP-only,
   full Poseidon) and print the resulting throughput speedups and traffic.

Run::

    python examples/quickstart.py
"""

from repro.config import CAFFE_PS, CAFFE_WFBP, POSEIDON_CAFFE, ClusterConfig
from repro.nn.model_zoo import get_model_spec
from repro.simulation import build_workload, simulate_system
from repro.simulation.plan import resolve_plan


def main() -> None:
    model = get_model_spec("vgg19")
    cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0)
    batch_size = 32

    # --- 1. planning: what does Poseidon decide to do? -----------------------
    plan = resolve_plan(build_workload(model, batch_size), POSEIDON_CAFFE,
                        cluster)
    print(f"Poseidon plan for {model.name} on {cluster.num_workers} workers "
          f"({cluster.bandwidth_gbps:g} GbE, batch {batch_size})")
    print(f"  parameters: {model.total_params / 1e6:.1f}M "
          f"({model.fc_param_fraction * 100:.0f}% in FC layers)")
    print("Per-layer decisions for the three FC layers:")
    for layer_name in ("fc6", "fc7", "fc8"):
        print(f"  {layer_name}: {plan.schemes[layer_name].upper()}")
    print()

    # --- 2. simulation: what does that buy in throughput? --------------------
    print(f"Simulated speedup on {cluster.num_workers} nodes "
          f"at {cluster.bandwidth_gbps:g} GbE (baseline: single-node Caffe):")
    traffic = {}
    for system in (CAFFE_PS, CAFFE_WFBP, POSEIDON_CAFFE):
        result = simulate_system(model, system, cluster, batch_size=batch_size)
        traffic[system] = result.mean_traffic_gbits
        print(f"  {system.name:18s} speedup {result.speedup:5.1f}x   "
              f"GPU busy {result.gpu_busy_fraction * 100:5.1f}%   "
              f"traffic {result.mean_traffic_gbits:5.1f} Gb/node/iter")
    saved = 1.0 - traffic[POSEIDON_CAFFE] / traffic[CAFFE_WFBP]
    print(f"Hybrid communication saves {saved * 100:.1f}% of the per-node "
          f"traffic of pure PS.")


if __name__ == "__main__":
    main()
