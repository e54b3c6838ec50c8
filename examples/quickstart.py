#!/usr/bin/env python
"""Quickstart: plan and simulate Poseidon for one model on one cluster.

This walks the three layers of the public API:

1. Pick a model from the zoo (VGG19 here) and describe the cluster.
2. Build a :class:`PoseidonContext` -- the coordinator decides, per layer,
   whether to synchronize through the sharded parameter server or through
   sufficient-factor broadcasting (Algorithm 1 / HybComm).
3. Simulate one training iteration of three systems (vanilla PS, WFBP-only,
   full Poseidon) and print the resulting throughput speedups.

Run::

    python examples/quickstart.py
"""

from repro.config import (
    CAFFE_PS,
    CAFFE_WFBP,
    POSEIDON_CAFFE,
    ClusterConfig,
    TrainingConfig,
)
from repro.core.poseidon import PoseidonContext
from repro.nn.model_zoo import get_model_spec
from repro.simulation import simulate_system


def main() -> None:
    model = get_model_spec("vgg19")
    cluster = ClusterConfig(num_workers=16, bandwidth_gbps=10.0)
    training = TrainingConfig(batch_size=32)

    # --- 1. planning: what does Poseidon decide to do? -----------------------
    context = PoseidonContext(model, cluster, training)
    print(context.describe())
    print()
    print("Per-layer decisions for the three FC layers:")
    for layer_name in ("fc6", "fc7", "fc8"):
        print(f"  {layer_name}: {context.best_scheme(layer_name).upper()}")
    print()

    # --- 2. simulation: what does that buy in throughput? --------------------
    print(f"Simulated speedup on {cluster.num_workers} nodes "
          f"at {cluster.bandwidth_gbps:g} GbE (baseline: single-node Caffe):")
    for system in (CAFFE_PS, CAFFE_WFBP, POSEIDON_CAFFE):
        result = simulate_system(model, system, cluster)
        print(f"  {system.name:18s} speedup {result.speedup:5.1f}x   "
              f"GPU busy {result.gpu_busy_fraction * 100:5.1f}%   "
              f"traffic {result.mean_traffic_gbits:5.1f} Gb/node/iter")


if __name__ == "__main__":
    main()
