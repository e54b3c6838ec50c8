#!/usr/bin/env python
"""Bandwidth planning: how much Ethernet does a model need to scale?

The question practitioners ask before renting a cluster: given a model and a
target cluster size, which interconnect keeps the GPUs busy?  This example
sweeps bandwidth for VGG19 and VGG19-22K (the paper's Figure 8 setting) and
prints, for every bandwidth, the speedup with and without Poseidon's hybrid
communication -- showing where a plain parameter server falls off a cliff and
Poseidon keeps scaling.

Run::

    python examples/bandwidth_planning.py [--nodes 16]
"""

import argparse

from repro.config import CAFFE_WFBP, POSEIDON_CAFFE, ClusterConfig
from repro.nn.model_zoo import get_model_spec
from repro.simulation import simulate_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--models", nargs="*", default=["vgg19", "vgg19-22k"])
    parser.add_argument("--bandwidths", nargs="*", type=float,
                        default=[5.0, 10.0, 20.0, 30.0, 40.0])
    args = parser.parse_args()

    for model_key in args.models:
        model = get_model_spec(model_key)
        print(f"\n{model.name}: {model.total_params / 1e6:.0f}M parameters, "
              f"{model.fc_param_fraction * 100:.0f}% in FC layers, "
              f"{args.nodes} nodes")
        print(f"  {'GbE':>5s}  {'PS only':>8s}  {'Poseidon':>8s}  {'gain':>6s}")
        for bandwidth in args.bandwidths:
            cluster = ClusterConfig(num_workers=args.nodes, bandwidth_gbps=bandwidth)
            ps_only = simulate_system(model, CAFFE_WFBP, cluster).speedup
            poseidon = simulate_system(model, POSEIDON_CAFFE, cluster).speedup
            gain = poseidon / ps_only if ps_only else float("inf")
            print(f"  {bandwidth:5.0f}  {ps_only:8.1f}  {poseidon:8.1f}  {gain:5.2f}x")
        print("  (speedup over a single node; 'PS only' = WFBP with dense PS traffic)")


if __name__ == "__main__":
    main()
