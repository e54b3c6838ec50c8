#!/usr/bin/env python
"""Cluster scaling study: reproduce the headline Figure 5/6 curves.

Sweeps cluster size for a chosen model and prints the speedup of every
system the paper evaluates on that engine, plus the per-node traffic and GPU
stall fraction at the largest size -- the three quantities Figures 5-7 and 10
report.

Run::

    python examples/cluster_scaling_study.py --model vgg19-22k --engine tensorflow
"""

import argparse

from repro.config import ClusterConfig
from repro.experiments.figures import FIG5, FIG6
from repro.nn.model_zoo import get_model_spec
from repro.simulation import simulate_system
from repro.simulation.speedup import scaling_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg19-22k")
    parser.add_argument("--engine", choices=("caffe", "tensorflow"),
                        default="tensorflow")
    parser.add_argument("--bandwidth", type=float, default=40.0)
    parser.add_argument("--nodes", nargs="*", type=int, default=[1, 2, 4, 8, 16, 32])
    args = parser.parse_args()

    model = get_model_spec(args.model)
    systems = (FIG5 if args.engine == "caffe" else FIG6).systems

    print(f"{model.name} on up to {max(args.nodes)} nodes at "
          f"{args.bandwidth:g} GbE ({args.engine} engine)\n")
    print("Speedup vs. single node:")
    for system in systems:
        curve = scaling_curve(model, system, node_counts=args.nodes,
                              bandwidth_gbps=args.bandwidth)
        series = "  ".join(f"{n}:{s:5.1f}" for n, s in
                           zip(curve.node_counts, curve.speedups))
        print(f"  {system.name:16s} {series}")

    largest = max(args.nodes)
    cluster = ClusterConfig(num_workers=largest, bandwidth_gbps=args.bandwidth)
    print(f"\nAt {largest} nodes:")
    for system in systems:
        result = simulate_system(model, system, cluster)
        print(f"  {system.name:16s} traffic "
              f"{result.mean_traffic_gbits:6.1f} Gb/node/iter   "
              f"GPU stall {result.gpu_stall_fraction * 100:5.1f}%")


if __name__ == "__main__":
    main()
