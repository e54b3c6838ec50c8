"""The sweep figures that are nothing but data: one :class:`Figure` each.

A new figure of the "metric of some systems across models x bandwidth x
cluster" shape is one more value here (see :mod:`repro.experiments.figure`
for the fields and the layout blocks).  Figures that need a custom body
(fig9's convergence table, fig_faults, fig_llm, fig_topology, fig_scale)
live in their own modules, and the system ablation sits with the other
ablations in :mod:`repro.experiments.ablation`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.comm.backend import get_backend
from repro.config import (
    ADAM_TF,
    CAFFE_PS,
    CAFFE_WFBP,
    POSEIDON_CAFFE,
    POSEIDON_TF,
    TESLA_K80,
    TF,
    TF_WFBP,
    ClusterConfig,
    Partitioning,
    poseidon_system,
)
from repro.core.policy import SyncPolicy
from repro.experiments.fig_backends import backend_systems
from repro.experiments.figure import Best, Figure, Series, Table, Text

_SPEEDUP = "{result.speedup:.1f}"
_THROUGHPUT = "{result.throughput_images_per_sec:.1f}"
_TRAFFIC = "{result.mean_traffic_gbits:.3f}"
_NODES = "{cluster.num_workers}"

#: Figure 5: Caffe-engine speedups at 40 GbE -- vanilla Caffe+PS, Caffe+WFBP
#: (Poseidon's client library, HybComm off) and the full Poseidon.
FIG5 = Figure(
    models=("googlenet", "vgg19", "vgg19-22k"),
    systems=(CAFFE_PS, CAFFE_WFBP, POSEIDON_CAFFE),
    nodes=(1, 2, 4, 8, 16, 32),
    quick={"nodes": (1, 4, 16)},
    layout=(
        Text("Figure 5: Caffe-engine speedups at {cluster.bandwidth_gbps:g} "
             "GbE (baseline: single-node Caffe)"),
        Series("  {model.name:12s} {system.name:18s}", _NODES, _SPEEDUP),
        Text(""),
        Table(("Model", "System", "Speedup @ max nodes", "Efficiency"),
              ("{model.name}", "{system.name}", "{result.speedup:.2f}",
               "{efficiency:.0%}"),
              at={"nodes": max}),
    ))

#: Figure 6: TensorFlow-engine speedups at 40 GbE -- stock TF, TF+WFBP
#: (dense PS) and the full Poseidon.
FIG6 = Figure(
    models=("inception-v3", "vgg19", "vgg19-22k"),
    systems=(TF, TF_WFBP, POSEIDON_TF),
    nodes=(1, 2, 4, 8, 16, 32),
    quick={"nodes": (1, 4, 16)},
    layout=(
        Text("Figure 6: TensorFlow-engine speedups at "
             "{cluster.bandwidth_gbps:g} GbE (baseline: single-node "
             "TensorFlow)"),
        Series("  {model.name:12s} {system.name:14s}", _NODES, _SPEEDUP),
        Text(""),
        Table(("Model", "System", "Speedup @ max nodes"),
              ("{model.name}", "{system.name}", "{result.speedup:.2f}"),
              at={"nodes": max}),
    ))

#: Figure 7: the share of an iteration the GPU computes vs. waits on 8
#: nodes; Poseidon keeps it busy, stock TF wastes much of it.
FIG7 = Figure(
    models=("inception-v3", "vgg19", "vgg19-22k"),
    systems=(TF, TF_WFBP, POSEIDON_TF),
    nodes=(8,),
    layout=(
        Text("Figure 7: GPU computation vs. stall time on "
             "{cluster.num_workers} nodes at {cluster.bandwidth_gbps:g} GbE"),
        Table(("Model", "System", "Computation", "Stall"),
              ("{model.name}", "{system.name}",
               "{result.gpu_busy_fraction:.0%}",
               "{result.gpu_stall_fraction:.0%}")),
    ))

#: Figure 8: scaling under limited bandwidth, each model over the
#: bandwidths the paper plots it at; HybComm matters most here.
FIG8 = Figure(
    models=("googlenet", "vgg19", "vgg19-22k"),
    systems=(CAFFE_WFBP, POSEIDON_CAFFE),
    bandwidths={"googlenet": (2.0, 5.0, 10.0),
                "vgg19": (10.0, 20.0, 30.0),
                "vgg19-22k": (10.0, 20.0, 30.0)},
    nodes=(1, 2, 4, 8, 16),
    quick={"nodes": (1, 4, 16)},
    layout=(
        Text("Figure 8: throughput scaling with varying network bandwidth "
             "(baseline: single-node Caffe)"),
        Series("  {model.name:12s} {system.name:18s} "
               "{cluster.bandwidth_gbps:4.0f} GbE", _NODES, _SPEEDUP),
    ))

#: Figure 10: per-node traffic of VGG19 on 8 nodes -- Adam's full-matrix
#: pulls overload the shard owning each FC layer, Poseidon stays balanced.
FIG10 = Figure(
    models=("vgg19",),
    systems=(TF_WFBP, ADAM_TF, POSEIDON_TF),
    nodes=(8,),
    layout=(
        Text("Figure 10: per-node communication load, {model.name} on "
             "{cluster.num_workers} nodes"),
        Table(("System", "Mean Gb/iter", "Max Gb/iter", "Imbalance",
               "Per-node Gb/iter"),
              ("{system.name}", "{result.mean_traffic_gbits:.2f}",
               "{result.max_traffic_gbits:.2f}", "{imbalance:.2f}x",
               "{node_gbits:.1f}")),
    ))


#: Backends of the beyond-BSP frontier: the three substrate families
#: (sharded PS, quantized PS, server-free collective).
ASYNC_SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("ps", "PS"),
    ("onebit", "1-bit PS"),
    ("ring", "Ring-AllReduce"),
)


def policy_systems(policies: Sequence[str]) -> Dict[str, object]:
    """``systems`` and ``tags`` of one Poseidon system per (backend, policy).

    A pair the backend's ``supports_policy`` refuses (ring under SSP or
    async) is left out: no trainer or engine runs it.  Names are unique
    per pair (``"PS ssp(2)"``); the tags carry the backend label and the
    policy as spelled on the axis.
    """
    systems, tags = [], {}
    for comm, label in ASYNC_SCHEMES:
        for spec in policies:
            policy = SyncPolicy.parse(spec)
            if not get_backend(comm).supports_policy(policy):
                continue
            system = poseidon_system(f"{label} {policy}", comm).with_policy(policy)
            systems.append(system)
            tags[system.name] = {"scheme": label, "policy": spec}
    return {"systems": tuple(systems), "tags": tags}


#: Beyond BSP: throughput along the staleness axis (bsp, ssp(s), async) and
#: the local-SGD period axis, whose traffic falls as 1/H.
FIG_ASYNC = Figure(
    models=("vgg19",),
    bandwidths=(1.0, 10.0),
    nodes=(8, 16),
    **policy_systems(("bsp", "ssp-1", "ssp-2", "ssp-4", "async",
                      "local-2", "local-4", "local-8")),
    quick={"nodes": (8,),
           **policy_systems(("bsp", "ssp-2", "async", "local-4"))},
    layout=(
        Text("Beyond-BSP frontier: throughput vs. staleness and sync period"),
        Text("  throughput (images/s) at {cluster.num_workers} nodes, by "
             "policy:", at={"nodes": max}),
        Series("    {scheme:16s} {cluster.bandwidth_gbps:4.0f} GbE",
               "{policy}", _THROUGHPUT, at={"nodes": max}),
        Text("  mean per-node traffic (gigabits/iter) at "
             "{cluster.num_workers} nodes:", at={"nodes": max}),
        Series("    {scheme:16s}", "{policy}", _TRAFFIC,
               at={"nodes": max, "bandwidth": min}),
    ))

#: Every registered scheme on identical clusters: how far each fixed scheme
#: is from the per-layer hybrid choice, on an FC-heavy and a conv-heavy model.
FIG_BACKENDS = Figure(
    models=("vgg19", "googlenet"),
    systems=backend_systems(),
    bandwidths=(10.0, 40.0),
    nodes=(2, 4, 8, 16, 32),
    quick={"nodes": (2, 8, 32)},
    layout=(
        Text("Backend comparison: every registered communication scheme "
             "(registry: {registry})"),
        Series("  {model.name:12s} {system.name:16s} "
               "{cluster.bandwidth_gbps:4.0f} GbE", _NODES, _SPEEDUP),
    ))


#: Bucket size of the bucketed compression variants (4 MB, the order of
#: NCCL/DDP's default).
COMPRESSION_BUCKET_BYTES: int = 4 * 1024 * 1024

#: Compression variants: (label, comm mode, compressor spec, bucket bytes).
#: Dense baselines bracket the zoo -- plain PS, the paper's 1-bit PS
#: (wire format burned in) and dense ring; the compressed variants put
#: topk / powersgd on both dense-gradient substrates, and the bucketed rows
#: isolate the granularity axis.
COMPRESSION_VARIANTS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("PS dense", "ps", "none", None),
    ("PS dense +bucket", "ps", "none", COMPRESSION_BUCKET_BYTES),
    ("PS topk(0.01)", "ps", "topk(0.01)", None),
    ("PS powersgd(4)", "ps", "powersgd(4)", None),
    ("1-bit PS", "onebit", "none", None),
    ("Ring dense", "ring", "none", None),
    ("Ring topk(0.01)", "ring", "topk(0.01)", None),
    ("Ring topk(0.01) +bucket", "ring", "topk(0.01)",
     COMPRESSION_BUCKET_BYTES),
)

#: The compression zoo: compressor x bucketing x backend x bandwidth, on
#: coarse per-tensor placement (a lossy payload cannot be split into
#: fixed-size KV pairs).  Compression only matters where the network is the
#: bottleneck, and a sparsified ring beats the paper's dense 1-bit PS there.
FIG_COMPRESSION = Figure(
    models=("vgg19",),
    systems=tuple(
        poseidon_system(label, comm, Partitioning.COARSE)
        .with_compression(compressor, bucket_bytes)
        for label, comm, compressor, bucket_bytes in COMPRESSION_VARIANTS),
    bandwidths=(1.0, 10.0, 40.0),
    nodes=(8, 16),
    quick={"nodes": (8,), "bandwidths": (1.0, 10.0)},
    layout=(
        Text("Compression zoo: compressor x bucketing x backend x bandwidth"),
        Text("  throughput (images/s) at {cluster.num_workers} nodes, by "
             "bandwidth:", at={"nodes": max}),
        Series("    {system.name:24s}", "{cluster.bandwidth_gbps:g}GbE",
               _THROUGHPUT, at={"nodes": max}),
        Text("  mean per-node traffic (gigabits/iter) at "
             "{cluster.num_workers} nodes:", at={"nodes": max}),
        Series("    {system.name:24s}", "{cluster.bandwidth_gbps:g}GbE",
               _TRAFFIC, at={"nodes": max, "bandwidth": min}),
        Best("  crossover at {first.cluster.bandwidth_gbps:g} GbE, "
             "{first.cluster.num_workers} nodes: {first.system.name} "
             "({first.result.throughput_images_per_sec:.1f} images/s) beats "
             "{second.system.name} "
             "({second.result.throughput_images_per_sec:.1f} images/s), "
             "{ratio:.2f}x",
             metric="throughput_images_per_sec",
             among=("Ring topk(0.01)", "1-bit PS"),
             at={"nodes": max, "bandwidth": min}),
    ))

#: Section 5.1, "Multi-GPU Settings": 1-4 local Titan X GPUs on one node,
#: then four p2.8xlarge-like nodes of 8 K80s (paper: 32x / 28x).  Speedups
#: are over one GPU.
MULTIGPU = Figure(
    models=("googlenet", "vgg19"),
    systems=(POSEIDON_CAFFE,),
    clusters=(
        ("1x1", ClusterConfig(num_workers=1)),
        ("1x2", ClusterConfig(num_workers=1, gpus_per_node=2)),
        ("1x4", ClusterConfig(num_workers=1, gpus_per_node=4)),
        ("4x8", ClusterConfig(num_workers=4, gpus_per_node=8, gpu=TESLA_K80)),
    ),
    layout=(
        Text("Section 5.1: multi-GPU scaling with Poseidon (Caffe engine)"),
        Table(("Model", "Nodes", "GPUs/node", "Total GPUs", "Speedup"),
              ("{model.name}", "{cluster.num_workers}",
               "{cluster.gpus_per_node}", "{cluster.total_gpus}",
               "{gpu_speedup:.2f}")),
    ))
