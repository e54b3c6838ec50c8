"""Design-choice ablations.

Not a paper figure, but each ablation isolates one of Poseidon's design
decisions so its contribution can be quantified on the simulator:

* WFBP on/off, HybComm vs. always-PS vs. always-SFB, fine-grained (2 MB
  KV pair) vs. coarse per-tensor partitioning -- the :data:`FIGURE`.
* Number of PS shards (:func:`run_server_count_ablation`).
* Batch-size sensitivity of Algorithm 1's layer choice
  (:func:`run_batch_size_crossover`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.comm.backend import choose_scheme
from repro.config import (POSEIDON_CAFFE, ClusterConfig, Partitioning,
                          ScheduleMode)
from repro.experiments.figure import Figure, Table, Text
from repro.nn.model_zoo import get_model_spec
from repro.simulation.throughput import simulate_system

#: Each variant's label and the design choices it changes.
_VARIANTS = (
    ("full poseidon", {}),
    ("no WFBP", {"schedule": ScheduleMode.SEQUENTIAL}),
    ("no HybComm (PS only)", {"comm": "ps"}),
    ("SFB for all FC layers", {"comm": "sfb"}),
    ("coarse partitioning", {"partitioning": Partitioning.COARSE}),
    ("no WFBP, no HybComm", {"schedule": ScheduleMode.SEQUENTIAL,
                             "comm": "ps"}),
)

#: Full Poseidon and each variant with design choices removed, VGG19 on 16
#: nodes at 10 GbE.
FIGURE = Figure(
    models=("vgg19",),
    systems=tuple(replace(POSEIDON_CAFFE, name=label, **change)
                  for label, change in _VARIANTS),
    bandwidths=(10.0,),
    nodes=(16,),
    layout=(
        Text("Ablation: {model.name} on {cluster.num_workers} nodes at "
             "{cluster.bandwidth_gbps:g} GbE"),
        Table(("Variant", "Speedup", "Relative to full Poseidon"),
              ("{system.name}", "{result.speedup:.2f}", "{ratio:.0%}"),
              baseline={"system": "full poseidon"}),
    ))


def run_server_count_ablation(model_key: str = "vgg19", num_nodes: int = 16,
                              bandwidth_gbps: float = 10.0,
                              server_counts: Sequence[int] = (1, 2, 4, 8, 16)
                              ) -> Dict[int, float]:
    """Speedup of PS-only Poseidon as the number of PS shards varies."""
    spec = get_model_spec(model_key)
    system = replace(POSEIDON_CAFFE, name="PS shards ablation", comm="ps")
    speedups = {}
    for servers in server_counts:
        cluster = ClusterConfig(num_workers=num_nodes, num_servers=servers,
                                bandwidth_gbps=bandwidth_gbps)
        speedups[servers] = simulate_system(spec, system, cluster).speedup
    return speedups


def run_batch_size_crossover(m: int = 4096, n: int = 4096,
                             num_workers: int = 8, num_servers: int = 8,
                             batch_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256,
                                                           512, 1024, 2048)
                             ) -> Dict[int, str]:
    """Scheme Algorithm 1 picks for an FC layer as the batch size grows."""
    return {batch: choose_scheme("hybrid", (m, n), True, num_workers,
                                 num_servers, batch)
            for batch in batch_sizes}
