"""Design-choice ablations.

Not a paper figure, but each ablation isolates one of Poseidon's design
decisions so its contribution can be quantified on the simulator: WFBP
on/off, HybComm vs. always-PS vs. always-SFB, fine-grained (2 MB KV pair)
vs. coarse per-tensor partitioning -- the :data:`FIGURE`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import POSEIDON_CAFFE, Partitioning, ScheduleMode
from repro.experiments.figure import Figure, Table, Text

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
