"""Values reported in the paper, used for paper-vs-measured comparisons.

Numbers are read off the text and figures of the paper (figure values are
approximate, as they are plotted, not tabulated).  They are referenced by
the experiment renderers and by the reproduction-fidelity tests, which check
*shape* properties (orderings, approximate factors), never exact equality.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Table 3 -- parameter counts (millions) and per-GPU batch sizes.
TABLE3_MODELS: Dict[str, Tuple[float, int]] = {
    "CIFAR-10 quick": (0.1456, 100),
    "GoogLeNet": (5.0, 128),
    "Inception-V3": (27.0, 32),
    "VGG19": (143.0, 32),
    "VGG19-22K": (229.0, 32),
    "ResNet-152": (60.2, 32),
}

#: Section 5.1 -- single-node throughput (images/second).
SINGLE_NODE_IMAGES_PER_SEC: Dict[str, float] = {
    "GoogLeNet": 257.0,
    "VGG19": 35.5,
    "VGG19-22K": 34.6,
    "Inception-V3": 43.2,
}

#: Section 5.1 -- single-node throughput of the vanilla Caffe+PS baseline.
SINGLE_NODE_CAFFE_PS_IMAGES_PER_SEC: Dict[str, float] = {
    "GoogLeNet": 213.3,
    "VGG19": 21.3,
    "VGG19-22K": 18.5,
}

#: Figure 5 / Section 5.1 -- Caffe-engine speedups on 32 nodes at 40 GbE.
FIG5_SPEEDUPS_32_NODES: Dict[str, Dict[str, float]] = {
    "GoogLeNet": {"Caffe+WFBP": 31.0, "Poseidon (Caffe)": 31.5},
    "VGG19": {"Caffe+WFBP": 30.0, "Poseidon (Caffe)": 30.0},
    "VGG19-22K": {"Caffe+WFBP": 21.5, "Poseidon (Caffe)": 29.5},
}

#: Figure 6 / Section 5.1 -- TensorFlow-engine speedups on 32 nodes at 40 GbE.
FIG6_SPEEDUPS_32_NODES: Dict[str, Dict[str, float]] = {
    "Inception-V3": {"TF": 20.0, "TF+WFBP": 28.0, "Poseidon (TF)": 31.5},
    "VGG19": {"TF": 2.0, "TF+WFBP": 22.0, "Poseidon (TF)": 30.0},
    "VGG19-22K": {"TF": 1.0, "TF+WFBP": 22.0, "Poseidon (TF)": 30.0},
}

#: Section 5.2 -- VGG19 at 10 GbE on 16 nodes: PS-based ~8x, Poseidon ~linear.
FIG8_VGG19_10GBE_16_NODES: Dict[str, float] = {
    "Caffe+WFBP": 8.0,
    "Poseidon (Caffe)": 15.0,
}

#: Section 5.3 -- Adam's strategy reaches ~5x on 8 nodes for VGG19.
ADAM_VGG19_8_NODES_SPEEDUP: float = 5.0

#: Section 5.3 -- CNTK 1-bit speedups for VGG19 on 8/16/32 nodes.
CNTK_VGG19_SPEEDUPS: Dict[int, float] = {8: 5.8, 16: 11.0, 32: 20.0}

#: Figure 9 -- ResNet-152: 31x throughput speedup on 32 nodes; 0.24 top-1
#: error reached in under 90 epochs on 16 and 32 nodes.
RESNET152_SPEEDUP_32_NODES: float = 31.0
RESNET152_TARGET_ERROR: float = 0.24
RESNET152_EPOCH_BUDGET: int = 90

#: Table 1 worked example (Section 3.2): M=N=4096, K=32, P1=P2=8, in millions
#: of parameters transmitted+received.
TABLE1_EXAMPLE: Dict[str, float] = {
    "ps_worker_millions": 34.0,
    "ps_server_millions": 34.0,
    "ps_combined_millions": 58.7,
    "sfb_worker_millions": 3.7,
}

#: Section 5.1 -- multi-GPU: Poseidon linear on 4 local GPUs; 32x / 28x for
#: GoogLeNet / VGG19 on 4 x p2.8xlarge (32 K80 GPUs).
MULTIGPU_REFERENCE: Dict[str, float] = {
    "GoogLeNet@32gpus": 32.0,
    "VGG19@32gpus": 28.0,
}
