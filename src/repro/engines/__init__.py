"""Engine and system behaviour descriptors.

The paper evaluates Poseidon plugged into two computation engines (Caffe and
TensorFlow) and compares against several baseline *systems* built from the
same ingredients: how parameters are partitioned across PS shards
(fine-grained KV pairs vs. coarse per-tensor placement), whether layer
synchronization overlaps with backpropagation (WFBP vs. sequential), whether
the parameter pull overlaps with computation, which communication scheme is
used, and whether host/device memory copies are overlapped.

Each such combination is a :class:`~repro.engines.base.SystemConfig`; the
presets below are the exact systems named in Figures 5-11.
"""

from repro.engines.base import Partitioning, SystemConfig
from repro.engines.caffe_like import (
    CAFFE_PS,
    CAFFE_WFBP,
    POSEIDON_CAFFE,
    caffe_systems,
)
from repro.engines.collective import HIERARCHICAL_PS, RING_ALLREDUCE
from repro.engines.tensorflow_like import (
    ADAM_TF,
    CNTK_1BIT,
    POSEIDON_TF,
    TF,
    TF_WFBP,
    tensorflow_systems,
)

__all__ = [
    "SystemConfig",
    "Partitioning",
    "CAFFE_PS",
    "CAFFE_WFBP",
    "POSEIDON_CAFFE",
    "caffe_systems",
    "TF",
    "TF_WFBP",
    "POSEIDON_TF",
    "ADAM_TF",
    "CNTK_1BIT",
    "tensorflow_systems",
    "RING_ALLREDUCE",
    "HIERARCHICAL_PS",
]
