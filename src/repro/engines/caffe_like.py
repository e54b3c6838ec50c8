"""Caffe-engine systems (Figure 5 and Figure 8).

* ``Caffe+PS`` -- a vanilla parameter-server parallelisation: communication
  happens sequentially after the backward pass and host/device staging
  copies are not overlapped, which is why its single-node throughput is
  already below plain Caffe (213 vs. 257 img/s for GoogLeNet in Section 5.1).
* ``Caffe+WFBP`` -- Poseidon's client library with wait-free backpropagation
  but HybComm disabled (everything goes through the fine-grained PS).
* ``Poseidon (Caffe)`` -- the full system: WFBP plus hybrid communication.
"""

from __future__ import annotations

from typing import Dict

from repro import units
from repro.core.wfbp import ScheduleMode
from repro.engines.base import Partitioning, SystemConfig

#: Effective bandwidth of the non-overlapped DRAM<->GPU staging copies of the
#: vanilla PS baseline.  Chosen so that single-node Caffe+PS lands near the
#: paper's reported 213 / 21.3 / 18.5 img/s for GoogLeNet / VGG19 / VGG19-22K.
_STAGING_BANDWIDTH_BPS = 16 * units.GBIT

CAFFE_PS = SystemConfig(
    name="Caffe+PS",
    schedule=ScheduleMode.SEQUENTIAL,
    partitioning=Partitioning.FINE,
    comm="ps",
    overlap_pull=False,
    overlap_host_copy=False,
    host_copy_bandwidth_bps=_STAGING_BANDWIDTH_BPS,
)

CAFFE_WFBP = SystemConfig(
    name="Caffe+WFBP",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,
    comm="ps",
    overlap_pull=True,
    overlap_host_copy=True,
)

POSEIDON_CAFFE = SystemConfig(
    name="Poseidon (Caffe)",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,
    comm="hybrid",
    overlap_pull=True,
    overlap_host_copy=True,
)


def caffe_systems() -> Dict[str, SystemConfig]:
    """The three Caffe-engine systems of Figure 5, keyed by display name."""
    return {
        CAFFE_PS.name: CAFFE_PS,
        CAFFE_WFBP.name: CAFFE_WFBP,
        POSEIDON_CAFFE.name: POSEIDON_CAFFE,
    }
