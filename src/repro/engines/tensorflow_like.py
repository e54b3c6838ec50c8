"""TensorFlow-engine systems (Figures 6, 7, 10) and the other baselines.

* ``TF`` -- stock distributed TensorFlow: coarse per-tensor parameter
  placement (a big tensor lands on one PS task and bottlenecks its NIC) and
  parameter fetches at the beginning of each iteration that do not overlap
  with the previous iteration's computation (Section 5.1).
* ``TF+WFBP`` -- TensorFlow parallelised through Poseidon's client library:
  fine-grained KV partitioning and WFBP, but dense PS communication only.
* ``Poseidon (TF)`` -- the full system with HybComm.
* ``Adam`` -- the Project Adam communication strategy implemented inside
  Poseidon for the Figure 10 comparison.
* ``CNTK-1bit`` -- 1-bit quantized gradients (Section 5.3).
"""

from __future__ import annotations

from typing import Dict

from repro.core.wfbp import ScheduleMode
from repro.engines.base import Partitioning, SystemConfig

TF = SystemConfig(
    name="TF",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.COARSE,
    comm="ps",
    overlap_pull=False,
    overlap_host_copy=True,
)

TF_WFBP = SystemConfig(
    name="TF+WFBP",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,
    comm="ps",
    overlap_pull=True,
    overlap_host_copy=True,
)

POSEIDON_TF = SystemConfig(
    name="Poseidon (TF)",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,
    comm="hybrid",
    overlap_pull=True,
    overlap_host_copy=True,
)

ADAM_TF = SystemConfig(
    name="Adam",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.COARSE,
    comm="adam",
    overlap_pull=True,
    overlap_host_copy=True,
)

CNTK_1BIT = SystemConfig(
    name="CNTK-1bit",
    schedule=ScheduleMode.SEQUENTIAL,
    partitioning=Partitioning.FINE,
    comm="onebit",
    overlap_pull=True,
    # CNTK's 1-bit SGD quantizes (and keeps the error-feedback residual) on
    # the host, so gradients are staged through DRAM without overlap.
    overlap_host_copy=False,
)


def tensorflow_systems() -> Dict[str, SystemConfig]:
    """The three TensorFlow-engine systems of Figure 6, keyed by display name."""
    return {
        TF.name: TF,
        TF_WFBP.name: TF_WFBP,
        POSEIDON_TF.name: POSEIDON_TF,
    }
