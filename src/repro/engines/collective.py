"""Collective-communication systems enabled by the pluggable backend layer.

These are not systems the paper evaluates; they exist to answer the natural
follow-up question Poseidon's cost model raises: how do the PS/SFB/hybrid
schemes compare against a bandwidth-optimal ring all-reduce and against a
rack-aggregating hierarchical parameter server on the same cluster model?
Both ride Poseidon's client library (WFBP scheduling, overlapped pulls);
only the communication scheme differs.
"""

from __future__ import annotations

from repro.core.wfbp import ScheduleMode
from repro.engines.base import Partitioning, SystemConfig

RING_ALLREDUCE = SystemConfig(
    name="Ring-AllReduce",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,  # no PS traffic; partitioning is moot
    comm="ring",
    overlap_pull=True,
    overlap_host_copy=True,
)

HIERARCHICAL_PS = SystemConfig(
    name="Hierarchical-PS",
    schedule=ScheduleMode.WFBP,
    partitioning=Partitioning.FINE,
    comm="hierps",
    overlap_pull=True,
    overlap_host_copy=True,
)
