"""System behaviour descriptors consumed by the throughput simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro import units
from repro.core.wfbp import ScheduleMode


class Partitioning(str, enum.Enum):
    """How parameters are spread over PS shards."""

    #: Poseidon's KV store: fixed-size (2 MB) pairs balanced across shards.
    FINE = "fine"
    #: Stock distributed TensorFlow: one whole tensor per shard.
    COARSE = "coarse"


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one evaluated system.

    Attributes:
        name: label used in figures and result tables.
        schedule: WFBP (overlap communication with backprop) or sequential.
        partitioning: fine-grained KV pairs or coarse per-tensor placement.
        comm: a registered backend name (every layer on that scheme, a
            factor scheme leaving non-factorisable layers on ``"ps"``) or
            ``"hybrid"`` (per-layer Algorithm 1).
        overlap_pull: whether receiving updated parameters overlaps with the
            backward pass (false for stock TF, which fetches at the start of
            the next iteration, and for the vanilla Caffe+PS baseline).
        overlap_host_copy: whether DRAM<->GPU staging copies are overlapped
            with computation (false only for the vanilla Caffe+PS baseline,
            which is why its single-node throughput is below plain Caffe).
        host_copy_bandwidth_bps: effective bandwidth of non-overlapped
            staging copies.
        staleness: execution-semantics axis: SSP staleness bound ``s``
            (0 = BSP, the default for every paper configuration); ``None``
            means fully asynchronous (no bound at all).
        sync_period: local-SGD period ``H`` -- sync traffic every H-th
            iteration (1 = per-iteration sync, the default).
        straggler_fraction: fraction of workers running slow each
            iteration (quantized to whole workers: ``ceil(f*P)/P``); 0
            (the default) models a healthy cluster.
        straggler_factor: compute slowdown multiplier of a straggling
            worker (1.0 = no slowdown).
        mtbf_seconds: cluster mean-time-between-failures driving the
            checkpoint/restart overhead model; ``None`` (default) means
            failures never happen.
        checkpoint_interval_seconds: seconds between checkpoints; ``None``
            picks the Young--Daly optimum ``sqrt(2*C*M)`` when an MTBF is
            set.
        checkpoint_cost_seconds: seconds one checkpoint costs (``C``).
        compressor: gradient compressor spec for the dense-gradient
            backends (``"none"``, ``"onebit"``, ``"topk(k)"``,
            ``"powersgd(r)"``); parsed by
            :meth:`repro.comm.wire.CompressionConfig.parse`.
        bucket_bytes: wire granularity -- fuse consecutive same-scheme
            dense-gradient units into buckets of this many bytes
            (:func:`repro.comm.bucketing.bucket_workload`); ``None`` (the
            default) keeps per-layer messages.
    """

    name: str
    schedule: ScheduleMode
    partitioning: Partitioning
    comm: str
    overlap_pull: bool = True
    overlap_host_copy: bool = True
    host_copy_bandwidth_bps: float = 16 * units.GBIT
    staleness: Optional[int] = 0
    sync_period: int = 1
    straggler_fraction: float = 0.0
    straggler_factor: float = 1.0
    mtbf_seconds: Optional[float] = None
    checkpoint_interval_seconds: Optional[float] = None
    checkpoint_cost_seconds: float = 0.0
    compressor: str = "none"
    bucket_bytes: Optional[int] = None

    def renamed(self, name: str) -> "SystemConfig":
        """Copy of this system under a different display name."""
        return replace(self, name=name)

    def with_comm(self, comm: str) -> "SystemConfig":
        """Copy of this system using a different communication scheme."""
        return replace(self, comm=comm)

    def with_schedule(self, schedule: ScheduleMode) -> "SystemConfig":
        """Copy of this system using a different synchronization schedule."""
        return replace(self, schedule=schedule)

    def with_partitioning(self, partitioning: Partitioning) -> "SystemConfig":
        """Copy of this system using a different PS partitioning."""
        return replace(self, partitioning=partitioning)

    def with_policy(self, policy) -> "SystemConfig":
        """Copy of this system under a :class:`repro.core.policy.SyncPolicy`.

        Maps the policy onto the simulator's two execution-semantics axes:
        ``bsp`` -> (0, 1), ``ssp(s)`` -> (s, 1), ``async`` -> (None, 1) and
        ``local_sgd(H)`` -> (0, H).  Accepts a policy object or any spec
        string :meth:`SyncPolicy.parse` understands.
        """
        from repro.core.policy import SyncPolicy

        parsed = SyncPolicy.parse(policy)
        return replace(self, staleness=parsed.bound,
                       sync_period=parsed.sync_period)

    def with_faults(self, straggler_fraction: float = 0.0,
                    straggler_factor: float = 1.0,
                    mtbf_seconds: Optional[float] = None,
                    checkpoint_interval_seconds: Optional[float] = None,
                    checkpoint_cost_seconds: float = 0.0) -> "SystemConfig":
        """Copy of this system under a fault environment.

        The axes feed both engines: the DES injects per-worker compute
        slowdowns and the fluid engine uses the closed-form straggler and
        Young--Daly checkpoint models of :mod:`repro.core.faults`.
        """
        return replace(self, straggler_fraction=straggler_fraction,
                       straggler_factor=straggler_factor,
                       mtbf_seconds=mtbf_seconds,
                       checkpoint_interval_seconds=checkpoint_interval_seconds,
                       checkpoint_cost_seconds=checkpoint_cost_seconds)

    def with_compression(self, compressor: str = "none",
                         bucket_bytes: Optional[int] = None) -> "SystemConfig":
        """Copy of this system under a wire-compression configuration.

        Both axes are orthogonal to the scheme choice: the compressor
        shrinks what dense-gradient backends put on the wire, the bucket
        size changes how many messages carry it.
        """
        return replace(self, compressor=compressor, bucket_bytes=bucket_bytes)
