"""Cluster, training and system configuration objects.

These dataclasses describe the experimental setup of the paper: a cluster of
single-GPU machines connected by Ethernet of configurable bandwidth, where
every machine acts as a worker and (usually) also hosts a shard of the
parameter server, exactly as in the paper's testbed ("every node also holding
1/8 of parameters as a PS shard", Section 2.2) -- and the *system* run on it,
one frozen :class:`SystemConfig` whose named values are the paper's Caffe and
TensorFlow systems (:data:`CAFFE_PS` ... :data:`CNTK_1BIT`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro import units
from repro.core.policy import BSP, SyncPolicy
from repro.domains import (AT_LEAST_ONE, BOOL, COUNT, COUNT0, FRACTION,
                           NONNEGATIVE, POSITIVE, WHOLE, check_fields,
                           declared, fraction, instance, optional, require)
from repro.exceptions import ConfigurationError


class BandwidthPreset(float, enum.Enum):
    """Ethernet ratings used in the paper's evaluation (values in Gb/s)."""

    GBE_1 = 1.0
    GBE_2 = 2.0
    GBE_5 = 5.0
    GBE_10 = 10.0
    GBE_20 = 20.0
    GBE_30 = 30.0
    GBE_40 = 40.0


@dataclass(frozen=True)
class GpuModel:
    """A simple throughput model of a GPU.

    The simulator converts per-layer FLOP counts to compute time using
    ``effective_flops``; calibration against the paper's reported single-node
    images/second happens per model (see
    :mod:`repro.simulation.workload`), so the absolute value here only
    matters for uncalibrated models.

    Attributes:
        name: marketing name of the card.
        effective_flops: sustained single-precision FLOP/s for DL kernels.
        memory_bytes: device memory, used only for sanity checks on batch size.
        pcie_bandwidth_bps: host-to-device copy bandwidth (bits/s); the paper
            notes DRAM<->GPU copies are a minor overhead that Poseidon also
            overlaps.
    """

    name: str = declared(instance(str), "TITAN X")
    effective_flops: float = declared(POSITIVE, 6.0 * units.TFLOPS)
    memory_bytes: float = declared(POSITIVE, 12 * units.GB)
    pcie_bandwidth_bps: float = declared(POSITIVE, 100 * units.GBIT)
    __post_init__ = check_fields

    def compute_seconds(self, flops: float) -> float:
        """Time to execute ``flops`` floating point operations."""
        if flops < 0:
            raise ConfigurationError(f"flops must be non-negative, got {flops}")
        return flops / self.effective_flops


#: The GPU used throughout the paper's evaluation.
TITAN_X = GpuModel()

#: The K80 GPUs of the AWS p2.8xlarge multi-GPU experiment (Section 5.1);
#: lower throughput than Titan X, which the paper notes makes the
#: communication burden less severe.
TESLA_K80 = GpuModel(
    name="Tesla K80 (half)",
    effective_flops=2.8 * units.TFLOPS,
    memory_bytes=12 * units.GB,
)


@dataclass(frozen=True)
class ClusterConfig:
    """Describes a GPU cluster for both the simulator and the cost model.

    The default network is *flat* (full bisection): every node can talk to
    every other node at the full NIC rate, which is the paper's testbed
    assumption.  Setting ``racks > 1`` together with ``oversubscription >
    1`` models a rack-oversubscribed datacenter network instead: nodes are
    grouped into ``racks`` contiguous-id racks, intra-rack traffic still
    moves at NIC rate, but all traffic leaving (or entering) a rack shares
    that rack's aggregate uplink, whose bandwidth is
    ``node_bandwidth * nodes_per_rack / oversubscription``.

    Example -- a flat 8-node cluster versus the same nodes in two racks
    with 4:1 oversubscription:

        >>> flat = ClusterConfig(num_workers=8, bandwidth_gbps=10.0)
        >>> flat.is_flat_topology
        True
        >>> racked = ClusterConfig(num_workers=8, bandwidth_gbps=10.0, racks=2,
        ...                        oversubscription=4.0)
        >>> racked.is_flat_topology, racked.nodes_per_rack
        (False, 4)
        >>> racked.rack_of(0), racked.rack_of(5)
        (0, 1)
        >>> # Each rack's shared uplink carries 4 nodes at 1/4 the bandwidth:
        >>> racked.rack_bisection_bps(4) == racked.effective_bandwidth_bps
        True

    Attributes:
        num_workers: number of worker nodes (``P1`` in the paper).
        num_servers: number of parameter-server shards (``P2``).  In the
            paper's testbed every worker node also hosts a PS shard, so the
            default mirrors ``num_workers``.
        bandwidth_gbps: per-node Ethernet bandwidth in Gb/s (full duplex).
        gpus_per_node: number of GPUs on each worker node.
        gpu: throughput model of each GPU.
        colocate_servers: whether PS shards live on worker nodes (sharing
            their NIC) or on dedicated machines.
        latency_seconds: per-message network latency added to every transfer.
        network_efficiency: fraction of the NIC line rate achievable as
            application goodput (TCP/IP framing, kernel overheads,
            incast pressure during bulk-synchronous scatter/gather).  The
            default 0.55 is calibrated so the simulated Caffe+WFBP point for
            VGG19-22K on 32 nodes matches the paper's reported 21.5x; every
            other number in the evaluation emerges from the model.
        racks: number of top-of-rack switches the nodes are spread over
            (contiguous node-id blocks).  ``1`` (the default) keeps the
            paper's flat full-bisection network.
        oversubscription: ratio of a rack's aggregate NIC demand to its
            uplink capacity (the datacenter "oversubscription factor").
            ``1.0`` (the default) means full bisection -- the rack uplink
            can never be a bottleneck, so the network behaves exactly like
            the flat model.
    """

    num_workers: int = declared(COUNT)
    num_servers: Optional[int] = declared(optional(COUNT), None)
    bandwidth_gbps: float = declared(POSITIVE, BandwidthPreset.GBE_40.value)
    gpus_per_node: int = declared(COUNT, 1)
    gpu: GpuModel = declared(instance(GpuModel),
                             default_factory=lambda: TITAN_X)
    colocate_servers: bool = declared(BOOL, True)
    # Zero is in the domain: an ideal network, every message free of latency.
    latency_seconds: float = declared(NONNEGATIVE, 50 * units.US)
    network_efficiency: float = declared(fraction(low_open=True), 0.55)
    racks: int = declared(COUNT, 1)
    oversubscription: float = declared(AT_LEAST_ONE, 1.0)

    def __post_init__(self) -> None:
        if self.num_servers is None:
            object.__setattr__(self, "num_servers", self.num_workers)
        check_fields(self)

    @property
    def bandwidth_bps(self) -> float:
        """Per-node NIC line rate in bits per second."""
        return units.gbe(self.bandwidth_gbps)

    @property
    def effective_bandwidth_bps(self) -> float:
        """Achievable application goodput per NIC direction in bits per second."""
        return self.bandwidth_bps * self.network_efficiency

    @property
    def total_gpus(self) -> int:
        """Total number of GPUs across the cluster."""
        return self.num_workers * self.gpus_per_node

    # -- rack topology ---------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total machine count: workers plus dedicated server nodes."""
        if self.colocate_servers:
            return self.num_workers
        return self.num_workers + self.num_servers

    def server_node(self, shard: int) -> int:
        """Node id of PS shard ``shard``: worker ``shard % P1`` when
        colocated, the dedicated node ``P1 + shard`` after the workers
        otherwise.  Planning places units with this rule alone."""
        if self.colocate_servers:
            return shard % self.num_workers
        return self.num_workers + shard

    @property
    def server_nodes(self) -> Tuple[int, ...]:
        """:meth:`server_node` of every shard, for the code that walks
        nodes: the DES, the fluid detail tier and fluid per-node traffic,
        each of which reads it once.  Built per read and never stored on
        the frozen cluster (10k entries at scale), so a what-if sweep,
        which never asks, keeps none."""
        return tuple(map(self.server_node, range(self.num_servers)))

    @property
    def is_flat_topology(self) -> bool:
        """Whether the network is indistinguishable from full bisection.

        True for a single rack and for ``oversubscription == 1.0`` (a fully
        provisioned rack uplink never throttles its members, so the rack
        structure carries no performance signal either way).
        """
        return self.racks <= 1 or self.oversubscription <= 1.0

    @property
    def nodes_per_rack(self) -> int:
        """Nodes under one top-of-rack switch (the last rack may be smaller)."""
        return math.ceil(self.num_nodes / self.racks)

    def rack_of(self, node_id: int) -> int:
        """Rack index of a node (nodes fill racks in contiguous id blocks).

        Raises:
            ConfigurationError: if ``node_id`` is not a cluster node.
        """
        if not 0 <= node_id < self.num_nodes:
            raise ConfigurationError(
                f"node id {node_id} out of range [0, {self.num_nodes})"
            )
        return node_id // self.nodes_per_rack

    def rack_bisection_bps(self, rack_nodes: int) -> float:
        """Aggregate uplink goodput (bits/s) of a rack hosting ``rack_nodes``.

        The rack's members could collectively inject ``rack_nodes *
        effective_bandwidth_bps``; the oversubscribed uplink provides
        ``1/oversubscription`` of that.
        """
        require("rack_nodes", rack_nodes, COUNT)
        return self.effective_bandwidth_bps * rack_nodes / self.oversubscription

    def with_workers(self, num_workers: int) -> "ClusterConfig":
        """Return a copy with a different worker count (servers follow if colocated)."""
        num_servers = num_workers if self.colocate_servers else self.num_servers
        return replace(self, num_workers=num_workers, num_servers=num_servers)

    def with_bandwidth(self, bandwidth_gbps: float) -> "ClusterConfig":
        """Return a copy with a different per-node bandwidth."""
        return replace(self, bandwidth_gbps=bandwidth_gbps)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of a (possibly distributed) SGD run.

    Attributes:
        batch_size: per-worker mini-batch size (``K`` in the paper's cost
            model).
        learning_rate: SGD step size.
        momentum: classical momentum coefficient.
        weight_decay: L2 regularisation strength.
        iterations: number of training iterations to run.
        seed: base RNG seed; workers derive their own seeds from it.
    """

    batch_size: int = declared(COUNT, 32)
    learning_rate: float = declared(POSITIVE, 0.01)
    momentum: float = declared(fraction(high_open=True), 0.0)
    weight_decay: float = declared(NONNEGATIVE, 0.0)
    # Zero is in the domain: ``train()`` of no iterations returns at once.
    iterations: int = declared(COUNT0, 100)
    seed: int = declared(COUNT0, 0)
    __post_init__ = check_fields


class ScheduleMode(str, enum.Enum):
    """When layer synchronization may start relative to computation."""

    #: Synchronize layer ``l`` as soon as its backward pass finishes
    #: (Poseidon's wait-free backpropagation).
    WFBP = "wfbp"
    #: Synchronize only after the full backward pass (the vanilla PS baseline).
    SEQUENTIAL = "sequential"


class Partitioning(str, enum.Enum):
    """How parameters are spread over PS shards."""

    #: Poseidon's KV store: fixed-size (2 MB) pairs balanced across shards.
    FINE = "fine"
    #: Stock distributed TensorFlow: one whole tensor per shard.
    COARSE = "coarse"


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one evaluated system.

    The value checks itself when it is built (``ConfigurationError`` on
    anything no engine can run); whether ``comm``'s backend can carry the
    compressor asks the run-time registry, so plans and the trainer do that
    (:func:`repro.comm.backend.check_compression`).

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
            staging copies (lands single-node Caffe+PS near the paper's
            213 / 21.3 / 18.5 img/s for GoogLeNet / VGG19 / VGG19-22K).
        policy: execution semantics, the trainer's
            :class:`~repro.core.policy.SyncPolicy` (BSP in every paper figure).
        straggler_fraction: fraction of workers running slow each
            iteration (quantized to whole workers: ``ceil(f*P)/P``).
        straggler_factor: compute slowdown multiplier of a straggler.
        mtbf_seconds: cluster mean-time-between-failures driving the
            checkpoint/restart overhead model; ``None``: no failures.
        checkpoint_interval_seconds: seconds between checkpoints; ``None``
            picks the Young--Daly optimum ``sqrt(2*C*M)`` under an MTBF.
        checkpoint_cost_seconds: seconds one checkpoint costs (``C``).
        compressor: gradient compressor spec for the dense-gradient
            backends (``"none"``, ``"topk(k)"``, ``"powersgd(r)"``; see
            :class:`repro.comm.wire.CompressionConfig`).  1-bit quantization
            is the ``onebit`` comm mode, not a compressor.
        bucket_bytes: wire granularity -- fuse consecutive same-scheme
            dense-gradient units into buckets of this many bytes
            (:func:`repro.comm.bucketing.bucket_workload`); ``None`` keeps
            per-layer messages.
    """

    name: str = declared(instance(str))
    schedule: ScheduleMode = declared(instance(ScheduleMode))
    partitioning: Partitioning = declared(instance(Partitioning))
    comm: str = declared(instance(str))
    overlap_pull: bool = declared(BOOL, True)
    overlap_host_copy: bool = declared(BOOL, True)
    host_copy_bandwidth_bps: float = declared(POSITIVE, 16 * units.GBIT)
    policy: SyncPolicy = declared(instance(SyncPolicy), BSP)
    straggler_fraction: float = declared(FRACTION, 0.0)
    straggler_factor: float = declared(AT_LEAST_ONE, 1.0)
    mtbf_seconds: Optional[float] = declared(optional(POSITIVE), None)
    checkpoint_interval_seconds: Optional[float] = declared(
        optional(POSITIVE), None)
    checkpoint_cost_seconds: float = declared(NONNEGATIVE, 0.0)
    compressor: str = declared(instance(str), "none")
    bucket_bytes: Optional[int] = declared(optional(WHOLE), None)

    def __post_init__(self) -> None:
        check_fields(self)
        wired = self.bucket_bytes is not None
        if self.compressor != "none":
            # Past the default: a plain system must not load repro.comm.
            from repro.comm.wire import CompressionConfig
            wired |= not CompressionConfig.parse(self.compressor).is_identity
        mtbf = self.mtbf_seconds
        for ok, problem in (
                # The closed-form overhead factor describes a job that
                # completes checkpoints between failures: C < M.
                (mtbf is None or self.checkpoint_cost_seconds < mtbf,
                 "checkpoint_cost_seconds must be below mtbf_seconds (a "
                 "checkpoint must complete between failures)"),
                (not wired or self.partitioning is Partitioning.COARSE,
                 "compressor/bucket_bytes require coarse partitioning; "
                 "fine-grained KV pairs fix the wire granularity")):
            if not ok:
                raise ConfigurationError(f"system {self.name!r}: {problem}")

    def with_policy(self, policy) -> "SystemConfig":
        """Copy under a :class:`SyncPolicy` or any spec its ``parse`` takes
        (``"ssp(2)"``, ``"async"``, ``"local-4"`` ...)."""
        return replace(self, policy=SyncPolicy.parse(policy))

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
        """Copy of this system under a compressor (what dense-gradient
        backends put on the wire) and a bucket size (how many messages carry
        it); both are orthogonal to the scheme choice."""
        return replace(self, compressor=compressor, bucket_bytes=bucket_bytes)


def poseidon_system(name: str, comm: str,
                    partitioning: Partitioning = Partitioning.FINE
                    ) -> SystemConfig:
    """The Poseidon client library (WFBP, overlapped pulls and host copies)
    over one scheme; every preset below is this or one ``replace`` of it."""
    return SystemConfig(name=name, schedule=ScheduleMode.WFBP,
                        partitioning=partitioning, comm=comm)


# -- the systems of the paper's evaluation (Figures 5-11) ---------------------

#: Caffe with a vanilla PS: sync after the backward pass, nothing overlapped.
CAFFE_PS = replace(poseidon_system("Caffe+PS", "ps"),
                   schedule=ScheduleMode.SEQUENTIAL, overlap_pull=False,
                   overlap_host_copy=False)
#: Caffe on Poseidon's client library with HybComm off (fine-grained PS only).
CAFFE_WFBP = poseidon_system("Caffe+WFBP", "ps")
#: The full system on Caffe: WFBP plus hybrid communication.
POSEIDON_CAFFE = poseidon_system("Poseidon (Caffe)", "hybrid")
#: Stock distributed TensorFlow: a whole tensor per PS task, and parameter
#: fetches at the start of the iteration, not overlapped with backprop.
TF = replace(poseidon_system("TF", "ps", Partitioning.COARSE),
             overlap_pull=False)
#: TensorFlow on Poseidon's client library, dense PS communication only.
TF_WFBP = poseidon_system("TF+WFBP", "ps")
#: The full system on TensorFlow.
POSEIDON_TF = poseidon_system("Poseidon (TF)", "hybrid")
#: Project Adam's SF-push / full-matrix-pull strategy (Figure 10).
ADAM_TF = poseidon_system("Adam", "adam", Partitioning.COARSE)
#: CNTK's 1-bit SGD (Section 5.3): quantized, with its error-feedback
#: residual, on the host, so gradients are staged without overlap.
CNTK_1BIT = replace(poseidon_system("CNTK-1bit", "onebit"),
                    schedule=ScheduleMode.SEQUENTIAL, overlap_host_copy=False)
