"""Pluggable communication backends.

Historically every communication scheme was hard-wired through four layers
at once: a scheme enum, the ``if``/``elif`` chains of
:func:`repro.parallel.schemes.assign_schemes`, the substrate wiring inside
:class:`~repro.parallel.trainer.DistributedTrainer` and the per-scheme flow
processes of :class:`repro.simulation.throughput.IterationSimulator`.  Adding a scheme
meant editing all of them by hand.

A :class:`CommBackend` bundles everything one scheme needs:

* ``cost(m, n, cluster, K)`` -- the Algorithm-1 / Table-1 cost (parameters
  transmitted plus received per combined server/worker node per iteration),
  the quantity HybComm minimises: the scheme's own ``flat_cost`` plus the
  cluster's cross-rack premium; ``K`` is the number of sufficient-factor
  rows, the batch size times the layer's factor rank;
* ``build_substrate`` / ``make_syncer`` -- the functional trainer side: the
  shared communication substrate (parameter server, bulletin board, ...)
  and the per-layer :class:`~repro.core.syncer.Syncer` that speaks to it,
  both imported from the scheme's substrate module on first use;
* ``unit_phases`` -- the scheme's per-unit schedule: the ordered tuple of
  :class:`Phase` values, message sizes included, stated once and frozen
  into the resolved :class:`~repro.simulation.plan.SyncPlan`.  The
  event-driven simulator and both fluid tiers each have one interpreter
  over that value, and every node's traffic is folded from it
  (:func:`~repro.simulation.plan.node_traffic`); no engine knows a scheme
  by name.

Backends register themselves in a process-wide registry; the scheme
assigner, the trainer and the simulator all resolve schemes through
:func:`get_backend`.  Every built-in backend is this module's plan half
(cost, schedule, capabilities) over a substrate module it imports lazily
(:mod:`repro.comm.parameter_server`, :mod:`repro.comm.ring`, ...), so the
planner and both simulators load no trainer code; a new scheme is a
registered :class:`CommBackend` plus its substrate module (see
docs/backends.md for the recipe).
"""

from __future__ import annotations

import abc
import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple

from repro.comm.wire import CompressionConfig, unit_wire_bytes
from repro.config import ClusterConfig
from repro.core.cost_model import (
    adam_combined_cost,
    ps_combined_cost,
    sfb_worker_cost,
)
from repro.core.policy import BSP, SyncPolicy
from repro.exceptions import ConfigurationError

#: A layer's parameters or gradients: parameter name -> array.
ArrayDict = Dict[str, Any]

#: Factor by which 1-bit quantization shrinks gradient payloads.
ONEBIT_COMPRESSION = 32.0

#: Workers a tree scheme aggregates under one leader on a flat cluster (an
#: oversubscribed cluster aggregates along its physical racks instead).
DEFAULT_RACK_SIZE = 4

#: The per-layer Algorithm-1 mode; every registered backend name is also a mode.
HYBRID_MODE = "hybrid"


def tree_rack_size(cluster: ClusterConfig) -> int:
    """Workers a tree scheme aggregates under one leader on ``cluster``:
    its physical racks when oversubscribed, :data:`DEFAULT_RACK_SIZE` on a
    flat network.  The plan's tree and hierarchical PS's price read it."""
    return (DEFAULT_RACK_SIZE if cluster.is_flat_topology
            else cluster.nodes_per_rack)


@dataclass(frozen=True)
class SyncShape:
    """What a unit's payload depends on besides the unit itself.

    Attributes:
        num_workers: worker count (``P1``).
        num_servers: PS shard count (``P2``).
        batch_size: per-worker batch size; a unit's factors have
            ``batch_size * unit.factor_rank`` rows (``K``).
        fine: fine-grained KV shards rather than coarse whole-unit owners.
        colocated: PS shards live on the worker nodes, so a node's own
            shard (and an owner's own copy) never crosses the network.
        rack_size: workers per rack of a tree scheme
            (:func:`tree_rack_size`).
        compression: the validated compressor config (``None`` when dense);
            only :attr:`CommBackend.compressible` backends apply it.
    """

    num_workers: int
    num_servers: int
    batch_size: int
    fine: bool = True
    colocated: bool = True
    rack_size: int = DEFAULT_RACK_SIZE
    compression: Optional[CompressionConfig] = None

    @property
    def num_racks(self) -> int:
        """Tree racks: full ones of ``rack_size`` workers, then a short one."""
        return -(-self.num_workers // self.rack_size)

    @property
    def leader_fan(self) -> int:
        """Workers under the first leader, the leader included."""
        return min(self.rack_size, self.num_workers)

    @cached_property
    def racks(self) -> Tuple[range, ...]:
        """Worker ids under each tree leader (a rack's first member).

        Built only for the engines that walk nodes (the DES and the fluid
        detail tier, through :func:`~repro.simulation.plan.fan_groups`);
        planning and the aggregate tier use :attr:`num_racks` and
        :attr:`leader_fan`, so a 10k-node plan holds no rack list.
        """
        return tuple(
            range(first, min(first + self.rack_size, self.num_workers))
            for first in range(0, self.num_workers, self.rack_size))


class PhaseKind(enum.Enum):
    """The closed vocabulary of transfer patterns a schedule is built from."""

    #: Every worker ships to the KV fabric (spread over all shards) while
    #: each shard gathers its slice; done when both sides are.
    FABRIC_OUT = "fabric_out"
    #: Each shard scatters its slice while every worker fetches from the
    #: fabric; directly follows the :attr:`FABRIC_OUT` it answers.
    FABRIC_IN = "fabric_in"
    #: Every ``src`` node sends one message to its hub (``dst``).
    FAN_IN = "fan_in"
    #: Every ``dst`` node fetches one message from its hub (``src``); the
    #: copies serialise on the hub's uplink.
    FAN_OUT = "fan_out"
    #: Every hub (``src``) holds its uplink for one batch of copies, one to
    #: each other node of its group (``dst``).
    BROADCAST = "broadcast"
    #: Every worker sends one message to its ring successor, in lockstep.
    RING_STEP = "ring_step"


class Peers(enum.Enum):
    """Symbolic peer sets; an engine enumerates node ids only if it needs them."""

    WORKERS = "workers"            #: all ``P1`` workers
    OWNER = "owner"                #: the node the plan placed the unit on
    SHARDS = "shards"              #: the KV store's server shards
    RACK_LEADERS = "rack_leaders"  #: first member of each ``SyncShape.racks``
    RACK_MEMBERS = "rack_members"  #: every rack's members, under their leader
    SUCCESSOR = "successor"        #: worker ``(i + 1) mod P1``


class Scope(enum.Enum):
    """What a phase's successor waits for."""

    ALL = "all"      #: the whole phase, on every group
    GROUP = "group"  #: the phase on the successor's own rack only


#: The ``(src, dst)`` peer pairs each kind can run between.
PHASE_PEERS: Dict[PhaseKind, Tuple[Tuple[Peers, Peers], ...]] = {
    PhaseKind.FABRIC_OUT: ((Peers.WORKERS, Peers.SHARDS),),
    PhaseKind.FABRIC_IN: ((Peers.SHARDS, Peers.WORKERS),),
    PhaseKind.FAN_IN: ((Peers.WORKERS, Peers.OWNER),
                       (Peers.RACK_MEMBERS, Peers.RACK_LEADERS),
                       (Peers.RACK_LEADERS, Peers.OWNER)),
    PhaseKind.FAN_OUT: ((Peers.OWNER, Peers.WORKERS),
                        (Peers.OWNER, Peers.RACK_LEADERS)),
    PhaseKind.BROADCAST: ((Peers.WORKERS, Peers.WORKERS),
                          (Peers.OWNER, Peers.WORKERS),
                          (Peers.RACK_LEADERS, Peers.RACK_MEMBERS)),
    PhaseKind.RING_STEP: ((Peers.WORKERS, Peers.SUCCESSOR),),
}


@dataclass(frozen=True)
class Phase:
    """One step of a unit's schedule: who sends how much to whom.

    Phases run in order; phase ``k + 1`` starts when phase ``k`` finished,
    everywhere or on the same rack (:class:`Scope`).  Peers are roles and
    counts, never node lists, so a plan stays O(units) at any cluster size.

    Attributes:
        kind: the transfer pattern.
        src: who sends (the hub of a fan-out or broadcast).
        dst: who receives (the hub of a fan-in).
        nbytes: bytes of one message.
        hub_bytes: fabric kinds only -- bytes one shard gathers / scatters.
        scope: what the next phase waits for.
        gated: parameter-direction traffic: from this phase on, the unit
            waits for the worker's backward pass unless the system
            overlaps pulls (``SystemConfig.overlap_pull``).
        repeat: how many times the pattern runs back to back.
        detached: DES only -- each fan-out fetch is booked from its own
            queue entry (one hop later) and completes in another.  The coarse PS's gated pulls, released
            in one cascade at backward-done, stay ordered behind the last
            unit's pushes that way, as recorded; Adam fetches inline.
    """

    kind: PhaseKind
    src: Peers
    dst: Peers
    nbytes: float
    hub_bytes: float = 0.0
    scope: Scope = Scope.ALL
    gated: bool = False
    repeat: int = 1
    detached: bool = False


def owner_fan_phases(push: float, pull: float,
                     detached: bool = False) -> Tuple[Phase, ...]:
    """The owner fan: every worker pushes to one owner, then pulls."""
    return (Phase(PhaseKind.FAN_IN, Peers.WORKERS, Peers.OWNER, push),
            Phase(PhaseKind.FAN_OUT, Peers.OWNER, Peers.WORKERS, pull,
                  gated=True, detached=detached))


@dataclass(frozen=True)
class TrainerContext:
    """Cluster/training shape a backend needs to build trainer-side state.

    Attributes:
        num_workers: worker count (``P1``).
        num_servers: PS shard count (``P2``).
        batch_size: per-worker batch size.
        aggregation: ``"mean"`` or ``"sum"`` gradient aggregation.
        deterministic: request bit-reproducible reductions (worker-id order)
            from every substrate that aggregates floating point.
        optimizer_factory: builds one fresh optimiser instance per call; used
            by substrates that hold the authoritative parameter copy.
        policy: the execution-semantics policy the trainer runs under; BSP
            by default.  Substrates consult it to pick their consistency
            mode (e.g. the PS applies pushes on arrival for relaxed
            policies) and :meth:`CommBackend.create_syncer` uses it to
            route local-SGD parameter averaging.
        averager: shared :class:`~repro.comm.averaging.ParameterAverager`
            for local-SGD policies (``None`` otherwise).
        sync_timeout: deadlock guard plumbed into policy-driven waits.
    """

    num_workers: int
    num_servers: int
    batch_size: int
    aggregation: str = "mean"
    deterministic: bool = False
    optimizer_factory: Optional[Callable[[], Any]] = None
    policy: SyncPolicy = BSP
    averager: Any = None
    sync_timeout: Optional[float] = 60.0

    def make_optimizer(self) -> Any:
        if self.optimizer_factory is None:
            raise ConfigurationError(
                "this backend needs an optimizer_factory in its TrainerContext"
            )
        return self.optimizer_factory()


@dataclass
class WorkerResources:
    """Per-worker objects shared by all of that worker's syncers.

    Attributes:
        worker_id: the worker these resources belong to.
        local_optimizer: optimiser applied to the worker's own replica by
            peer-to-peer schemes (SFB, ring all-reduce).
        compressor: the worker's one stateful lossy encoder: a
            :class:`~repro.comm.compression.Compressor`, or the backend's
            own :attr:`~CommBackend.encoder` (``None`` for the default
            dense wire format).
    """

    worker_id: int
    local_optimizer: Any = None
    compressor: Any = None


class CommBackend(abc.ABC):
    """One communication scheme, end to end.

    Class attributes:
        name: the registry key -- the one name the scheme has: trainer
            mode, simulator ``SystemConfig.comm`` and Algorithm-1 choice.
        requires_factorization: gradients travel as sufficient factors, so
            the scheme only applies to factorisable (Dense / SF-eligible)
            layers; everything else falls back to PS.
        hybrid_candidate: participates in Algorithm 1's per-layer choice
            (the paper considers exact schemes only: PS and SFB).
        topology_candidate: additionally joins the Algorithm-1 choice when
            the network is rack-oversubscribed (the regime the scheme was
            built for); never consulted on a flat network, so the paper's
            decisions are untouched.
        hybrid_rank: tie-break for equal Algorithm-1 costs -- lower wins,
            which keeps the paper's "SFB on ties" rule.
        compression: payload shrink factor on dense PS-style transfers.
        encoder: factory of the worker-local lossy encoder the scheme's
            syncers always run (1-bit's quantizer, which has the
            :meth:`~repro.comm.compression.Compressor.compress` signature);
            ``None`` leaves the worker's one encoder slot to the configured
            compressor.
        compressible: whether the scheme moves whole dense gradients, so a
            pluggable :mod:`~repro.comm.compression` compressor (and the
            gradient bucketer) can ride it.  True for the PS and ring
            backends; factor- and quantized-payload schemes (SFB, Adam,
            1-bit, hierarchical PS) keep their own encodings.
        sync_semantics: execution-semantics capability declaration -- the
            :class:`~repro.core.policy.SyncPolicy` kinds this substrate can
            run.  Every backend supports ``bsp`` and ``local_sgd``
            (parameter averaging rides any substrate); only backends whose
            substrate tolerates workers running ahead of each other declare
            ``ssp``/``async`` (the PS family does, the collective schemes'
            all-worker rendezvous are inherent barriers).  Degenerate
            policies (ssp(0), local_sgd(1)) validate as ``bsp``.
        fault_modes: crash-recovery capability declaration -- the trainer
            recovery modes this substrate can serve.  Every backend
            supports ``restart`` (restore a checkpoint and replay);
            only substrates whose aggregation can renormalize to a
            ``P-1`` mean mid-run declare ``drop`` (the PS family does;
            collectives' fixed all-worker membership cannot shrink, so
            the trainer rejects drop mode for them at construction).
    """

    name: ClassVar[str]
    requires_factorization: ClassVar[bool] = False
    hybrid_candidate: ClassVar[bool] = False
    topology_candidate: ClassVar[bool] = False
    hybrid_rank: ClassVar[int] = 0
    compression: ClassVar[float] = 1.0
    encoder: ClassVar[Optional[Callable[[], Any]]] = None
    compressible: ClassVar[bool] = False
    sync_semantics: ClassVar[Tuple[str, ...]] = ("bsp", "local_sgd")
    fault_modes: ClassVar[Tuple[str, ...]] = ("restart",)

    # -- Algorithm 1 ------------------------------------------------------------
    def cost(self, m: int, n: int, cluster: ClusterConfig,
             batch_size: int) -> float:
        """Parameters a combined server/worker node of ``cluster`` moves.

        ``batch_size`` is Table 1's ``K``: the rows of the layer's
        sufficient factors, the batch size times its factor rank
        (:attr:`~repro.nn.spec.LayerSpec.factor_rank`); only the factor
        schemes read it.  On a flat network (or a lone worker) this is
        :meth:`flat_cost` bit-exactly.  On a rack-oversubscribed one a
        parameter that leaves its rack competes for ``1/oversubscription``
        of what the rack's ``L`` members could inject, so the cost is
        ``max(flat_cost, rack_uplink_params * oversubscription / L)`` --
        whichever is slower of the busiest NIC and the busiest rack uplink
        (dividing by ``L`` puts the rack's volume in per-node units).
        """
        flat = self.flat_cost(m, n, cluster, batch_size)
        if cluster.is_flat_topology or cluster.num_workers <= 1:
            return flat
        uplink = self.rack_uplink_params(m, n, cluster, batch_size)
        return max(flat, uplink * cluster.oversubscription
                   / cluster.nodes_per_rack)

    @abc.abstractmethod
    def flat_cost(self, m: int, n: int, cluster: ClusterConfig,
                  batch_size: int) -> float:
        """Table 1's cost on full bisection: the scheme's one price hook."""

    def rack_uplink_params(self, m: int, n: int, cluster: ClusterConfig,
                           batch_size: int) -> float:
        """Parameters crossing the busiest rack's uplink per iteration (tx+rx).

        The default models traffic spread uniformly over peers (true for
        the PS, SFB and 1-bit schemes): each of the rack's ``L`` members
        contributes its flat per-node cost scaled by the fraction of its
        peers outside the rack, ``(N - L) / (N - 1)`` of the ``N`` nodes
        (dedicated server nodes included, as the simulator routes them).
        Schemes with non-uniform cross-rack patterns (ring, hierarchical
        PS, Adam) override this with their exact split.
        """
        total, local = cluster.num_nodes, cluster.nodes_per_rack
        flat = self.flat_cost(m, n, cluster, batch_size)
        return local * flat * ((total - local) / max(total - 1, 1))

    # -- timed Algorithm 1 hooks -------------------------------------------------
    def latency_messages(self, cluster: ClusterConfig) -> float:
        """Serialized message rounds on the critical path of one sync.

        Multiplied by the cluster's per-message latency in the timed variant
        of Algorithm 1 (:meth:`repro.core.cost_model.CostModel.scheme_seconds`).
        The default models the PS family's push + pull round trip; schemes
        whose critical path touches every peer individually override this.
        """
        return 2.0

    def extra_flops(self, m: int, n: int, cluster: ClusterConfig,
                    batch_size: int) -> float:
        """Scheme-specific compute overhead (FLOPs) of one sync at one node.

        Zero for schemes that ship ready-to-apply dense gradients; factor
        schemes pay the outer-product reconstruction of each peer's update.
        """
        return 0.0

    # -- simulators ---------------------------------------------------------------
    def gradient_bytes(self, unit: Any, shape: SyncShape) -> float:
        """Wire bytes of one worker's whole-gradient message for ``unit``:
        compressed on a :attr:`compressible` backend with a compressor
        configured, ``param_bytes / compression`` otherwise."""
        if shape.compression is not None and self.compressible:
            return float(unit_wire_bytes(shape.compression, unit.param_bytes,
                                         unit.fc_dims, unit.payload_parts))
        return unit.param_bytes / self.compression

    def unit_phases(self, unit: Any, shape: SyncShape,
                    owner: int) -> Tuple[Phase, ...]:
        """The scheme's schedule for one unit -- written only here.

        ``unit`` is a :class:`~repro.simulation.workload.SyncUnit`, ``owner``
        the node the plan placed it on.  The DES and both fluid tiers read
        the phases from the resolved plan, and every node's traffic is
        folded from them (:func:`~repro.simulation.plan.node_traffic`).
        """
        raise ConfigurationError(
            f"backend {self.name!r} declares no unit_phases; "
            f"it cannot be simulated")

    # -- functional trainer -----------------------------------------------------
    @abc.abstractmethod
    def build_substrate(self, initial_layers: Dict[str, ArrayDict],
                        ctx: TrainerContext) -> Any:
        """Build the shared communication substrate for this scheme's layers.

        ``initial_layers`` maps each layer name to worker 0's *live*
        parameter dict, which that worker goes on training: a substrate
        that keeps parameters must copy them.
        """

    @abc.abstractmethod
    def make_syncer(self, layer: Any, substrate: Any,
                    resources: WorkerResources, ctx: TrainerContext,
                    policy: Optional[SyncPolicy] = None) -> Any:
        """Build the per-layer syncer one worker uses for ``layer``.

        ``policy`` defaults to ``ctx.policy``; implementations forward it
        into the :class:`~repro.core.syncer.Syncer` so pulls and gates
        follow the trainer's execution semantics.
        """

    def supports_policy(self, policy: SyncPolicy) -> bool:
        """Whether this substrate can run under ``policy``.

        Degenerate policies (ssp(0), local_sgd(1)) are BSP by construction
        and validate against the ``bsp`` capability.
        """
        kind = "bsp" if policy.is_bsp_equivalent else policy.kind
        return kind in self.sync_semantics

    def check_policy(self, policy: SyncPolicy) -> None:
        """Raise :class:`ConfigurationError` unless :meth:`supports_policy`.

        The one refusal the trainer, ``resolve_plan`` and the cost model
        share.
        """
        if not self.supports_policy(policy):
            raise ConfigurationError(
                f"backend {self.name!r} cannot run under policy {policy} "
                f"(supported semantics: {self.sync_semantics})")

    def supports_fault_mode(self, mode: str) -> bool:
        """Whether this substrate can serve a trainer recovery mode.

        ``"none"`` (no recovery) is always valid; other modes validate
        against :attr:`fault_modes`:

            >>> from repro.comm.backend import get_backend
            >>> get_backend("ps").supports_fault_mode("drop")
            True
            >>> get_backend("ring").supports_fault_mode("drop")
            False
        """
        return mode == "none" or mode in self.fault_modes

    def supports_compression(self, compression: Any) -> bool:
        """Whether this substrate can carry a pluggable compressor.

        ``compression`` is a :class:`repro.comm.wire.CompressionConfig` (or
        ``None``); identity configs are always valid, anything else needs a
        dense-gradient (:attr:`compressible`) wire format:

            >>> from repro.comm.backend import get_backend
            >>> from repro.comm.wire import CompressionConfig
            >>> cfg = CompressionConfig.parse("topk(0.01)")
            >>> get_backend("ps").supports_compression(cfg)
            True
            >>> get_backend("sfb").supports_compression(cfg)
            False
        """
        return compression is None or compression.is_identity or self.compressible

    def compression_cost_factor(self, compression: Any, m: int, n: int) -> float:
        """Algorithm-1 scale on :meth:`cost` when a compressor rides this scheme.

        The default (non-compressible backends, identity configs, or
        matrices below the compressor scope threshold) is exactly 1.0, so
        cost queries without a compressor are bit-identical to Table 1.
        Compressible backends override with their wire pattern's ratio.
        """
        return 1.0

    def create_syncer(self, layer: Any, substrate: Any,
                      resources: WorkerResources, ctx: TrainerContext,
                      policy: Optional[SyncPolicy] = None) -> Any:
        """Policy-aware syncer factory: the trainer's single entry point.

        Validates the policy against :attr:`sync_semantics`, routes
        parameter-averaging policies (local SGD with H > 1) to the
        substrate-agnostic :class:`~repro.core.syncer.LocalSGDSyncer`, and
        otherwise delegates to the backend's :meth:`make_syncer`.

        This is where a syncer is bound to its layer, so it is also where
        the layer learns which gradient representation it has to produce:
        a syncer whose handler consumes sufficient factors makes its
        ``Dense`` publish ``(x, dy)`` only (no local ``x^T @ dy``); every
        other binding leaves the dense path alone.
        """
        policy = ctx.policy if policy is None else policy
        self.check_policy(policy)
        if policy.averages_parameters:
            from repro.core.syncer import LocalSGDSyncer
            if ctx.averager is None:
                raise ConfigurationError(
                    f"policy {policy} needs a ParameterAverager in the "
                    f"TrainerContext"
                )
            syncer = LocalSGDSyncer(resources.worker_id, layer, self.name,
                                    averager=ctx.averager,
                                    local_optimizer=resources.local_optimizer,
                                    policy=policy,
                                    sync_timeout=ctx.sync_timeout)
        else:
            syncer = self.make_syncer(layer, substrate, resources, ctx,
                                      policy=policy)
        if syncer.consumes_factors:
            layer.publish_factors_only()
        return syncer


# -- registry ---------------------------------------------------------------------

_REGISTRY: Dict[str, CommBackend] = {}

#: Bumped on every (un)registration so caches of values derived from scheme
#: decisions (the memoized plans and lowerings) can detect registry changes.
_GENERATION = 0


def registry_generation() -> int:
    """Monotonic counter of registry mutations (for cache invalidation)."""
    return _GENERATION


def register_backend(backend: CommBackend) -> CommBackend:
    """Add a backend to the registry under its :attr:`~CommBackend.name`.

    Returns the backend so modules can ``BACKEND = register_backend(...)``.
    Registering makes the name a valid trainer mode, simulator comm mode
    and Algorithm-1 choice everywhere at once:

        >>> from repro.comm import backend as B
        >>> B.get_backend("ring") is B.registered_backends()["ring"]
        True
        >>> sorted(B.registered_backends())
        ['adam', 'hierps', 'onebit', 'ps', 'ring', 'sfb']

    Raises:
        ConfigurationError: if a backend with the same name is registered,
            or the name is :data:`HYBRID_MODE` (Algorithm 1 owns it).
    """
    global _GENERATION
    key = backend.name
    if key == HYBRID_MODE:
        raise ConfigurationError(
            f"{type(backend).__name__} cannot register as {key!r}: the name "
            f"is the per-layer Algorithm-1 mode")
    if key in _REGISTRY:
        raise ConfigurationError(
            f"communication backend {key!r} is already registered "
            f"(by {type(_REGISTRY[key]).__name__})"
        )
    _REGISTRY[key] = backend
    _GENERATION += 1
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (primarily for tests exercising registration)."""
    global _GENERATION
    if _REGISTRY.pop(name, None) is not None:
        _GENERATION += 1


def get_backend(name: str) -> CommBackend:
    """Resolve a registered scheme name to its backend.

        >>> from repro.comm.backend import get_backend
        >>> get_backend("sfb").name
        'sfb'
        >>> from repro.config import ClusterConfig
        >>> get_backend("ps").cost(4096, 4096, ClusterConfig(num_workers=8),
        ...                        batch_size=32)
        58720256.0

    Raises:
        ConfigurationError: for unknown schemes.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown communication scheme {name!r}; registered backends: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_backends() -> Dict[str, CommBackend]:
    """Copy of the registry in registration order."""
    return dict(_REGISTRY)


def check_compression(comm: str, compressor: Any
                      ) -> Optional[CompressionConfig]:
    """Parse ``compressor`` and check that mode ``comm`` can carry it.

    ``"hybrid"`` always can (its non-factorisable units stay on the PS), a
    backend if it :meth:`~CommBackend.supports_compression`.  Plans and the
    trainer ask here: a :class:`~repro.config.SystemConfig` cannot, since the
    registry changes at run time.  Returns the parsed config (``None`` at
    the identity); raises :class:`ConfigurationError` on an unparseable
    spec, an unknown ``comm`` or a mode without a dense-gradient path.
    """
    config = CompressionConfig.parse(compressor)

    def carries(mode: str) -> bool:
        return (mode == HYBRID_MODE
                or get_backend(mode).supports_compression(config))

    if not carries(comm):
        supported = ", ".join(mode for mode in (*_REGISTRY, HYBRID_MODE)
                              if carries(mode))
        raise ConfigurationError(
            f"comm mode {comm!r} has no dense-gradient path for compressor "
            f"{compressor!r} (supported modes: {supported})")
    return None if config.is_identity else config


def hybrid_candidates() -> Tuple[CommBackend, ...]:
    """Backends Algorithm 1 chooses between, in registration order."""
    return tuple(b for b in _REGISTRY.values() if b.hybrid_candidate)


def topology_candidates() -> Tuple[CommBackend, ...]:
    """Backends that join Algorithm 1 only on rack-oversubscribed networks."""
    return tuple(b for b in _REGISTRY.values() if b.topology_candidate)


def hybrid_choice(m: int, n: int, cluster: ClusterConfig, batch_size: int,
                  sf_eligible: bool = True,
                  price: Optional[Callable[[CommBackend], float]] = None
                  ) -> str:
    """Algorithm 1: the cheapest hybrid-candidate scheme's name for one layer.

    ``batch_size`` is the layer's factor row count ``K`` (see
    :meth:`CommBackend.cost`).  Factor-based candidates are skipped for
    non-factorisable layers and for single-worker clusters (one worker
    never communicates factors); ties go to the lowest ``hybrid_rank``
    (SFB before PS, matching the paper).

    On a rack-oversubscribed ``cluster`` every candidate's cost carries its
    cross-rack premium and the :attr:`~CommBackend.topology_candidate`
    backends (ring all-reduce, hierarchical PS) enter the comparison --
    so the per-layer choice becomes rack-aware.  ``price`` replaces the
    Table-1 volume with another per-backend figure of merit (the timed
    Algorithm 1 passes estimated seconds) over the same candidate set and
    tie-break:

        >>> from repro.comm.backend import hybrid_choice
        >>> from repro.config import ClusterConfig
        >>> hybrid_choice(4096, 1000, ClusterConfig(num_workers=16),
        ...               batch_size=32)
        'sfb'
        >>> racked = ClusterConfig(num_workers=16, racks=4,
        ...                        oversubscription=4.0)
        >>> hybrid_choice(4096, 1000, racked, batch_size=32)
        'ring'
    """
    candidates = hybrid_candidates()
    if not cluster.is_flat_topology:
        candidates += topology_candidates()
    factors = sf_eligible and cluster.num_workers > 1
    best: Optional[Tuple[Tuple[float, int], str]] = None
    for backend in candidates:
        if backend.requires_factorization and not factors:
            continue
        cost = (price(backend) if price is not None
                else backend.cost(m, n, cluster, batch_size))
        key = (cost, backend.hybrid_rank)
        if best is None or key < best[0]:
            best = (key, backend.name)
    if best is None:
        raise ConfigurationError("no hybrid-candidate backend is registered")
    return best[1]


def choose_scheme(mode: str, fc_dims: Optional[Tuple[int, int]],
                  sf_eligible: bool, cluster: ClusterConfig, batch_size: int,
                  price: Optional[Callable[[CommBackend], float]] = None,
                  factor_rank: int = 1) -> str:
    """The scheme (by name) one layer syncs under in ``mode`` -- the one rule.

    ``mode`` is ``"hybrid"`` (Algorithm 1 via :func:`hybrid_choice` on
    ``cluster``) or a registered backend name.  A layer that is not
    sufficient-factor decomposable (``sf_eligible`` with ``(M, N)``
    ``fc_dims``) rides the PS under ``"hybrid"`` and under any factor-based
    backend.  Its factors have ``K = batch_size * factor_rank`` rows
    (``factor_rank``: rows per sample, 1 for a CNN FC layer, ``T`` for a
    token FC).  The trainer (``assign_schemes``), the simulators
    (``decide_schemes``) and the :class:`~repro.core.cost_model.CostModel`
    (``best_scheme`` and ``best_scheme_timed``, under ``"hybrid"`` only)
    all decide here:

        >>> from repro.comm.backend import choose_scheme
        >>> from repro.config import ClusterConfig
        >>> cluster = ClusterConfig(num_workers=16)
        >>> choose_scheme("hybrid", (4096, 1000), True, cluster, 32)
        'sfb'
        >>> choose_scheme("hybrid", (4096, 1000), True, cluster, 32,
        ...               factor_rank=256)
        'ps'
        >>> choose_scheme("sfb", None, False, cluster, 32)
        'ps'

    Raises:
        ConfigurationError: in every mode, when ``batch_size`` or
            ``factor_rank`` is not an integer >= 1, or ``mode`` is unknown.
    """
    for label, count in (("batch_size", batch_size),
                         ("factor_rank", factor_rank)):
        if not isinstance(count, numbers.Integral) or count < 1:
            raise ConfigurationError(
                f"{label} must be an integer >= 1, got {count!r}")
    factorizable = sf_eligible and fc_dims is not None
    if mode == HYBRID_MODE:
        if not factorizable:
            return "ps"
        m, n = fc_dims
        return hybrid_choice(m, n, cluster, batch_size * factor_rank,
                             price=price)
    backend = get_backend(mode)
    if backend.requires_factorization and not factorizable:
        return "ps"
    return backend.name


# -- built-in backends -------------------------------------------------------------


class PSBackend(CommBackend):
    """Dense gradients through the sharded parameter server (Figure 2(a))."""

    name = "ps"
    hybrid_candidate = True
    hybrid_rank = 1  # PS loses Algorithm-1 ties to SFB
    compressible = True  # whole dense gradients: compressors/buckets apply
    # The server can apply pushes on arrival, so workers may legitimately
    # run ahead of each other: the full consistency spectrum is available.
    sync_semantics = ("bsp", "ssp", "async", "local_sgd")
    # The server's mean is a running count over live workers, so it can
    # renormalize to P-1 when a dead worker is dropped mid-run.
    fault_modes = ("restart", "drop")

    def flat_cost(self, m, n, cluster, batch_size):
        # Sharded traffic is spread uniformly over peers, so the default
        # rack-uplink split applies.
        return ps_combined_cost(m, n, cluster.num_workers, cluster.num_servers)

    def unit_phases(self, unit, shape, owner):
        if shape.fine:
            # KV-sharded: a worker exchanges its remote shards with the
            # fabric, a shard gathers (then scatters) its remote workers'
            # slices.  This expression order is the recorded trace's.
            local = 1 if shape.colocated else 0
            push = (unit.param_bytes
                    * ((shape.num_servers - local) / shape.num_servers)
                    / self.compression)
            shard = (unit.param_bytes * (shape.num_workers - local)
                     / shape.num_servers / self.compression)
            return (Phase(PhaseKind.FABRIC_OUT, Peers.WORKERS, Peers.SHARDS,
                          push, hub_bytes=shard),
                    Phase(PhaseKind.FABRIC_IN, Peers.SHARDS, Peers.WORKERS,
                          push, hub_bytes=shard, gated=True))
        # Coarse: a compressor shrinks the pushed gradient, the pulled
        # parameters stay dense.
        return owner_fan_phases(self.gradient_bytes(unit, shape),
                                unit.param_bytes / self.compression,
                                detached=True)

    def compression_cost_factor(self, compression, m, n):
        # PS pushes travel compressed, pulls come back dense; with
        # ``r = compressed/dense`` the 2 M N worker term becomes
        # (1 + r) M N, i.e. a (1 + r)/2 scale on every Table-1 PS term.
        # Non-compressible subclasses (1-bit) keep their own encoding.
        if (not self.compressible or compression is None
                or not compression.compresses(m, n)):
            return 1.0
        return (1.0 + compression.weight_ratio(m, n)) / 2.0

    def build_substrate(self, initial_layers, ctx):
        from repro.comm.parameter_server import ShardedParameterServer
        # Relaxed-consistency policies (ssp s>0, async) apply each push on
        # arrival instead of waiting for the all-worker rendezvous.
        updates = 1 if ctx.policy.relaxed_consistency else None
        return ShardedParameterServer(
            initial_layers, ctx.num_workers, optimizer=ctx.make_optimizer(),
            aggregation=ctx.aggregation, ordered=ctx.deterministic,
            updates_per_version=updates,
        )

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        from repro.core.syncer import Syncer
        # The class's own name, not self.name: a subclass registered under
        # another name still speaks this protocol.
        return Syncer(resources.worker_id, layer, PSBackend.name,
                      ps=substrate,
                      aggregation=ctx.aggregation,
                      compressor=resources.compressor,
                      policy=ctx.policy if policy is None else policy,
                      sync_timeout=ctx.sync_timeout)


class OneBitBackend(PSBackend):
    """1-bit quantized gradients through the PS (the CNTK baseline)."""

    name = "onebit"
    hybrid_candidate = False  # approximate: Algorithm 1 only weighs exact schemes
    compression = ONEBIT_COMPRESSION
    compressible = False  # already quantized: pluggable compressors don't stack

    @staticmethod
    def encoder():
        # The PS syncer's compressed path runs the quantizer: lossy push,
        # dense pull, conv kernels quantized too (every engine prices both
        # directions of every parameter at 1/32; see docs/backends.md).
        from repro.comm.quantization import OneBitQuantizer
        return OneBitQuantizer()

    def flat_cost(self, m, n, cluster, batch_size):
        # 1-bit quantization shrinks the PS payload by ~32x in both
        # directions (scales are negligible at this granularity).
        return (ps_combined_cost(m, n, cluster.num_workers, cluster.num_servers)
                / self.compression)


class SFBBackend(CommBackend):
    """Peer-to-peer sufficient-factor broadcasting."""

    name = "sfb"
    requires_factorization = True
    hybrid_candidate = True
    hybrid_rank = 0  # SFB wins Algorithm-1 ties

    def flat_cost(self, m, n, cluster, batch_size):
        # Factor broadcasts address every peer directly, so the default
        # uniform peer split is the exact cross-rack accounting.
        return sfb_worker_cost(m, n, batch_size, cluster.num_workers)

    def latency_messages(self, cluster):
        # P-1 unicast broadcasts: each peer transfer pays its own setup.
        return float(max(cluster.num_workers - 1, 1))

    def extra_flops(self, m, n, cluster, batch_size):
        # Reconstruct each peer's dW = U^T V: 2 K M N FLOPs per peer.
        return 2.0 * batch_size * max(cluster.num_workers - 1, 0) * m * n

    def unit_phases(self, unit, shape, owner):
        # One factor copy to, and one from, each of the P1 - 1 peers.
        return (Phase(PhaseKind.BROADCAST, Peers.WORKERS, Peers.WORKERS,
                      unit.sufficient_factor_bytes(shape.batch_size)),)

    def build_substrate(self, initial_layers, ctx):
        from repro.comm.sfb import SufficientFactorBroadcaster
        return SufficientFactorBroadcaster(ctx.num_workers)

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        from repro.core.syncer import Syncer
        return Syncer(resources.worker_id, layer, SFBBackend.name,
                      sfb=substrate,
                      local_optimizer=resources.local_optimizer,
                      aggregation=ctx.aggregation,
                      policy=ctx.policy if policy is None else policy,
                      sync_timeout=ctx.sync_timeout)


class AdamBackend(CommBackend):
    """Project Adam's SF-push / full-matrix-pull strategy."""

    name = "adam"
    requires_factorization = True

    def flat_cost(self, m, n, cluster, batch_size):
        return adam_combined_cost(m, n, batch_size, cluster.num_workers)

    def rack_uplink_params(self, m, n, cluster, batch_size):
        # The owning shard is the hotspot: its rack's uplink carries every
        # out-of-rack worker's factors in and full matrices back out.
        workers = cluster.num_workers
        remote = workers - min(cluster.nodes_per_rack, workers)
        return remote * (m * n + batch_size * (m + n))

    def extra_flops(self, m, n, cluster, batch_size):
        # The owning node reconstructs every peer's factors before applying.
        return 2.0 * batch_size * max(cluster.num_workers - 1, 0) * m * n

    def unit_phases(self, unit, shape, owner):
        return owner_fan_phases(
            unit.sufficient_factor_bytes(shape.batch_size), unit.param_bytes)

    def build_substrate(self, initial_layers, ctx):
        from repro.comm.adam import AdamSFServer
        return AdamSFServer(
            initial_layers, ctx.num_workers, optimizer=ctx.make_optimizer(),
            aggregation=ctx.aggregation, ordered=ctx.deterministic,
        )

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        from repro.core.syncer import Syncer
        return Syncer(resources.worker_id, layer, AdamBackend.name,
                      adam=substrate,
                      aggregation=ctx.aggregation,
                      policy=ctx.policy if policy is None else policy,
                      sync_timeout=ctx.sync_timeout)


class HierPSBackend(CommBackend):
    """Rack-aggregated parameter server as a pluggable backend."""

    name = "hierps"
    #: Joins Algorithm 1 only on oversubscribed networks: rack aggregation
    #: shrinks cross-rack traffic from one flow per worker to one per rack.
    topology_candidate = True
    hybrid_rank = 3  # never steals a flat tie from SFB (0) or PS (1)

    def flat_cost(self, m, n, cluster, batch_size):
        """Transmit+receive volume at the busiest node of the tree.

        A rack leader exchanges the whole rack's gradients and parameters
        (``2 R M N``); the root owner exchanges one aggregate per rack
        (``2 ceil(P1/R) M N``).  The hotspot is whichever fan is wider.
        ``R`` is the plan's tree rack (:func:`tree_rack_size`), so on an
        oversubscribed cluster the tree follows the physical racks, and
        the cross-rack premium applies only to the per-rack aggregates
        (see :meth:`rack_uplink_params`).
        """
        workers = cluster.num_workers
        if workers <= 1:
            return 0.0
        rack_size = tree_rack_size(cluster)
        local_fan = min(rack_size, workers)
        num_racks = math.ceil(workers / rack_size)
        return 2.0 * m * n * max(local_fan, num_racks)

    def rack_uplink_params(self, m, n, cluster, batch_size):
        # Only the pre-reduced per-rack aggregates cross rack boundaries.
        # The root owner's rack is the hotspot: every other rack's
        # aggregate comes in and the updated parameters go back out.
        racks = math.ceil(cluster.num_workers / cluster.nodes_per_rack)
        return 2.0 * m * n * (racks - 1)

    def latency_messages(self, cluster):
        # Two tree levels, each a push + pull round trip.
        return 4.0

    def unit_phases(self, unit, shape, owner):
        dense = unit.param_bytes / self.compression
        # The tree follows ``shape.rack_size`` -- the physical racks of an
        # oversubscribed cluster (the whole point of the scheme), logical
        # racks of DEFAULT_RACK_SIZE on a flat one: members push to their
        # leader, each complete rack's leader forwards one aggregate to the
        # root owner, and once every aggregate arrived the leaders fetch
        # the fresh parameters and redistribute them inside their racks.
        return (Phase(PhaseKind.FAN_IN, Peers.RACK_MEMBERS, Peers.RACK_LEADERS,
                      dense, scope=Scope.GROUP),
                Phase(PhaseKind.FAN_IN, Peers.RACK_LEADERS, Peers.OWNER,
                      dense),
                Phase(PhaseKind.FAN_OUT, Peers.OWNER, Peers.RACK_LEADERS,
                      dense, scope=Scope.GROUP, gated=True),
                Phase(PhaseKind.BROADCAST, Peers.RACK_LEADERS,
                      Peers.RACK_MEMBERS, dense, scope=Scope.GROUP))

    def build_substrate(self, initial_layers, ctx):
        from repro.comm.hierarchical import HierarchicalParameterServer
        return HierarchicalParameterServer(
            initial_layers, ctx.num_workers,
            optimizer=ctx.make_optimizer(), aggregation=ctx.aggregation,
        )

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        from repro.comm.hierarchical import HierPSSyncer
        return HierPSSyncer(resources.worker_id, layer, substrate,
                            aggregation=ctx.aggregation,
                            policy=ctx.policy if policy is None else policy,
                            sync_timeout=ctx.sync_timeout)


class RingBackend(CommBackend):
    """Chunked ring all-reduce as an Algorithm-1-comparable backend."""

    name = "ring"
    #: Joins Algorithm 1 only on oversubscribed networks, where the ring's
    #: single boundary hop per rack makes it far cheaper than peer fan-outs.
    topology_candidate = True
    hybrid_rank = 2  # never steals a flat tie from SFB (0) or PS (1)
    #: Dense-gradient collective: pluggable compressors apply (the lossy
    #: payload is what both ring phases carry).
    compressible = True

    def flat_cost(self, m, n, cluster, batch_size):
        """Transmit+receive volume per node: ``4 M N (P1-1)/P1`` parameters.

        Each direction moves ``2 (P1-1)/P1 * M N`` -- notably equal to the
        colocated sharded-PS combined cost when ``P2 == P1``, which is why
        the paper's PS-with-colocated-shards baseline is already
        bandwidth-optimal for dense layers.  Under rack oversubscription
        the ring shines: consecutive-id workers make every hop intra-rack
        except one per rack, so a rack uplink carries a single node's
        volume however many nodes share it.
        """
        workers = cluster.num_workers
        if workers <= 1:
            return 0.0
        return 4.0 * m * n * (workers - 1) / workers

    def rack_uplink_params(self, m, n, cluster, batch_size):
        # One boundary flow leaves (and one enters) each rack per ring
        # step: the uplink carries exactly one node's transmit volume,
        # independent of how many nodes the rack aggregates.
        return self.flat_cost(m, n, cluster, batch_size)

    def latency_messages(self, cluster):
        # 2 (P1 - 1) serialized ring steps (reduce-scatter + all-gather).
        return 2.0 * max(cluster.num_workers - 1, 1)

    def compression_cost_factor(self, compression, m, n):
        """Both ring phases carry the compressed payload: the factor is
        the wire ratio itself."""
        if compression is None or not compression.compresses(m, n):
            return 1.0
        return compression.weight_ratio(m, n)

    def unit_phases(self, unit, shape, owner):
        # Reduce-scatter then all-gather move the (compressed) gradient in
        # 1/P chunks: 2 (P - 1) lockstep steps, each shipping one chunk to
        # the ring successor's downlink (point-to-point flows, so NIC
        # contention with other units emerges naturally) behind an
        # all-worker barrier -- the ring's data dependency.  The fluid tiers
        # book them as one ``repeat * step`` hold; the DES steps them, or
        # holds once where that is exact (``IterationSimulator._lowered``).
        # A lone worker's plan is never run; one step keeps it valid.
        chunk = self.gradient_bytes(unit, shape) / shape.num_workers
        steps = max(2 * (shape.num_workers - 1), 1)
        return (Phase(PhaseKind.RING_STEP, Peers.WORKERS, Peers.SUCCESSOR,
                      chunk, repeat=steps),)

    def build_substrate(self, initial_layers, ctx):
        from repro.comm.ring import RingAllReducer
        return RingAllReducer(ctx.num_workers)

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        from repro.comm.ring import RingSyncer
        return RingSyncer(resources.worker_id, layer, substrate,
                          resources.local_optimizer, aggregation=ctx.aggregation,
                          compressor=resources.compressor,
                          policy=ctx.policy if policy is None else policy,
                          sync_timeout=ctx.sync_timeout)


PS_BACKEND = register_backend(PSBackend())
SFB_BACKEND = register_backend(SFBBackend())
ONEBIT_BACKEND = register_backend(OneBitBackend())
ADAM_BACKEND = register_backend(AdamBackend())
HIERPS_BACKEND = register_backend(HierPSBackend())
RING_BACKEND = register_backend(RingBackend())
