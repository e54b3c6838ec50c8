"""Top-level Poseidon API: the coordinator's view of one training job.

"To setup distributed training, the client program first instantiates
Poseidon by creating a coordinator within its process.  Coordinators will
first collect necessary information, including the cluster information
(e.g., the number of workers and server nodes ...) and the model
architecture ... the coordinator will initialize the KV stores and the
client library" (Section 4.1).

:class:`PoseidonContext` is that coordinator: given a model architecture, a
cluster description and training hyper-parameters it answers the paper's
``Query`` and ``BestScheme`` calls, partitions the KV store and exposes the
HybComm :class:`CommunicationPlan` -- one :class:`SyncDecision` per layer,
"always choos[ing] the best method from available ones whenever it results
in fewer communication overheads" (Section 3.2).  It holds no decision
logic of its own: schemes come from the one per-layer rule
(:func:`repro.comm.backend.choose_scheme`) and bytes from the
:class:`~repro.core.cost_model.CostModel`, as for trainer and simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Union

from repro import units
from repro.config import (POSEIDON_CAFFE, ClusterConfig, Partitioning,
                          SystemConfig, TrainingConfig)
from repro.core.cost_model import CostModel
from repro.core.kvstore import (
    KVStorePartition,
    partition_coarse_grained,
    partition_fine_grained,
)
from repro.exceptions import ConfigurationError
from repro.nn.spec import LayerKind, LayerSpec, ModelSpec


@dataclass(frozen=True)
class SyncDecision:
    """The plan's decision for one parameter layer.

    Attributes:
        layer: layer name.
        scheme: the registered name of the scheme HybComm selected.
        ps_bytes: bytes a combined server/worker node would move under PS.
        sfb_bytes: same under SFB (``None`` when SFB does not apply).
        layer_param_bytes: dense size of the layer's parameters.
    """

    layer: str
    scheme: str
    ps_bytes: float
    sfb_bytes: Optional[float]
    layer_param_bytes: int

    @property
    def chosen_bytes(self) -> float:
        """Bytes moved per node under the chosen scheme."""
        if self.scheme == "sfb" and self.sfb_bytes is not None:
            return self.sfb_bytes
        return self.ps_bytes

    @property
    def savings_bytes(self) -> float:
        """Bytes saved relative to always using the parameter server."""
        return max(0.0, self.ps_bytes - self.chosen_bytes)


@dataclass(frozen=True)
class CommunicationPlan:
    """The static synchronization plan for one model on one cluster.

    Attributes:
        model_name: the planned model.
        decisions: one :class:`SyncDecision` per parameter layer.
        assignments: layer name -> chosen scheme name (a convenience view).
        hybrid_bytes_per_node: per-node bytes per iteration under the plan.
        ps_bytes_per_node: per-node bytes per iteration under pure PS.
    """

    model_name: str
    decisions: List[SyncDecision]
    assignments: Dict[str, str]
    hybrid_bytes_per_node: float
    ps_bytes_per_node: float

    @property
    def savings_fraction(self) -> float:
        """Fraction of PS traffic eliminated by hybrid communication."""
        if self.ps_bytes_per_node == 0:
            return 0.0
        return 1.0 - self.hybrid_bytes_per_node / self.ps_bytes_per_node

    @property
    def sfb_layer_names(self) -> List[str]:
        """Layers the plan synchronizes via sufficient-factor broadcasting."""
        return [name for name, scheme in self.assignments.items()
                if scheme == "sfb"]

    def scheme_for(self, layer_name: str) -> str:
        """Scheme assigned to ``layer_name``.

        Raises:
            KeyError: if the plan has no such layer.
        """
        return self.assignments[layer_name]


class PoseidonContext:
    """Poseidon's planning facade for one (model, cluster, training) triple:
    the plan's mode is ``system.comm``, the KV store's ``partitioning``."""

    def __init__(self, model: ModelSpec, cluster: ClusterConfig,
                 training: Optional[TrainingConfig] = None,
                 system: SystemConfig = POSEIDON_CAFFE):
        self.model = model
        self.cluster = cluster
        self.training = training or TrainingConfig(
            batch_size=model.default_batch_size)
        self.system = system
        self.cost_model = CostModel(cluster, self.training.batch_size)

    # -- information book ---------------------------------------------------------
    @cached_property
    def _information_book(self) -> Dict[str, Any]:
        book: Dict[str, Any] = {
            "n_worker": self.cluster.num_workers,
            "n_server": self.cluster.num_servers,
            "batchsize": self.training.batch_size,
            "bandwidth_gbps": self.cluster.bandwidth_gbps,
            "kv_pair_bytes": self.cluster.kv_pair_bytes,
            "model_name": self.model.name,
            "num_layers": self.model.num_layers,
            "total_params": self.model.total_params,
        }
        for layer in self.model.layers:
            book[f"layer:{layer.name}:type"] = layer.kind.value
            book[f"layer:{layer.name}:params"] = layer.param_count
            if layer.kind is LayerKind.FC:
                m, n = layer.fc_dims
                book[f"layer:{layer.name}:width"] = m
                book[f"layer:{layer.name}:height"] = n
        return book

    def query(self, *properties: str) -> Union[Any, List[Any]]:
        """Look up one or more entries of the information book.

        Mirrors the paper's ``Query`` API (Table 2).  A single property
        returns a scalar; multiple properties return a list in order.

        Raises:
            KeyError: if a property is unknown.
        """
        if not properties:
            raise ConfigurationError("query() needs at least one property name")
        values = [self._information_book[name] for name in properties]
        return values[0] if len(values) == 1 else values

    # -- planning -------------------------------------------------------------
    @cached_property
    def plan(self) -> CommunicationPlan:
        """The (lazily computed, cached) communication plan."""
        return self.build_plan()

    def build_plan(self, force_scheme: Optional[str] = None
                   ) -> CommunicationPlan:
        """Compute a plan: one :class:`SyncDecision` per parameter layer.

        Args:
            force_scheme: plan under this mode instead of the system's
                ``comm`` (the always-PS / always-SFB ablations); a factor
                scheme still leaves non-decomposable layers on PS.
        """
        mode = self.system.comm if force_scheme is None else force_scheme
        cost = self.cost_model.scheme_cost_bytes
        decisions = [
            SyncDecision(
                layer=layer.name,
                scheme=self.cost_model.choose(layer, mode),
                ps_bytes=cost(layer, "ps"),
                sfb_bytes=(cost(layer, "sfb")
                           if layer.sf_decomposable else None),
                layer_param_bytes=layer.param_bytes,
            )
            for layer in self.model.parameter_layers()
        ]
        return CommunicationPlan(
            model_name=self.model.name,
            decisions=decisions,
            assignments={d.layer: d.scheme for d in decisions},
            hybrid_bytes_per_node=sum(d.chosen_bytes for d in decisions),
            ps_bytes_per_node=sum(d.ps_bytes for d in decisions),
        )

    def best_scheme(self, layer: Union[str, LayerSpec]) -> str:
        """Algorithm 1 for a single layer (the coordinator's ``BestScheme``)."""
        spec = self.model.layer(layer) if isinstance(layer, str) else layer
        return self.cost_model.best_scheme(spec)

    @cached_property
    def kv_partition(self) -> KVStorePartition:
        """The fine- (or coarse-) grained KV partition for this cluster."""
        if self.system.partitioning is Partitioning.FINE:
            return partition_fine_grained(self.model, self.cluster.num_servers,
                                          self.cluster.kv_pair_bytes)
        return partition_coarse_grained(self.model, self.cluster.num_servers)

    # -- reporting ---------------------------------------------------------------
    def bytes_per_iteration(self, scheme: Optional[str] = None) -> float:
        """Per-node communication bytes per iteration.

        Args:
            scheme: ``None`` for the system's plan, otherwise force a scheme.
        """
        if scheme is None:
            return self.plan.hybrid_bytes_per_node
        return self.build_plan(force_scheme=scheme).hybrid_bytes_per_node

    def describe(self) -> str:
        """Multi-line human-readable description of the context and plan."""
        plan = self.plan
        lines = [
            f"Poseidon plan for {self.model.name} on {self.cluster.num_workers} workers "
            f"/ {self.cluster.num_servers} server shards "
            f"({self.cluster.bandwidth_gbps:g} GbE, batch {self.training.batch_size})",
            f"  parameters: {self.model.total_params / 1e6:.1f}M "
            f"({self.model.fc_param_fraction * 100:.0f}% in FC layers)",
            f"  SFB layers: {', '.join(plan.sfb_layer_names) or '(none)'}",
            f"  per-node traffic/iteration: "
            f"{units.human_bytes(plan.hybrid_bytes_per_node)} hybrid vs "
            f"{units.human_bytes(plan.ps_bytes_per_node)} pure PS "
            f"({plan.savings_fraction * 100:.1f}% saved)",
            f"  KV partition imbalance: {self.kv_partition.imbalance():.3f}",
        ]
        return "\n".join(lines)
