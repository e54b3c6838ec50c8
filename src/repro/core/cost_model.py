"""The analytic communication-cost model of Table 1.

For an ``M x N`` fully-connected layer synchronized across ``P1`` worker
nodes and ``P2`` server shards whose sufficient factors have ``K`` rows
per worker (the batch size times the layer's factor rank: one row per
image, or one per token of a token FC), Table 1 gives the number of *parameters* (float values) a node must transmit plus
receive in one iteration under three strategies:

=============  =======================  =========================  ==============================
Strategy       Server node              Worker node                Server & worker node
=============  =======================  =========================  ==============================
PS             ``2 P1 M N / P2``        ``2 M N``                  ``2 M N (P1 + P2 - 2) / P2``
SFB            (no servers)             ``2 K (P1 - 1)(M + N)``    (same as worker)
Adam (max)     ``P1 M N + P1 K (M+N)``  ``K (M + N) + M N``        ``(P1-1)(M N + K M + K N)``
=============  =======================  =========================  ==============================

``BestScheme`` (Algorithm 1) chooses SFB for an FC layer exactly when its
worker-side SFB cost is at most the PS cost of a combined server/worker
node; everything else goes through the parameter server.
"""

from __future__ import annotations

import numbers
from typing import Optional, Tuple

from repro import units
from repro.config import ClusterConfig
from repro.core.policy import BSP, SyncPolicy
from repro.exceptions import ConfigurationError
from repro.nn.spec import LayerKind, LayerSpec


# -- raw Table 1 formulas (parameter counts) -------------------------------------


def ps_worker_cost(m: int, n: int) -> float:
    """PS cost at a pure worker node: push the gradient, pull the parameters."""
    _validate_dims(m, n)
    return 2.0 * m * n


def ps_server_cost(m: int, n: int, num_workers: int, num_servers: int) -> float:
    """PS cost at a pure server node holding ``1/P2`` of the layer."""
    _validate_dims(m, n)
    _validate_cluster(num_workers, num_servers)
    return 2.0 * num_workers * m * n / num_servers


def ps_combined_cost(m: int, n: int, num_workers: int, num_servers: int) -> float:
    """PS cost at a node that is both a worker and a server shard."""
    _validate_dims(m, n)
    _validate_cluster(num_workers, num_servers)
    return 2.0 * m * n * (num_workers + num_servers - 2) / num_servers


def sfb_worker_cost(m: int, n: int, batch_size: int, num_workers: int) -> float:
    """SFB cost at a worker: broadcast own factors, receive everyone else's."""
    _validate_dims(m, n)
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    return 2.0 * batch_size * (num_workers - 1) * (m + n)


def adam_server_cost(m: int, n: int, batch_size: int, num_workers: int) -> float:
    """Adam cost at the server shard owning the layer (the hotspot)."""
    _validate_dims(m, n)
    return num_workers * m * n + num_workers * batch_size * (m + n)


def adam_worker_cost(m: int, n: int, batch_size: int) -> float:
    """Adam cost at a worker: push factors, pull the full matrix."""
    _validate_dims(m, n)
    return batch_size * (m + n) + m * n


def adam_combined_cost(m: int, n: int, batch_size: int, num_workers: int) -> float:
    """Adam cost at a node that is both the owning server and a worker."""
    _validate_dims(m, n)
    return (num_workers - 1) * (m * n + batch_size * m + batch_size * n)


def _validate_dims(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ConfigurationError(f"matrix dims must be >= 1, got {m}x{n}")


def _validate_cluster(num_workers: int, num_servers: int) -> None:
    if num_workers < 1 or num_servers < 1:
        raise ConfigurationError(
            f"cluster sizes must be >= 1, got P1={num_workers} P2={num_servers}"
        )


def _matrix_dims(layer: LayerSpec) -> Tuple[int, int]:
    """The ``(M, N)`` the Table-1 formulas price ``layer`` at.

    Non-FC layers are an indecomposable parameter blob on the dense PS
    path; a ``1 x P`` matrix keeps the PS formulas exact for them.
    """
    if layer.kind is LayerKind.FC:
        return layer.fc_dims
    return 1, max(layer.param_count, 1)


# -- model-level cost interface ---------------------------------------------------


class CostModel:
    """Evaluates Table 1 for concrete layers and cluster configurations.

    Every backend cost query takes the cluster, so on an oversubscribed
    cluster :meth:`best_scheme` and :meth:`scheme_cost_params` price
    cross-rack bytes at a premium (and Algorithm 1's candidate set grows by
    the topology-aware collectives); on the default flat cluster they
    reproduce Table 1 exactly.
    """

    def __init__(self, cluster: ClusterConfig, batch_size: int,
                 policy=None, compression=None):
        if not isinstance(batch_size, numbers.Integral) or batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be an integer >= 1, got {batch_size!r}")
        self.cluster = cluster
        self.batch_size = int(batch_size)
        # Imported lazily for symmetry with the backend imports below
        # (repro.comm.wire itself has no circular dependency on us).
        from repro.comm.wire import CompressionConfig

        #: Pluggable-compressor spec the byte queries reflect.  Scheme
        #: *choice* (Algorithm 1 / :meth:`best_scheme`) never considers it
        #: -- compression is orthogonal to the routing decision -- but
        #: :meth:`scheme_cost_params` scales each compressible backend's
        #: cost by its :meth:`~repro.comm.backend.CommBackend.compression_cost_factor`.
        parsed = CompressionConfig.parse(compression)
        self.compression: Optional[CompressionConfig] = (
            None if parsed.is_identity else parsed)
        #: Execution semantics the costs are amortized under.  Per-iteration
        #: comm terms scale by the policy's effective sync frequency (1/H
        #: for local SGD), so scheme rankings and byte budgets reflect what
        #: actually crosses the wire per training step.  The default (BSP)
        #: reproduces Table 1 exactly.
        self.policy: SyncPolicy = SyncPolicy.parse(policy)

    def _policy(self, policy) -> SyncPolicy:
        """``policy`` parsed, or the model's own when it is ``None``."""
        return self.policy if policy is None else SyncPolicy.parse(policy)

    # -- per-layer ------------------------------------------------------------
    def choose(self, layer: LayerSpec, price=None) -> str:
        """The name of the hybrid scheme ``layer`` synchronizes under.

        :func:`repro.comm.backend.choose_scheme` fed from the layer spec:
        Algorithm 1, optionally over another ``price`` than the Table-1
        volume.
        """
        # Imported lazily: repro.comm.backend depends on this module's
        # Table-1 formulas, so a module-level import would be circular.
        from repro.comm.backend import HYBRID_MODE, choose_scheme

        fc_dims = layer.fc_dims if layer.kind is LayerKind.FC else None
        return choose_scheme(HYBRID_MODE, fc_dims, layer.sf_decomposable,
                             self.cluster, self.batch_size, price=price,
                             factor_rank=layer.factor_rank or 1)

    def factor_rows(self, layer: LayerSpec) -> int:
        """Table 1's ``K`` for ``layer``: the batch times its factor rank."""
        return self.batch_size * (layer.factor_rank or 1)

    def best_scheme(self, layer: LayerSpec, policy=None) -> str:
        """Algorithm 1: the cheapest hybrid-candidate backend for ``layer``.

        On a rack-oversubscribed cluster the comparison is topology-aware:
        costs carry the cross-rack premium and the topology-candidate
        backends (ring all-reduce, hierarchical PS) join the choice.

        The sync-frequency factor of ``policy`` multiplies every candidate
        alike, so the argmin is policy-invariant; a chosen backend that
        cannot run under ``policy`` raises :class:`ConfigurationError`, as
        ``resolve_plan`` and the trainer do.
        """
        return self._checked(self.choose(layer), policy)

    def _checked(self, scheme: str, policy) -> str:
        """``scheme``, once its backend is known to run under ``policy``."""
        from repro.comm.backend import get_backend

        get_backend(scheme).check_policy(self._policy(policy))
        return scheme

    # -- timed Algorithm 1 -------------------------------------------------------
    def scheme_seconds(self, layer: LayerSpec, scheme: str,
                       policy=None) -> float:
        """Estimated seconds a combined node spends synchronizing ``layer``.

        The timed refinement of Table 1: wire bytes at the cluster's
        effective bandwidth, plus per-message latency on the scheme's
        critical path (:meth:`~repro.comm.backend.CommBackend.latency_messages`),
        plus scheme compute overhead at the cluster's GPU
        (:meth:`~repro.comm.backend.CommBackend.extra_flops` -- the
        outer-product reconstruction factor schemes pay).  Unlike the
        volumetric costs this depends on bandwidth: as the network speeds
        up, the fixed latency and reconstruction terms dominate and the
        cheapest scheme can flip.
        """
        from repro.comm.backend import get_backend

        backend = get_backend(scheme)
        wire_seconds = (self.scheme_cost_bytes(layer, scheme, policy=policy)
                        / (self.cluster.effective_bandwidth_bps / 8.0))
        m, n = _matrix_dims(layer)
        freq = self._policy(policy).sync_frequency
        latency_seconds = (backend.latency_messages(self.cluster)
                           * self.cluster.latency_seconds)
        compute_seconds = self.cluster.gpu.compute_seconds(
            backend.extra_flops(m, n, self.cluster, self.factor_rows(layer)))
        return wire_seconds + freq * (latency_seconds + compute_seconds)

    def best_scheme_timed(self, layer: LayerSpec, policy=None) -> str:
        """Algorithm 1 with a clock: cheapest candidate by :meth:`scheme_seconds`.

        :meth:`best_scheme` compares transmitted parameter *counts*, so its
        choice is bandwidth-invariant.  This variant compares estimated
        wall time instead, which adds two bandwidth-dependent effects: at
        high bandwidth SFB's ``P1 - 1`` per-peer broadcast setups and its
        gradient-reconstruction matmuls stop amortizing, pushing
        near-crossover layers back to PS.  Candidate set and tie-breaking
        are :func:`~repro.comm.backend.hybrid_choice`'s.  The candidates are
        priced under BSP: ``policy`` scales every price by the same sync
        frequency, and is checked on the chosen backend only (see
        :meth:`best_scheme`).
        """
        choice = self.choose(layer, price=lambda backend: self.scheme_seconds(
            layer, backend.name, policy=BSP))
        return self._checked(choice, policy)

    # -- bytes-on-the-wire helpers ----------------------------------------------
    def scheme_cost_params(self, layer: LayerSpec, scheme: str,
                           policy=None) -> float:
        """Parameter count a combined server/worker node moves for ``layer``.

        Topology-aware: on an oversubscribed cluster the value includes the
        scheme's cross-rack premium (see
        :meth:`~repro.comm.backend.CommBackend.cost`).  Under a
        local-SGD ``policy`` the per-iteration amount shrinks by the sync
        frequency ``1/H``.  A scheme whose backend cannot run under the
        resolved policy raises :class:`ConfigurationError`, as
        ``resolve_plan`` and the trainer do.
        """
        from repro.comm.backend import get_backend

        backend = get_backend(scheme)
        resolved = self._policy(policy)
        backend.check_policy(resolved)
        if backend.requires_factorization and not layer.sf_decomposable:
            raise ConfigurationError(
                f"layer {layer.name!r} is not SF-decomposable; "
                f"{scheme} does not apply"
            )
        is_fc = layer.kind is LayerKind.FC
        m, n = _matrix_dims(layer)
        freq = resolved.sync_frequency
        # The compressor only touches FC weight matrices (the shared scope
        # rule of repro.comm.wire); conv/bias blobs ship dense everywhere.
        factor = (backend.compression_cost_factor(self.compression, m, n)
                  if is_fc and self.compression is not None else 1.0)
        return freq * factor * backend.cost(m, n, self.cluster,
                                            self.factor_rows(layer))

    def scheme_cost_bytes(self, layer: LayerSpec, scheme: str,
                          policy=None) -> float:
        """Same as :meth:`scheme_cost_params` but in bytes."""
        return (self.scheme_cost_params(layer, scheme, policy=policy)
                * units.FLOAT32_BYTES)
