"""Per-layer syncers.

"The client library will create a syncer for each NN layer during network
assembling (so that each layer one-to-one maps to one syncer), accounting
for its parameter synchronization" (Section 4.1).  A syncer owns the
layer's communication: it moves gradients out of the layer (``Move``),
ships them using the scheme the coordinator selected (``Send``), waits for
the synchronized result (``Receive``) and installs it back into the layer
(``Move`` again) -- the exact sequence of Algorithm 2's ``SYNC`` function.

The functional syncers below operate on real numpy layers and the
functional substrates in :mod:`repro.comm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.comm.adam import AdamSFServer
from repro.comm.averaging import ParameterAverager
from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.sfb import SufficientFactorBroadcaster
from repro.core.policy import BSP, SyncPolicy
from repro.exceptions import TrainingError
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.optim import SGD
from repro.nn.sufficient_factors import factorize_dense_gradient


@dataclass
class SyncStats:
    """Byte counters accumulated by one syncer."""

    bytes_sent: int = 0
    bytes_received: int = 0
    syncs: int = 0

    @property
    def total(self) -> int:
        """Total bytes in both directions."""
        return self.bytes_sent + self.bytes_received


class Syncer:
    """Synchronizes one layer's parameters under a fixed scheme.

    ``scheme`` is the registered name of the protocol the syncer speaks
    (``"ps"``, ``"sfb"`` or ``"adam"`` here; subclasses name their own).
    A backend subclassing a built-in inherits its protocol.
    """

    def __init__(self, worker_id: int, layer: Layer, scheme: str,
                 ps: Optional[ShardedParameterServer] = None,
                 sfb: Optional[SufficientFactorBroadcaster] = None,
                 adam: Optional[AdamSFServer] = None,
                 local_optimizer: Optional[SGD] = None,
                 compressor=None,
                 aggregation: str = "mean",
                 policy: Optional[SyncPolicy] = None,
                 sync_timeout: Optional[float] = 30.0):
        self.worker_id = int(worker_id)
        self.layer = layer
        self.scheme = scheme
        self.ps = ps
        self.sfb = sfb
        self.adam = adam
        self.local_optimizer = local_optimizer
        #: Optional lossy encoder with the
        #: :meth:`repro.comm.compression.Compressor.compress` signature (a
        #: compressor, or the 1-bit backend's quantizer); when set on a
        #: dense-gradient scheme the push travels lossy at the encoded wire
        #: size while the pull stays dense.
        self.compressor = compressor
        self.aggregation = aggregation
        self.policy = BSP if policy is None else policy
        #: Deadline for every blocking wait on this syncer's sync path; the
        #: trainer plumbs its ``sync_timeout`` here so a dead peer fails
        #: the run with :class:`~repro.exceptions.SyncTimeout` instead of
        #: hanging on a substrate's historical hardcoded default.
        self.sync_timeout = sync_timeout
        self.stats = SyncStats()
        self._staged_grads: Optional[Dict[str, np.ndarray]] = None
        self._validate_backends()

    @property
    def consumes_factors(self) -> bool:
        """Whether the handler that will run reads the layer's ``(x, dy)``
        factors and never its dense weight gradient, so the layer need not
        (and, once bound by ``create_syncer``, does not) materialise
        ``x^T @ dy`` -- a property of the handler, not of the reporting
        :attr:`scheme`."""
        return self._scheme_handler() in (self._sync_sfb, self._sync_adam)

    def ready(self, worker_clock: int, min_clock: int) -> bool:
        """Staleness gate: may this worker start its next iteration?

        Delegates to the policy's SSP invariant -- a worker at
        ``worker_clock`` may proceed only while it leads the slowest worker
        (``min_clock``) by at most the policy's staleness bound.  BSP is the
        bound-0 case; async always answers True.
        """
        return self.policy.ready(worker_clock, min_clock)

    def _pull_min_version(self, iteration: int) -> int:
        """Server version a pull must wait for under the current policy.

        BSP-like policies demand the version that includes every worker's
        ``iteration`` contribution.  Relaxed-consistency policies
        (ssp(s>0), async) apply each push on arrival, so the puller's own
        update is already in whatever version is current -- no wait.
        """
        if self.policy.relaxed_consistency:
            return 0
        return iteration + 1

    def _validate_backends(self) -> None:
        if self.scheme == "ps" and self.ps is None:
            raise TrainingError(
                f"syncer for {self.layer.name!r}: scheme {self.scheme} needs a parameter server"
            )
        if self.scheme == "sfb":
            if self.sfb is None or self.local_optimizer is None:
                raise TrainingError(
                    f"syncer for {self.layer.name!r}: SFB needs a broadcaster and a local optimizer"
                )
            if not isinstance(self.layer, Dense):
                raise TrainingError(
                    f"syncer for {self.layer.name!r}: SFB applies only to Dense layers"
                )
        if self.scheme == "adam":
            if self.adam is None:
                raise TrainingError(
                    f"syncer for {self.layer.name!r}: Adam scheme needs an AdamSFServer"
                )
            if not isinstance(self.layer, Dense):
                raise TrainingError(
                    f"syncer for {self.layer.name!r}: Adam scheme applies only to Dense layers"
                )

    # -- paper API ----------------------------------------------------------------
    def move_out(self) -> Dict[str, np.ndarray]:
        """``Move(GPU2CPU)``: stage the layer's gradients for communication.

        Staging is by reference -- a shallow dict over the layer's own
        gradient arrays, no copy.  It rests on the ownership contract of
        :meth:`Layer.backward <repro.nn.layers.base.Layer.backward>`: the
        next backward pass *rebinds* ``grads[...]`` to fresh arrays, so a
        staged array is never written again and a substrate may hold it
        for as long as it needs (``docs/architecture.md``, "Gradient
        buffer ownership").
        """
        self._staged_grads = dict(self.layer.grads)
        return self._staged_grads

    def send_and_receive(self, iteration: int) -> SyncStats:
        """``Send`` then ``Receive`` then ``Move(CPU2GPU)`` for one iteration.

        Blocks until the layer's parameters reflect every worker's
        contribution for ``iteration`` (BSP).
        """
        if self._staged_grads is None:
            self.move_out()
        self._scheme_handler()(iteration)
        self._staged_grads = None
        self.stats.syncs += 1
        return self.stats

    def sync(self, iteration: int) -> SyncStats:
        """Full syncer job: Move out, Send, Receive, Move in (Algorithm 2)."""
        self.move_out()
        return self.send_and_receive(iteration)

    def _scheme_handler(self):
        """The bound method implementing this syncer's scheme.

        Backends whose schemes are not implemented by this class provide a
        subclass overriding this hook (and ``_validate_backends``), e.g.
        :class:`repro.comm.ring.RingSyncer`.
        """
        try:
            if self.scheme == "ps" and self.compressor is not None:
                return self._sync_compressed
            return {
                "ps": self._sync_ps,
                "sfb": self._sync_sfb,
                "adam": self._sync_adam,
            }[self.scheme]
        except KeyError:
            raise TrainingError(
                f"scheme {self.scheme} has no functional handler in Syncer; "
                f"its backend must supply a Syncer subclass via make_syncer"
            ) from None

    # -- scheme implementations ------------------------------------------------------
    def _push_pull(self, iteration: int, grads: Dict[str, np.ndarray],
                   nbytes: Optional[int] = None) -> None:
        """PS ``Send`` / ``Receive``: push ``grads``, pull into the layer.

        The pull lands directly in the layer's parameter arrays
        (``out=``), so ``Move(CPU2GPU)`` is the same single pass.
        """
        assert self.ps is not None
        sent = self.ps.push(self.worker_id, self.layer.name, grads,
                            nbytes=nbytes)
        params = self.ps.pull(self.worker_id, self.layer.name,
                              min_version=self._pull_min_version(iteration),
                              timeout=self.sync_timeout, out=self.layer.params)
        self.stats.bytes_sent += sent
        self.stats.bytes_received += sum(int(p.nbytes) for p in params.values())

    def _sync_ps(self, iteration: int) -> None:
        assert self._staged_grads is not None
        self._push_pull(iteration, self._staged_grads)

    def _sync_compressed(self, iteration: int) -> None:
        """PS sync through the lossy encoder: lossy push, dense pull."""
        assert self.compressor is not None and self._staged_grads is not None
        lossy_grads, wire_bytes = self.compressor.compress(
            self.layer.name, self._staged_grads)
        self._push_pull(iteration, lossy_grads, nbytes=wire_bytes)

    def _sync_sfb(self, iteration: int) -> None:
        assert self.sfb is not None and self.local_optimizer is not None
        dense_layer = self.layer
        assert isinstance(dense_layer, Dense)
        u, v = dense_layer.sufficient_factors()
        sent = self.sfb.publish(self.worker_id, self.layer.name, iteration,
                                factorize_dense_gradient(u, v),
                                extras={"bias": dense_layer.grads["bias"]})
        weight_grad, extra_grads, received = self.sfb.collect(
            self.worker_id, self.layer.name, iteration,
            aggregation=self.aggregation, timeout=self.sync_timeout)
        # The aggregate is every peer's too: the blocked step reads it once
        # and forms the update in a block-sized scratch, not a full copy.
        self.local_optimizer.apply(
            f"{self.layer.name}/weight", dense_layer.params["weight"], [weight_grad])
        for key, grad in extra_grads.items():
            self.local_optimizer.apply(
                f"{self.layer.name}/{key}", dense_layer.params[key], grad)
        self.stats.bytes_sent += sent
        self.stats.bytes_received += received

    def _sync_adam(self, iteration: int) -> None:
        assert self.adam is not None
        dense_layer = self.layer
        assert isinstance(dense_layer, Dense)
        u, v = dense_layer.sufficient_factors()
        factors = factorize_dense_gradient(u, v)
        extras = {"bias": dense_layer.grads["bias"]}
        sent = self.adam.push_factors(self.worker_id, self.layer.name, factors,
                                      extras=extras)
        params = self.adam.pull_matrix(self.worker_id, self.layer.name,
                                       min_version=iteration + 1,
                                       timeout=self.sync_timeout)
        self.layer.set_params(params)
        self.stats.bytes_sent += sent
        self.stats.bytes_received += sum(int(p.nbytes) for p in params.values())


class LocalSGDSyncer(Syncer):
    """Local SGD over any substrate: local steps, periodic parameter averaging.

    Every iteration applies the layer's gradients with the worker-local
    optimizer (no communication at all); every ``H``-th iteration the
    workers rendezvous on a :class:`~repro.comm.averaging.ParameterAverager`
    and replace their parameters with the cluster mean.  Wire traffic is
    therefore ``1/H`` of per-iteration gradient sync -- the byte counters
    only move on averaging rounds.

    The ``scheme`` is kept for reporting: it names the substrate whose
    backend built this syncer (parameter averaging is substrate-agnostic,
    so any backend can host it).
    """

    def __init__(self, worker_id: int, layer: Layer, scheme: str,
                 averager: ParameterAverager, local_optimizer: SGD,
                 policy: SyncPolicy,
                 sync_timeout: Optional[float] = 60.0):
        self.averager = averager
        super().__init__(worker_id, layer, scheme,
                         local_optimizer=local_optimizer, policy=policy,
                         sync_timeout=sync_timeout)

    def _validate_backends(self) -> None:
        if self.averager is None:
            raise TrainingError(
                f"syncer for {self.layer.name!r}: local SGD needs a "
                f"parameter averager")
        if self.local_optimizer is None:
            raise TrainingError(
                f"syncer for {self.layer.name!r}: local SGD needs a "
                f"worker-local optimizer")
        if self.policy.kind != "local_sgd":
            raise TrainingError(
                f"syncer for {self.layer.name!r}: LocalSGDSyncer requires a "
                f"local_sgd policy, got {self.policy}")

    def _scheme_handler(self):
        return self._sync_local

    def _sync_local(self, iteration: int) -> None:
        assert self._staged_grads is not None
        for key, grad in self._staged_grads.items():
            self.local_optimizer.apply(
                f"{self.layer.name}/{key}", self.layer.params[key], grad)
        period = self.policy.sync_period
        if (iteration + 1) % period != 0:
            return
        round_index = (iteration + 1) // period - 1
        deposit_bytes = sum(int(p.nbytes) for p in self.layer.params.values())
        # The averager buffers by reference; this worker blocks inside
        # average() until the mean exists, so the live arrays are safe.
        mean = self.averager.average(self.worker_id, self.layer.name,
                                     round_index, self.layer.params,
                                     timeout=self.sync_timeout)
        self.layer.set_params(mean)
        self.stats.bytes_sent += deposit_bytes
        self.stats.bytes_received += sum(int(p.nbytes) for p in mean.values())
