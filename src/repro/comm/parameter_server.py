"""A bulk-synchronous sharded parameter server.

Functional equivalent of the paper's KV-store-backed PS (Section 4.1): the
server holds the authoritative copy of every layer's parameters, receives
gradient contributions from all workers, applies them once every worker has
contributed (bulk synchronous consistency: a KV pair is broadcast when its
update count equals the number of workers), and hands the fresh parameters
back.

The paper's store "sets the size of a KV pair to a fixed small size" and
applies each pair on its own.  The in-process analogue is the block of
:data:`~repro.nn.optim.BLOCK_ELEMENTS` elements: ``SGD.apply`` folds, averages
and steps a completed version one cache-resident block at a time, so the
server owns no full-size gradient buffer -- only the parameters and
references to the pushed contributions.

Because the functional runtime lives in a single process, "shards" are a
partitioning of the parameters used for byte accounting and balance
statistics; correctness does not depend on the shard count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.message import ByteMeter
from repro.core.consistency import Rendezvous
from repro.exceptions import CommunicationError
from repro.nn.optim import SGD

#: A layer's parameters or gradients: parameter name -> array.
ArrayDict = Dict[str, np.ndarray]


class _LayerSlot:
    """Per-layer aggregation state.

    Pushes are buffered by reference and folded into the parameters, block
    by block, when the version's last contribution arrives.
    """

    def __init__(self, params: ArrayDict, server: "ShardedParameterServer"):
        self.params = {key: value.copy() for key, value in params.items()}
        self.version = 0
        self.condition = server._new_condition()    # this slot's wait point
        # This version's (worker id, contribution) pairs, in arrival order.
        self.contributions: List[Tuple[int, Any]] = []


class ShardedParameterServer(Rendezvous):
    """BSP parameter server over named layers.

    One :class:`~repro.core.consistency.Rendezvous` with a wait point per
    layer slot: pushes to different layers never contend, while abort and
    membership are the server's.

    Args:
        initial_params: layer name -> parameter dict; defines the global
            model state all workers will train.
        num_workers: number of workers that must contribute per iteration.
        optimizer: optimiser applied to the global parameters on aggregation.
        aggregation: ``"mean"`` (average worker gradients; equivalent to
            training on the combined batch with the same learning rate) or
            ``"sum"`` (the literal form of Eq. 2).
        ordered: reduce a completed iteration's contributions in
            worker-id order, making the aggregate bit-identical run-to-run
            regardless of which thread pushes first (floating-point
            addition is not associative).  The default folds them in
            arrival order, which lets thread scheduling perturb the last
            bits.  Either way the fold is the shared
            :func:`~repro.nn.optim.fold_in_order`.
        updates_per_version: pushes that trigger one optimiser step and
            version bump.  ``None`` (the default) means ``num_workers`` --
            the BSP rendezvous.  Relaxed-consistency policies (SSP with
            s > 0, fully async) pass 1 so each worker's update is applied
            as it arrives; the double-push guard is disabled since workers
            legitimately run ahead of each other.
    """

    _pull_tag = "pull"

    def __init__(self, initial_params: Dict[str, ArrayDict], num_workers: int,
                 optimizer: Optional[SGD] = None, aggregation: str = "mean",
                 ordered: bool = False,
                 updates_per_version: Optional[int] = None):
        super().__init__(num_workers)
        if aggregation not in ("mean", "sum"):
            raise CommunicationError(
                f"aggregation must be 'mean' or 'sum', got {aggregation!r}"
            )
        if updates_per_version is not None and updates_per_version < 1:
            raise CommunicationError(
                f"updates_per_version must be >= 1, got {updates_per_version}")
        #: Fixed pushes per version of a relaxed policy; ``None`` is the BSP
        #: rendezvous, which follows the live membership.
        self._fixed_updates = (None if updates_per_version in (None, num_workers)
                               else int(updates_per_version))
        self.aggregation = aggregation
        self.ordered = bool(ordered)
        #: Whether a version's contributions fold in worker-id order (the
        #: ordered BSP rendezvous) rather than arrival order.
        self._folds_by_worker = self.ordered and self._fixed_updates is None
        self.optimizer = optimizer or SGD(learning_rate=0.01)
        self._slots: Dict[str, _LayerSlot] = {
            name: _LayerSlot(params, self) for name, params in initial_params.items()
        }
        self.meter = ByteMeter()

    # -- introspection -----------------------------------------------------------
    @property
    def updates_per_version(self) -> int:
        """Pushes that trigger one optimiser step and version bump."""
        return self._fixed_updates or self.num_workers

    @property
    def layer_names(self) -> List[str]:
        """Names of the layers this server manages."""
        return list(self._slots)

    def version(self, layer: str) -> int:
        """Number of aggregated updates applied to ``layer`` so far."""
        return self._slot(layer).version

    def _slot(self, layer: str) -> _LayerSlot:
        try:
            return self._slots[layer]
        except KeyError as exc:
            raise CommunicationError(
                f"{type(self).__name__} has no layer {layer!r}") from exc

    @staticmethod
    def _check_arrays(layer: str, slot: _LayerSlot, arrays: ArrayDict,
                      what: str) -> None:
        """Every array must name a parameter of ``layer`` and match its shape."""
        for key, array in arrays.items():
            if key not in slot.params:
                raise CommunicationError(
                    f"layer {layer!r} has no parameter {key!r}"
                )
            if array.shape != slot.params[key].shape:
                raise CommunicationError(
                    f"layer {layer!r} parameter {key!r}: {what} shape "
                    f"{array.shape} does not match parameter {slot.params[key].shape}"
                )

    # -- worker-facing API ----------------------------------------------------------
    def push(self, worker_id: int, layer: str, grads: ArrayDict,
             nbytes: Optional[int] = None) -> int:
        """Contribute one worker's gradient for ``layer``.

        The last contribution of the iteration triggers aggregation and the
        optimiser step.  ``grads`` is held by reference until then and must
        not be written in the meantime (a layer's ``backward`` never does:
        it rebinds ``grads[...]`` to fresh arrays).  Returns the number of
        bytes this push represents on the wire.
        """
        slot = self._slot(layer)
        push_bytes = int(nbytes) if nbytes is not None else sum(
            int(g.nbytes) for g in grads.values())
        with slot.condition:
            self._check_arrays(layer, slot, grads, "gradient")
            # Buffered by reference: a staged gradient is never written
            # again (``Layer.backward`` rebinds ``grads[...]``), so the
            # arrays are stable until the fold runs.
            self._contribute_locked(worker_id, layer, slot, grads)
        self.meter.record(push_bytes, "received", tag=f"push:{layer}")
        return push_bytes

    def _contribute_locked(self, worker_id: int, layer: str, slot: _LayerSlot,
                           contribution: Any) -> None:
        """Buffer one contribution; the version's last one applies it."""
        self._admit(worker_id, "push to layer {!r} {verb}", layer)
        needed = self.updates_per_version
        if len(slot.contributions) >= needed or (self._folds_by_worker and any(
                pusher == worker_id for pusher, _ in slot.contributions)):
            raise CommunicationError(
                f"layer {layer!r}: worker {worker_id} pushed twice in one "
                f"iteration ({needed} pushes expected per version)")
        slot.contributions.append((worker_id, contribution))
        if len(slot.contributions) == needed:
            self._apply_locked(layer, slot)

    def pull(self, worker_id: int, layer: str, min_version: int,
             timeout: Optional[float] = 30.0,
             out: Optional[ArrayDict] = None) -> ArrayDict:
        """Block until ``layer`` has reached ``min_version`` and return its params.

        Args:
            out: the caller's own parameter arrays (e.g. ``Layer.params``).
                When given, the current version is copied straight into
                them under the slot lock -- one pass per pulled byte, no
                intermediate copy -- and ``out`` is returned.  Without it
                every puller gets a private mutable copy.

        Raises:
            SyncTimeout: if the wait times out (deadlock guard).
            CommunicationError: if ``out`` names a parameter the layer lacks
                or holds an array of the wrong shape (nothing is written).
        """
        slot = self._slot(layer)
        with slot.condition:
            self._wait(slot.condition, lambda: slot.version >= min_version,
                       timeout, "pull of layer {!r} {verb} waiting for version "
                       "{} (current {.version})", layer, min_version, slot)
            if out is None:
                out = {key: value.copy() for key, value in slot.params.items()}
            else:
                self._check_arrays(layer, slot, out, "pull target")
                for key, target in out.items():
                    np.copyto(target, slot.params[key])
        pull_bytes = sum(int(p.nbytes) for p in out.values())
        self.meter.record(pull_bytes, "sent", tag=f"{self._pull_tag}:{layer}")
        return out

    # -- fault tolerance ----------------------------------------------------------------
    def checkpoint(self, include_optimizer: bool = False
                   ) -> Dict[str, Dict[str, np.ndarray]]:
        """Snapshot the global parameter state (plus per-layer versions).

        The paper's KV store "will regularly checkpoint current parameter
        states for fault tolerance" (Section 4.1); this returns a deep copy
        that :meth:`restore` accepts.  With ``include_optimizer=True`` the
        server-side optimiser state (momentum velocities) is captured under
        a top-level ``"__optimizer__"`` key, which exact crash recovery
        needs whenever the optimiser is stateful.
        """
        snapshot: Dict[str, Dict[str, np.ndarray]] = {}
        for name, slot in self._slots.items():
            with slot.condition:
                snapshot[name] = {key: value.copy() for key, value in slot.params.items()}
                snapshot[name]["__version__"] = np.array(slot.version)
        if include_optimizer:
            snapshot["__optimizer__"] = self.optimizer.get_state()
        return snapshot

    def restore(self, snapshot: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore parameters and versions from a :meth:`checkpoint` snapshot.

        Raises:
            CommunicationError: if the snapshot covers unknown layers or has
                mismatched shapes.
        """
        optimizer_state = snapshot.get("__optimizer__")
        if optimizer_state is not None:
            self.optimizer.set_state(optimizer_state)
            snapshot = {name: params for name, params in snapshot.items()
                        if name != "__optimizer__"}
        for name, params in snapshot.items():
            slot = self._slot(name)
            with slot.condition:
                for key, value in params.items():
                    if key == "__version__":
                        slot.version = int(value)
                        continue
                    if key not in slot.params:
                        raise CommunicationError(
                            f"snapshot has unknown parameter {name}/{key}")
                    if value.shape != slot.params[key].shape:
                        raise CommunicationError(
                            f"snapshot shape mismatch for {name}/{key}: "
                            f"{value.shape} vs {slot.params[key].shape}")
                    np.copyto(slot.params[key], value)
                slot.contributions.clear()
                slot.condition.notify_all()
        self._readmit()

    def remove_worker(self, worker_id: int) -> None:
        """Drop a dead worker: renormalize aggregation to a P-1 mean.

        Any in-flight contribution buffered for the dead worker is
        discarded; if the survivors have already all pushed the pending
        iteration, aggregation triggers immediately so nobody waits for
        the ghost.  The BSP rendezvous count shrinks with the membership,
        so subsequent means divide by the surviving worker count.
        """
        if not self._drop(worker_id):
            return
        for layer, slot in self._slots.items():
            with slot.condition:
                slot.contributions = [pair for pair in slot.contributions
                                      if pair[0] != worker_id]
                if 0 < len(slot.contributions) >= self.updates_per_version:
                    self._apply_locked(layer, slot)

    # -- aggregation -------------------------------------------------------------------
    def _apply_locked(self, layer: str, slot: _LayerSlot) -> None:
        """Step ``layer`` with the pending contributions (lock held)."""
        pending = slot.contributions
        if self._folds_by_worker:
            pending = sorted(pending, key=lambda pair: pair[0])
        slot.contributions = []
        self._step_locked(layer, slot, [given for _, given in pending])
        slot.version += 1
        slot.condition.notify_all()

    def _step_locked(self, layer: str, slot: _LayerSlot,
                     contributions: List[ArrayDict]) -> None:
        """Step every parameter the contributions name, folding them in
        the order given (fold, mean and step fused per block)."""
        per_key: Dict[str, List[np.ndarray]] = {}
        for grads in contributions:
            for key, grad in grads.items():
                per_key.setdefault(key, []).append(grad)
        scale = (1.0 / float(self.num_workers) if self.aggregation == "mean"
                 else None)
        for key, grads in per_key.items():
            self.optimizer.apply(f"{layer}/{key}", slot.params[key], grads,
                                 scale=scale)
