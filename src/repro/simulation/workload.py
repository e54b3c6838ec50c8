"""Derive a simulation workload from a model specification.

A :class:`SyncUnit` is the granularity at which the simulator schedules
computation and communication: usually one parameter layer, but adjacent
small non-factorisable layers (e.g. the conv/BN stacks of ResNet) are merged
into a single unit, mirroring how Poseidon's KV store batches small tensors
into 2 MB pairs.  Fully-connected layers are never merged because HybComm
may route them differently.

Compute times are calibrated so that the single-node iteration time matches
the paper's reported single-node images/second for that model; the per-unit
split then follows the layers' FLOP counts.  This keeps the ratio of
computation to communication -- the quantity Poseidon's design targets --
faithful to the paper's Titan X testbed without needing the hardware.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import units
from repro.config import GpuModel, TITAN_X
from repro.exceptions import ConfigurationError
from repro.memo import Memo
from repro.nn.spec import LayerKind, ModelSpec

#: Units smaller than this are merged with their neighbours (unless they are
#: FC layers).  2 MB matches Poseidon's KV pair size.
DEFAULT_COARSEN_BYTES = 2 * units.MB


@dataclass(frozen=True)
class SyncUnit:
    """One schedulable unit of parameters.

    Attributes:
        name: representative name (first merged layer).
        param_bytes: dense size of the unit's parameters/gradients.
        sf_eligible: whether the unit is a single FC layer whose gradient can
            be sent as sufficient factors.
        fc_dims: the ``(M, N)`` shape for SF-eligible units, else ``None``.
        backward_seconds: GPU time between the previous unit's gradient and
            this unit's gradient becoming available (the unit's own backward
            pass plus any parameter-free layers above it).
        layer_names: all model layers folded into this unit.
        payload_parts: per-member ``(param_bytes, fc_dims)`` of a merged
            gradient *bucket* (:func:`repro.comm.bucketing.bucket_workload`),
            so compressed wire accounting stays exact member by member.
            ``None`` (the default, and every non-bucketed unit) prices the
            unit from its own ``param_bytes``/``fc_dims``.
        factor_rank: rows of the unit's sufficient factors per sample
            (:attr:`~repro.nn.spec.LayerSpec.factor_rank`): a factor scheme
            ships ``K = batch * factor_rank`` rows.  1 on every unit that
            is not a single FC layer.
    """

    name: str
    param_bytes: int
    sf_eligible: bool
    fc_dims: Optional[Tuple[int, int]]
    backward_seconds: float
    layer_names: Tuple[str, ...]
    payload_parts: Optional[Tuple[Tuple[int, Optional[Tuple[int, int]]], ...]] = None
    factor_rank: int = 1

    def sufficient_factor_bytes(self, batch_size: int) -> int:
        """Bytes of the unit's gradient encoded as sufficient factors:
        ``batch_size * factor_rank`` rows of ``M + N`` floats.

        Raises:
            ConfigurationError: if the unit is not SF-eligible.
        """
        if not self.sf_eligible or self.fc_dims is None:
            raise ConfigurationError(f"unit {self.name!r} is not SF-eligible")
        m, n = self.fc_dims
        return int(batch_size * self.factor_rank * (m + n)
                   * units.FLOAT32_BYTES)


@dataclass(frozen=True)
class IterationWorkload:
    """Everything the simulator needs to know about one training iteration.

    Attributes:
        model_name: the model this workload was derived from.
        batch_size: per-GPU batch size.
        forward_seconds: GPU time of the forward pass.
        tail_backward_seconds: backward time of layers below the lowest
            parameter unit (runs at the end of backprop, gates nothing).
        units: sync units in *forward* order (bottom of the network first);
            the backward pass visits them in reverse.
        single_node_seconds: calibrated single-node iteration time (pure
            computation, no communication).
        total_param_bytes: dense size of the whole model.
    """

    model_name: str
    batch_size: int
    forward_seconds: float
    tail_backward_seconds: float
    units: Tuple[SyncUnit, ...]
    single_node_seconds: float
    total_param_bytes: int

    @property
    def backward_seconds(self) -> float:
        """Total backward-pass time (all units plus the tail)."""
        return sum(unit.backward_seconds for unit in self.units) + self.tail_backward_seconds

    @property
    def compute_seconds(self) -> float:
        """Total GPU compute time of one iteration."""
        return self.forward_seconds + self.backward_seconds

#: A workload only depends on (model, batch, gpu, coarsen threshold) -- not
#: on bandwidth or cluster size -- so every point of a figure sweep shares
#: one instance (the dataclass is frozen; nothing downstream mutates it).
_WORKLOADS = Memo()


def build_workload(model: ModelSpec, batch_size: Optional[int] = None,
                   gpu: GpuModel = TITAN_X,
                   coarsen_bytes: int = DEFAULT_COARSEN_BYTES) -> IterationWorkload:
    """Build (or fetch the memoized) simulation workload for ``model``.

    Args:
        model: architecture specification.
        batch_size: per-GPU batch size; defaults to the model's Table 3 value.
        gpu: GPU throughput model, used only when the paper reports no
            single-node throughput for this model.
        coarsen_bytes: merge threshold for small adjacent non-FC units.
    """
    batch = model.default_batch_size if batch_size is None else batch_size
    # Whole (numpy ints too), as the trainer requires: never truncated.
    if not isinstance(batch, numbers.Integral) or batch < 1:
        raise ConfigurationError(
            f"batch_size must be an integer >= 1, got {batch!r}")
    batch = int(batch)
    return _WORKLOADS.get(
        (model, batch, gpu, coarsen_bytes),
        lambda: _derive_workload(model, batch, gpu, coarsen_bytes))


def _derive_workload(model: ModelSpec, batch: int, gpu: GpuModel,
                     coarsen_bytes: int) -> IterationWorkload:
    """Derive a workload from scratch (the uncached body of ``build_workload``)."""
    flops_per_sample = model.flops_per_sample
    if model.reference_images_per_sec:
        total_compute = batch / model.reference_images_per_sec
    else:
        total_compute = batch * flops_per_sample / gpu.effective_flops
    seconds_per_flop = (
        total_compute / (batch * flops_per_sample) if flops_per_sample > 0 else 0.0
    )

    def layer_backward_seconds(flops_backward: float) -> float:
        return batch * flops_backward * seconds_per_flop

    forward_seconds = batch * model.flops_forward * seconds_per_flop

    # Walk layers from the top of the network down, attributing parameter-free
    # backward work to the parameter layer whose gradient it delays.
    raw_units: List[SyncUnit] = []
    pending_seconds = 0.0
    for layer in reversed(model.layers):
        if layer.has_parameters:
            backward = layer_backward_seconds(layer.flops_backward) + pending_seconds
            pending_seconds = 0.0
            fc_dims = layer.fc_dims if layer.kind is LayerKind.FC else None
            raw_units.append(
                SyncUnit(
                    name=layer.name,
                    param_bytes=layer.param_bytes,
                    sf_eligible=layer.sf_decomposable,
                    fc_dims=fc_dims,
                    backward_seconds=backward,
                    layer_names=(layer.name,),
                    factor_rank=layer.factor_rank or 1,
                )
            )
        else:
            pending_seconds += layer_backward_seconds(layer.flops_backward)
    tail_backward_seconds = pending_seconds
    raw_units.reverse()  # back to forward order

    units_merged = _coarsen(raw_units, coarsen_bytes)
    return IterationWorkload(
        model_name=model.name,
        batch_size=batch,
        forward_seconds=forward_seconds,
        tail_backward_seconds=tail_backward_seconds,
        units=tuple(units_merged),
        single_node_seconds=total_compute,
        total_param_bytes=model.total_param_bytes,
    )


def _coarsen(units_in_forward_order: List[SyncUnit], coarsen_bytes: int) -> List[SyncUnit]:
    """Merge runs of small non-FC units into single units.

    Merging preserves total bytes and total backward time; the merged unit's
    gradient becomes available when the *lowest* merged layer's backward pass
    finishes, which is what folding their backward times into one unit models.
    """
    if coarsen_bytes <= 0:
        return list(units_in_forward_order)
    merged: List[SyncUnit] = []
    accumulator: Optional[SyncUnit] = None
    for unit in units_in_forward_order:
        mergeable = not unit.sf_eligible and unit.param_bytes < coarsen_bytes
        if not mergeable:
            if accumulator is not None:
                merged.append(accumulator)
                accumulator = None
            merged.append(unit)
            continue
        if accumulator is None:
            accumulator = unit
            continue
        combined_bytes = accumulator.param_bytes + unit.param_bytes
        accumulator = SyncUnit(
            name=accumulator.name,
            param_bytes=combined_bytes,
            sf_eligible=False,
            fc_dims=None,
            backward_seconds=accumulator.backward_seconds + unit.backward_seconds,
            layer_names=accumulator.layer_names + unit.layer_names,
        )
        if combined_bytes >= coarsen_bytes:
            merged.append(accumulator)
            accumulator = None
    if accumulator is not None:
        merged.append(accumulator)
    return merged
