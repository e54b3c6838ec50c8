"""Bucketed wire granularity: fewer, larger gradient messages.

Production data-parallel stacks fuse per-layer gradients into fixed-size
buckets flushed the moment they fill during the backward pass (the DDP
communication-hook pattern).  Two mirrored pieces implement that axis
here, both driven by the same greedy partition rule
(:func:`repro.comm.wire.bucket_partition`) so the trainer's real message
counts and the simulators' modelled ones agree by construction:

* :class:`GradientBucketer` -- trainer side.  Per-layer sync closures are
  added in reverse layer order as backprop produces them; the bucketer
  flushes a combined WFBP scheduler job the moment the accumulated dense
  bytes reach the bucket size, so bucket flushes overlap with the
  remaining backward pass exactly like per-layer sends do.
* :func:`bucket_workload` -- simulator side.  Consecutive same-scheme
  units of a bucketable (dense-gradient) backend are merged into one
  :class:`~repro.simulation.workload.SyncUnit` whose backward time is the
  members' sum -- the merged unit's sync starts when the bucket would
  flush -- and whose ``payload_parts`` carry the members' shapes so
  compressed wire bytes stay exact.

Bucketing never changes byte totals, only message counts: each merged
flow pays the per-message latency once instead of once per layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.backend import get_backend
from repro.comm.wire import bucket_partition
from repro.domains import WHOLE, require
from repro.simulation.workload import IterationWorkload, SyncUnit


class GradientBucketer:
    """Groups per-layer sync jobs into fixed-byte-size scheduler jobs.

    ``add`` is called once per layer, in the order backprop produces
    gradients (reverse layer order).  Jobs of bucketable schemes
    accumulate until the bucket fills (``>= bucket_bytes`` of dense
    gradient), then one combined job is scheduled; it runs the member
    syncs sequentially in submission order, which is the same order on
    every worker -- no cross-worker deadlock, and under the deterministic
    scheduler bit-identical parameters for every bucket size.  Jobs of
    non-bucketable schemes (factor/quantized payloads) flush the pending
    bucket and are scheduled directly, mirroring
    :func:`bucket_workload`'s pass-through rule.
    """

    def __init__(self, bucket_bytes: int, scheduler: Any):
        require("bucket_bytes", bucket_bytes, WHOLE)
        self.bucket_bytes = int(bucket_bytes)
        self.scheduler = scheduler
        self._pending: List[Callable[[], Any]] = []
        self._pending_bytes = 0.0
        #: Messages actually flushed (bucketed and pass-through alike).
        self.messages_flushed = 0
        #: Per-layer jobs routed through the bucketer.
        self.jobs_added = 0

    def add(self, nbytes: float, job: Callable[[], Any],
            bucketable: bool = True) -> None:
        """Queue one layer's sync job carrying ``nbytes`` of dense gradient."""
        self.jobs_added += 1
        if not bucketable:
            self.flush()
            self.messages_flushed += 1
            self.scheduler.schedule(job)
            return
        self._pending.append(job)
        self._pending_bytes += nbytes
        if self._pending_bytes >= self.bucket_bytes:
            self.flush()

    def flush(self) -> None:
        """Schedule the pending bucket as one combined job (no-op if empty)."""
        if not self._pending:
            return
        jobs, self._pending = self._pending, []
        self._pending_bytes = 0.0
        self.messages_flushed += 1

        def bucket_job(jobs: List[Callable[[], Any]] = jobs) -> None:
            for job in jobs:
                job()

        self.scheduler.schedule(bucket_job)

    def finish(self) -> None:
        """Flush the final partial bucket (call after the backward pass)."""
        self.flush()


def _bucketable(scheme: str) -> bool:
    """Whether a scheme's payload is a dense gradient that can be fused."""
    return get_backend(scheme).compressible


def _merge_units(members: List[SyncUnit]) -> SyncUnit:
    """Fuse a backward-order run of units into one bucket unit."""
    if len(members) == 1:
        return members[0]
    forward = list(reversed(members))  # members arrive in backward order
    layer_names: Tuple[str, ...] = ()
    parts = []
    for unit in forward:
        layer_names += unit.layer_names
        if unit.payload_parts is not None:
            parts.extend(unit.payload_parts)
        else:
            parts.append((unit.param_bytes, unit.fc_dims))
    return SyncUnit(
        name=f"bucket({forward[0].name}..{forward[-1].name})",
        param_bytes=sum(unit.param_bytes for unit in forward),
        sf_eligible=False,
        fc_dims=None,
        backward_seconds=sum(unit.backward_seconds for unit in forward),
        layer_names=layer_names,
        payload_parts=tuple(parts),
    )


def bucket_workload(workload: IterationWorkload,
                    schemes: Dict[str, str],
                    bucket_bytes: Optional[int]
                    ) -> Tuple[IterationWorkload, Dict[str, str]]:
    """Transform a workload to bucketed wire granularity.

    Walks the units in backward (reverse) order -- the order gradients
    appear -- and fuses consecutive same-scheme runs of bucketable units
    with the greedy :func:`~repro.comm.wire.bucket_partition` rule; a
    non-bucketable unit flushes the partial bucket and passes through
    unchanged.  Returns the transformed workload plus its scheme
    assignment; ``bucket_bytes=None`` returns the inputs untouched.
    """
    if bucket_bytes is None:
        return workload, schemes
    bucket_bytes = int(bucket_bytes)
    new_units_backward: List[SyncUnit] = []
    new_schemes: Dict[str, str] = {}

    def emit(members: List[SyncUnit], scheme: str) -> None:
        merged = _merge_units(members)
        new_units_backward.append(merged)
        new_schemes[merged.name] = scheme

    run: List[SyncUnit] = []
    run_scheme: Optional[str] = None

    def flush_run() -> None:
        nonlocal run, run_scheme
        if not run:
            return
        partition = bucket_partition([unit.param_bytes for unit in run],
                                     bucket_bytes)
        for indices in partition:
            emit([run[i] for i in indices], run_scheme)
        run = []
        run_scheme = None

    for unit in reversed(workload.units):
        scheme = schemes[unit.name]
        if not _bucketable(scheme):
            flush_run()
            new_units_backward.append(unit)
            new_schemes[unit.name] = scheme
            continue
        if run_scheme is not None and scheme != run_scheme:
            flush_run()
        run.append(unit)
        run_scheme = scheme
    flush_run()

    bucketed = IterationWorkload(
        model_name=workload.model_name,
        batch_size=workload.batch_size,
        forward_seconds=workload.forward_seconds,
        tail_backward_seconds=workload.tail_backward_seconds,
        units=tuple(reversed(new_units_backward)),
        single_node_seconds=workload.single_node_seconds,
        total_param_bytes=workload.total_param_bytes,
    )
    return bucketed, new_schemes
