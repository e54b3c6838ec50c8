"""Fault frontier: checkpoint cost vs. MTBF, and straggler masking by policy.

The paper's KV store "will regularly checkpoint current parameter states
for fault tolerance"; this experiment quantifies what that machinery costs
and when relaxed execution semantics pay off under degraded clusters.  Two
views share one sweep:

- **cost-vs-MTBF frontier** (per backend, BSP): the expected iteration-time
  overhead of checkpoint/restart running, at a fixed checkpoint interval
  and at the Young--Daly optimum ``sqrt(2*C*M)``.  Overhead must fall
  monotonically as the cluster gets healthier (MTBF grows), and the
  Young--Daly interval must never lose to a fixed one.
- **straggler masking** (PS backend, policy axis): iteration-time inflation
  when a fraction of workers runs slow.  A BSP barrier pays the slowest
  worker's full excess every iteration; ssp(s) hides stragglers that are
  under ``s`` clocks behind; fully asynchronous execution pays only the
  mean excess.

Both views are one :class:`~repro.experiments.figure.Figure`; the
Young--Daly rows between them keep a custom body, as they are closed forms
of the MTBF axis rather than simulated points.

Engine agreement: the checkpoint/restart axis uses the identical closed
form in both engines (exact agreement by construction); on the straggler
axis the fluid engine's first-order model is an upper bound of the DES --
it ignores the extra communication overlap a slowed worker gains -- and
the two agree within ~30% on <= 32-node configurations (pinned by the
chaos tests).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.config import SystemConfig, poseidon_system
from repro.core.faults import fault_overhead_factor, young_daly_interval
from repro.core.policy import SyncPolicy
from repro.experiments.figure import Figure, Series, Text, render
from repro.experiments.report import format_series

#: Backends on the cost-vs-MTBF frontier (the three substrate families).
SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("ps", "PS"),
    ("onebit", "1-bit PS"),
    ("ring", "Ring-AllReduce"),
)

#: MTBF axis (seconds), flaky to healthy; each overhead is measured against
#: the backend's failure-free system.
MTBFS: Tuple[float, ...] = (900.0, 3_600.0, 21_600.0, 86_400.0)

#: Checkpoint intervals (seconds); ``None`` = the Young--Daly optimum.
INTERVALS: Tuple[Optional[float], ...] = (None, 120.0)

#: Seconds one checkpoint costs (a full parameter snapshot to stable
#: storage; order of a VGG19 parameter set over a 10 GbE store link).
CHECKPOINT_COST: float = 5.0

#: Straggler severities: (fraction of workers slowed, slowdown factor); the
#: first is the healthy baseline every slowdown is measured against.
STRAGGLERS: Tuple[Tuple[float, float], ...] = (
    (0.0, 1.0), (0.125, 2.0), (0.25, 4.0))

#: Policies on the masking view: the consistency gate is what determines
#: how much of a straggler's excess the cluster pays.
POLICIES: Tuple[str, ...] = ("bsp", "ssp-2", "async", "local-4")

QUICK_MTBFS: Tuple[float, ...] = (900.0, 3_600.0)


def _interval(interval: Optional[float]) -> str:
    return "yd" if interval is None else f"{interval:g}s"


def fault_systems(mtbfs: Sequence[float] = MTBFS,
                  stragglers: Sequence[Tuple[float, float]] = STRAGGLERS,
                  policies: Sequence[str] = POLICIES,
                  schemes: Sequence[Tuple[str, str]] = SCHEMES
                  ) -> Dict[str, object]:
    """``systems`` and ``tags`` of both views.

    The frontier has one BSP system per (backend, MTBF, checkpoint
    interval) plus the backend's failure-free one (tagged ``mtbf="inf"``,
    no ``ckpt``); the masking view one PS system per (policy, straggler
    severity).
    """
    systems, tags = [], {}

    def add(system: SystemConfig, **tag: str) -> None:
        systems.append(system)
        tags[system.name] = tag

    for comm, label in schemes:
        add(poseidon_system(f"{label} mtbf=inf ckpt=yd", comm).with_faults(
            checkpoint_cost_seconds=CHECKPOINT_COST), scheme=label, mtbf="inf")
        for mtbf in mtbfs:
            for interval in INTERVALS:
                ckpt = _interval(interval)
                add(poseidon_system(f"{label} mtbf={mtbf:g}s ckpt={ckpt}", comm)
                    .with_faults(mtbf_seconds=mtbf,
                                 checkpoint_interval_seconds=interval,
                                 checkpoint_cost_seconds=CHECKPOINT_COST),
                    scheme=label, mtbf=f"{mtbf:g}s", ckpt=ckpt)
    for spec in policies:
        policy = SyncPolicy.parse(spec)
        for fraction, factor in stragglers:
            severity = f"{fraction:g}x{factor:g}"
            add(poseidon_system(f"PS {policy} slow={severity}", "ps")
                .with_policy(policy)
                .with_faults(straggler_fraction=fraction,
                             straggler_factor=factor),
                policy=spec, severity=severity)
    return {"systems": tuple(systems), "tags": tags}


FRONTIER = (
    Text("Fault frontier: checkpoint cost vs. MTBF, straggler masking by "
         "policy"),
    Text("  iteration-time overhead factor at {cluster.num_workers} nodes "
         f"(checkpoint cost C={CHECKPOINT_COST:g}s):", at={"nodes": max}),
    Series("    {scheme:16s} ckpt={ckpt:5s}", "{mtbf}", "{ratio:.3f}",
           at={"nodes": max}, baseline={"mtbf": "inf"},
           metric="iteration_seconds"),
)
MASKING = (
    Text("  straggler slowdown factor at {cluster.num_workers} nodes (PS, by "
         "policy):", at={"nodes": max}),
    Series("    {policy:16s}", "{severity}", "{ratio:.3f}",
           at={"nodes": max}, baseline={"severity": "0x1"},
           metric="iteration_seconds"),
)

#: Both views at 10 GbE; node counts stay <= 32, the engine-agreement
#: envelope.  VGG19 is FC-heavy, so the backend choice moves bytes too.
FIGURE = Figure(
    models=("vgg19",),
    bandwidths=(10.0,),
    nodes=(8, 16),
    **fault_systems(),
    quick={"nodes": (8,),
           **fault_systems(QUICK_MTBFS, ((0.0, 1.0), (0.25, 4.0)),
                           ("bsp", "ssp-2", "async"))},
    layout=FRONTIER + MASKING,
)


def report(quick: bool = False) -> str:
    """Frontier, Young--Daly rows and masking view as report text."""
    mtbfs = QUICK_MTBFS if quick else MTBFS
    labels = [f"{mtbf:g}s" for mtbf in mtbfs]
    points = FIGURE.reduced(quick).run()
    return "\n".join([
        render(FRONTIER, points),
        "  Young--Daly optimal intervals (sqrt(2*C*M)):",
        "    " + format_series(
            f"{'interval (s)':16s}", labels,
            [young_daly_interval(CHECKPOINT_COST, m) for m in mtbfs],
            y_format="{:.0f}"),
        "    " + format_series(
            f"{'model factor':16s}", labels,
            [fault_overhead_factor(m, None, CHECKPOINT_COST) for m in mtbfs],
            y_format="{:.3f}"),
        render(MASKING, points),
    ])
