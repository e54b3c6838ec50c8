"""Reproduction-fidelity scoring.

Compares measured results against the values reported in the paper
(:mod:`repro.experiments.paper_reference`) and classifies each check as
matching in *shape* (ordering preserved and within a tolerance band) or not.
The runner and the test suite both use this to keep the claim "the shape of
every result holds" honest and machine-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.experiments import paper_reference
from repro.experiments.figures import FIG5, FIG6
from repro.experiments.report import format_table


@dataclass(frozen=True)
class FidelityCheck:
    """One paper-vs-measured comparison.

    Attributes:
        name: what is being compared.
        reported: the paper's value (``None`` when only an ordering is claimed).
        measured: the reproduced value.
        passed: whether the check is within its tolerance band.
        detail: human-readable explanation of the band applied.
    """

    name: str
    reported: Optional[float]
    measured: float
    passed: bool
    detail: str = ""


@dataclass
class FidelityReport:
    """A collection of fidelity checks with aggregate statistics."""

    checks: List[FidelityCheck] = field(default_factory=list)

    def add_ratio_check(self, name: str, reported: Optional[float], measured: float,
                        rel_tolerance: float = 0.5) -> FidelityCheck:
        """Add a check requiring measured/reported within ``1 +- rel_tolerance``."""
        if reported in (None, 0):
            check = FidelityCheck(name=name, reported=reported, measured=measured,
                                  passed=True, detail="no paper value; recorded only")
        else:
            ratio = measured / reported
            passed = (1.0 - rel_tolerance) <= ratio <= (1.0 + rel_tolerance)
            check = FidelityCheck(
                name=name, reported=reported, measured=measured, passed=passed,
                detail=f"ratio {ratio:.2f}, band ±{rel_tolerance:.0%}")
        self.checks.append(check)
        return check

    def add_ordering_check(self, name: str, smaller: float, larger: float
                           ) -> FidelityCheck:
        """Add a check asserting ``smaller <= larger`` (an ordering claim)."""
        check = FidelityCheck(
            name=name, reported=None, measured=larger - smaller,
            passed=smaller <= larger + 1e-9,
            detail=f"requires {smaller:.2f} <= {larger:.2f}")
        self.checks.append(check)
        return check

    @property
    def num_passed(self) -> int:
        """Number of checks within their band."""
        return sum(1 for check in self.checks if check.passed)

    def render(self) -> str:
        """Readable table of all checks."""
        rows = [
            (
                check.name,
                "-" if check.reported is None else f"{check.reported:.2f}",
                f"{check.measured:.2f}",
                "ok" if check.passed else "MISMATCH",
                check.detail,
            )
            for check in self.checks
        ]
        title = (f"Reproduction fidelity: {self.num_passed}/{len(self.checks)} "
                 f"checks within band")
        return format_table(
            headers=["Check", "Paper", "Measured", "Status", "Detail"],
            rows=rows, title=title)


def scaling_fidelity(top: int = 32,
                     jobs: Optional[int] = None) -> FidelityReport:
    """Fidelity checks for the Figure 5 / Figure 6 headline speedups.

    The band is deliberately wide (±50%) -- the brief asks for the *shape*
    (who wins, roughly what factor), not testbed-exact numbers; ordering
    checks capture the who-wins part exactly.  The speedups are the
    :data:`~repro.experiments.figures.FIG5` / ``FIG6`` points on ``top``
    nodes, simulated over ``jobs`` workers.
    """
    scored = FidelityReport()
    fig5 = replace(FIG5, nodes=(top,)).run(jobs)
    fig6 = replace(FIG6, nodes=(top,)).run(jobs)

    def fig5_speedup(model: str, system: str) -> float:
        return fig5.at(model=model, system=system, nodes=top).result.speedup

    def fig6_speedup(model: str, system: str) -> float:
        return fig6.at(model=model, system=system, nodes=top).result.speedup

    for model, per_system in paper_reference.FIG5_SPEEDUPS_32_NODES.items():
        for system, reported in per_system.items():
            scored.add_ratio_check(f"fig5 {model} {system} @{top} nodes",
                                   reported, fig5_speedup(model, system))
    for model, per_system in paper_reference.FIG6_SPEEDUPS_32_NODES.items():
        for system, reported in per_system.items():
            measured = fig6_speedup(model, system)
            if reported <= 4.0:
                # "Fails to scale" claims are ordering checks, not ratios.
                scored.add_ordering_check(
                    f"fig6 {model} {system} stays far below Poseidon",
                    measured, 0.35 * fig6_speedup(model, "Poseidon (TF)"))
                continue
            scored.add_ratio_check(
                f"fig6 {model} {system} @{top} nodes", reported, measured)

    # Ordering claims of Section 5.1: Poseidon >= WFBP >= vanilla PS / TF.
    for model in ("GoogLeNet", "VGG19", "VGG19-22K"):
        scored.add_ordering_check(
            f"fig5 {model}: WFBP <= Poseidon",
            fig5_speedup(model, "Caffe+WFBP"),
            fig5_speedup(model, "Poseidon (Caffe)"))
        scored.add_ordering_check(
            f"fig5 {model}: vanilla PS <= WFBP",
            fig5_speedup(model, "Caffe+PS"),
            fig5_speedup(model, "Caffe+WFBP"))
    for model in ("Inception-V3", "VGG19", "VGG19-22K"):
        scored.add_ordering_check(
            f"fig6 {model}: TF <= Poseidon",
            fig6_speedup(model, "TF"),
            fig6_speedup(model, "Poseidon (TF)"))
    return scored


def report(quick: bool = False) -> str:
    """The runner's fidelity section (up to 16 nodes when ``quick``)."""
    return scaling_fidelity(16 if quick else 32).render()
