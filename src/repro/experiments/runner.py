"""Command-line runner regenerating every table and figure.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig5 fig8  # a subset
    python -m repro.experiments.runner --quick    # reduced problem sizes
    python -m repro.experiments.runner --jobs 4   # 4 sweep worker processes

The runner prints each artefact's text rendering and, with ``--output``,
also writes the combined report to a file.

``--jobs`` controls how many worker processes the figure sweeps
(:mod:`repro.sweep`) distribute their independent simulation configs over;
the default is one per CPU core and ``--jobs 1`` runs everything
sequentially.  Results are merged by config key, so the report is
byte-identical for every worker count (per-experiment wall-clock goes to
the log, not the report).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import sweep
from repro.experiments import (
    ablation,
    fidelity,
    fig9,
    fig11,
    fig_faults,
    fig_llm,
    fig_scale,
    fig_topology,
    figures,
    table1,
    table3,
)
from repro.logging_util import enable_console_logging, get_logger
from repro.simulation.fluid import ENGINES, use_engine

LOGGER = get_logger(__name__)

#: Every report section in report order: a figure's ``report`` or a custom
#: body's, each taking the ``--quick`` flag.
EXPERIMENTS: Dict[str, Callable[[bool], str]] = {
    "table1": table1.report,
    "table3": table3.report,
    "fig5": figures.FIG5.report,
    "fig6": figures.FIG6.report,
    "fig7": figures.FIG7.report,
    "fig8": figures.FIG8.report,
    "fig9": fig9.report,
    "fig10": figures.FIG10.report,
    "fig11": fig11.report,
    "fig_async": figures.FIG_ASYNC.report,
    "fig_backends": figures.FIG_BACKENDS.report,
    "fig_compression": figures.FIG_COMPRESSION.report,
    "fig_faults": fig_faults.report,
    "fig_llm": fig_llm.report,
    "fig_scale": fig_scale.report,
    "fig_topology": fig_topology.report,
    "multigpu": figures.MULTIGPU.report,
    "ablation": ablation.FIGURE.report,
    "fidelity": fidelity.report,
}


def run_experiments(names: Optional[List[str]] = None, quick: bool = False,
                    jobs: Optional[int] = None,
                    engine: Optional[str] = None) -> str:
    """Run the named experiments (all of them by default); returns the report.

    Args:
        names: subset of :data:`EXPERIMENTS` keys (all when ``None``).
        quick: reduced problem sizes for a fast smoke run.
        jobs: sweep worker processes; ``None`` keeps the library default
            (sequential), ``0`` or negative means one per CPU core.  The
            report text is independent of this value.
        engine: simulation engine for every figure sweep
            (``"des"``/``"fluid"``/``"auto"``); ``None`` keeps the session
            default (the DES), under which reports are byte-identical to
            previous releases.
    """
    selected = names or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; available: {list(EXPERIMENTS)}")
    sections: List[str] = []
    with sweep.use_jobs(jobs if jobs is not None else sweep.default_jobs()):
        with use_engine(engine if engine is not None else "des"):
            for name in selected:
                start = time.time()
                rendering = EXPERIMENTS[name](quick)
                LOGGER.info("%s finished in %.1fs", name, time.time() - start)
                sections.append(f"=== {name} ===\n{rendering}")
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the Poseidon paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help=f"subset to run (default: all of {list(EXPERIMENTS)})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes for a fast smoke run")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="sweep worker processes (default: one per CPU "
                             "core; 1 = sequential)")
    parser.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="simulation engine for the figure sweeps "
                             "(default: des; auto switches to the fluid "
                             "engine on large clusters)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    enable_console_logging()
    # repro.sweep owns the jobs policy: 0 or negative resolves to one
    # worker per CPU core inside use_jobs/resolve_jobs.
    report = run_experiments(args.experiments or None, quick=args.quick,
                             jobs=args.jobs, engine=args.engine)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
