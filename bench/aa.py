"""A/A check: does the benchmark agree with itself on one checkout?

Runs the committed command ``--runs`` times per workload, each time with
another seed, and does that ``--batches`` times -- the procedure the driver
uses to accept a benchmark.  Per (workload, end-to-end metric) it prints
min / median / max and the run-to-run spread (distance between the first
and third quartile over the median).  It exits non-zero if a spread exceeds
the metric's bound in ``BENCHMARK.json`` (``setup_s`` excepted, as in the
driver) or if a later batch's median is worse than the first's by more than
the bound.

    python3 -m bench.aa --runs 10 --batches 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """One run of the committed command; returns its result object."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and batch (at least 3)")
    parser.add_argument("--batches", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    medians: Dict[tuple, List[float]] = {}
    problems: List[str] = []
    failed_ops = 0
    print("| batch | workload | metric | min | median | max | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    seed = args.seed
    for batch in range(args.batches):
        for workload in workloads:
            results, wall_s = [], []
            for _ in range(args.runs):
                start = time.perf_counter()
                results.append(run_once(spec, workload, seed))
                wall_s.append(time.perf_counter() - start)
                seed += 1
            failed_ops += sum(r["failed"] for r in results)
            print(f"| {batch} | {workload} | (wall s per run) | {min(wall_s):.1f} | "
                  f"{statistics.median(wall_s):.1f} | {max(wall_s):.1f} | | |")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                share = spread(values)
                medians.setdefault((workload, name), []).append(median)
                print(f"| {batch} | {workload} | {name} | {min(values):.5g} | "
                      f"{median:.5g} | {max(values):.5g} | {share:.4f} | {bound} |",
                      flush=True)
                if name != "setup_s" and share > bound:
                    problems.append(f"batch {batch} {workload}/{name}: spread "
                                    f"{share:.4f} > bound {bound}")
    for metric in spec["end_to_end"]:
        for workload in workloads:
            first, *later = medians[(workload, metric["name"])]
            for batch, value in enumerate(later, start=1):
                shift = worse_by(metric, first, value)
                print(f"median shift batch 0 -> {batch} {workload}/"
                      f"{metric['name']}: {shift:+.4f} (bound {metric['bound']})")
                if shift > metric["bound"]:
                    problems.append(f"{workload}/{metric['name']}: batch {batch} "
                                    f"median worse by {shift:.4f}")
    print(f"ops failed: {failed_ops}")
    if failed_ops:
        problems.append(f"{failed_ops} ops failed")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
