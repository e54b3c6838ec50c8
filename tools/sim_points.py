#!/usr/bin/env python
"""Wall time of each planner call one ``sim_plan_mix`` pass composes.

The repo benchmark times a whole what-if pass; this names the point inside
it that costs the most, without a profiler.  The 30 calls are the pass's own
(``bench/README.md``), made through the same public entry points:

* 14 DES points -- vgg19, every registered backend, 8 and 32 nodes, 10 GbE;
* 2 DES points -- nanogpt-12l under PS and HybComm at 16 nodes;
* 7 cold sweeps -- ``fluid.sweep_axis`` over eight bandwidths on a 10k-node,
  250-rack, 4:1 cluster, one per backend; every repeat nudges the
  oversubscription so the sweep resolves its plans cold, as a new what-if
  query would;
* 7 detail points -- vgg19, every backend, 64 nodes on the fluid engine.

Each is reported as the best of ``--repeats`` wall times (planning memos
warm, as they are from the benchmark's second pass on) and the KB one more
call leaves held (``tracemalloc`` after ``gc.collect()``; for a sweep, what a
new what-if query keeps, which must not grow with the cluster); a DES point
also gives its ``events_processed``, how many workers the run stepped
(one for a symmetric plan, else all of them) and its scheme mix (units per
scheme, e.g. ``sfb 49 · ps 26``): where the last two did not move, the
first must not under a change that only claims speed.  A detail point
gives its scheme mix and, in the same column, how many nodes the detail
tier booked (one for a node-symmetric plan, else all 64).  A DES point
that the pass's ``compare_systems`` call serves from another point's run
(its simulation identity is that point's: ``HybComm 8n = SFB 8n``) is
marked ``= <that point>`` and left out of the total, which so sums what
the pass really runs.  Usage::

    PYTHONPATH=src python tools/sim_points.py [--repeats N] [--ref REV|DIR]

With ``--ref`` the same points are measured on that tree too (a revision is
unpacked with ``git archive``), the two sides taking turns in fresh
interpreters, and printed beside this tree's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from collections import Counter
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP_BANDWIDTHS_GBPS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 56.0, 100.0)

#: Alternating rounds of a ``--ref`` comparison, ``--repeats`` calls each.
ROUNDS = 3


def points() -> Iterator[Tuple[str, Callable[[int], object],
                               Optional[Callable[[], tuple]]]]:
    """``(label, call(repeat), (events, stepped or booked, mix)() or None)``
    of the 30."""
    from repro.config import ClusterConfig
    from repro.experiments.fig_backends import backend_systems
    from repro.nn.model_zoo import get_model_spec
    from repro.simulation import fluid
    from repro.simulation.speedup import simulate_point
    from repro.simulation.throughput import IterationSimulator
    from repro.simulation.workload import build_workload

    vgg, gpt = get_model_spec("vgg19"), get_model_spec("nanogpt-12l")
    systems = backend_systems()

    def des(model, system, nodes, gbps):
        def events() -> Tuple[int, int, str]:
            cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=gbps)
            simulator = IterationSimulator(
                build_workload(model, gpu=cluster.gpu), cluster, system)
            simulator.run()
            # A --ref tree from before the attribute stepped every worker.
            return (simulator.env.events_processed,
                    getattr(simulator, "workers_stepped", nodes),
                    scheme_mix(simulator.schemes.values()))
        return (des_label(model, system, nodes),
                lambda _repeat: simulate_point(model, system, nodes,
                                               bandwidth_gbps=gbps,
                                               engine="des"),
                events)

    for system in systems:
        for nodes in (8, 32):
            yield des(vgg, system, nodes, 10.0)
    for system in systems:
        if system.name in ("PS", "HybComm"):
            yield des(gpt, system, 16, 40.0)
    for system in systems:
        yield (f"sweep {vgg.name} {system.name} 10000n/250r x8",
               lambda repeat, system=system: fluid.sweep_axis(
                   vgg, system,
                   ClusterConfig(num_workers=10000, bandwidth_gbps=40.0,
                                 racks=250,
                                 oversubscription=4.0 + 1e-7 * (repeat + 1)),
                   SWEEP_BANDWIDTHS_GBPS),
               None)

    def booked(system, nodes=64) -> Tuple[None, int, str]:
        cluster = ClusterConfig(num_workers=nodes, bandwidth_gbps=40.0)
        simulator = fluid.FluidSimulator(
            build_workload(vgg, gpu=cluster.gpu), cluster, system)
        simulator.iteration_seconds()
        # One clock pair per node the detail tier booked.
        return (None, len(simulator.up),
                scheme_mix(simulator.schemes.values()))

    for system in systems:
        yield (f"detail {vgg.name} {system.name} 64n",
               lambda _repeat, system=system: simulate_point(
                   vgg, system, 64, engine="fluid"),
               partial(booked, system))


def des_label(model, system, nodes: int) -> str:
    return f"des {model.name} {system.name} {nodes}n"


def shared_runs() -> Dict[str, str]:
    """DES label -> label of the point whose run the pass's
    ``compare_systems`` call serves it from (equal simulation identities)."""
    from repro.experiments.fig_backends import backend_systems
    from repro.nn.model_zoo import get_model_spec
    from repro.simulation import speedup

    if not hasattr(speedup, "run_points"):
        return {}  # a --ref tree from before shared runs ran every point
    vgg, nodes = get_model_spec("vgg19"), (8, 32)
    first: Dict[object, str] = {}
    shared = {}
    for system in backend_systems():
        tasks = speedup.curve_tasks(vgg, system, nodes, bandwidth_gbps=10.0,
                                    engine="des")
        for count, task in zip(nodes, tasks):
            label = des_label(vgg, system, count)
            owner = first.setdefault(task.identity, label)
            if owner != label:
                shared[label] = owner
    return shared


def scheme_mix(schemes: Iterable[str]) -> str:
    """Units per scheme, most first: ``"sfb 49 · ps 26"``."""
    counts = Counter(schemes)
    return " · ".join(f"{scheme} {count}" for scheme, count
                      in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def retained_kb(call: Callable[[int], object], repeat: int) -> float:
    """KB a call leaves held: traced bytes still alive, after
    ``gc.collect()``, once it returned (its memo entries, for instance)."""
    gc.collect()
    tracemalloc.start()
    try:
        call(repeat)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 1024
    finally:
        tracemalloc.stop()


def measure(repeats: int) -> Dict[str, dict]:
    """Best-of-``repeats`` milliseconds (and DES event / worker counts and
    scheme mix) per point, and the KB one more call retains, outside the timed repeats (a
    fresh repeat index: a cold query for the sweeps)."""
    measured = {}
    shared = shared_runs()
    for label, call, events in points():
        best = float("inf")
        for repeat in range(repeats):
            start = time.perf_counter()
            call(repeat)
            best = min(best, time.perf_counter() - start)
        counted, stepped, mix = events() if events else (None, None, None)
        measured[label] = {"ms": best * 1e3, "events": counted,
                           "stepped": stepped, "schemes": mix,
                           "kb": retained_kb(call, repeats),
                           "shares": shared.get(label)}
    return measured


def measure_tree(tree: Path, repeats: int) -> Dict[str, dict]:
    """:func:`measure` in a fresh interpreter on ``tree``'s sources."""
    out = subprocess.run(
        [sys.executable, __file__, "--repeats", str(repeats), "--json"],
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
        stdout=subprocess.PIPE).stdout
    return json.loads(out)


def compare(ref: str, repeats: int) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """``(ref's, this tree's)`` best over :data:`ROUNDS` alternating rounds.

    The box drifts between speed regimes within seconds, so the two sides
    take turns (and swap who goes first) rather than run one after the other.
    """
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(ref)
        if not tree.is_dir():
            tree = Path(scratch)
            archive = subprocess.run(
                ["git", "archive", ref, "src"], cwd=REPO_ROOT, check=True,
                stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", scratch], input=archive,
                           check=True)
        sides = (tree, REPO_ROOT)
        best: Tuple[Dict[str, dict], Dict[str, dict]] = ({}, {})
        for round_ in range(ROUNDS):
            for side in ((0, 1), (1, 0))[round_ % 2]:
                for label, now in measure_tree(sides[side], repeats).items():
                    seen = best[side].get(label, now)
                    now["ms"] = min(now["ms"], seen["ms"])
                    best[side][label] = now
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--ref", help="revision or directory to compare with")
    parser.add_argument("--json", action="store_true",
                        help="print the measurements as one JSON object")
    args = parser.parse_args()
    if args.ref:
        reference, measured = compare(args.ref, args.repeats)
    else:
        reference, measured = None, measure(args.repeats)
    if args.json:
        json.dump(measured, sys.stdout)
        return 0
    for side in filter(None, (measured, reference)):
        runs = [m for m in side.values() if not m["shares"]]
        side["total"] = {"ms": sum(m["ms"] for m in runs),
                         "events": sum(m["events"] or 0 for m in runs),
                         "stepped": None, "schemes": None,
                         "kb": sum(m["kb"] for m in runs), "shares": None}
    print(f"{'point':44}" + (f"{'ref ms':>9}" if reference else "")
          + f"{'ms':>9}" + (f"{'change':>8}" if reference else "")
          + (f"{'ref KB':>9}" if reference else "") + f"{'retained KB':>12}"
          + f"{'events':>8}{'stepped/booked':>17}  schemes")
    for label, now in measured.items():
        line = f"{label:44}"
        if reference:
            was = reference[label]
            line += f"{was['ms']:9.2f}{now['ms']:9.2f}"
            line += f"{(now['ms'] / was['ms'] - 1) * 100:+7.0f}%"
            line += f"{was['kb']:9.0f}"
        else:
            line += f"{now['ms']:9.2f}"
        line += f"{now['kb']:12.0f}"
        if reference and was["events"] != now["events"]:
            line += f"{was['events']:>8} ->"
        stepped = now["stepped"] or ""
        if reference and was["stepped"] not in (None, now["stepped"]):
            stepped = f"{was['stepped']} -> {stepped}"
        line += f"{now['events'] or '':>8}{stepped:>17}"
        if now["schemes"]:
            line += "  "
            if reference and was.get("schemes") not in (None, now["schemes"]):
                line += f"{was['schemes']} -> "
            line += now["schemes"]
        if now["shares"]:
            line += f"  = {now['shares'].removeprefix('des ')}"
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
