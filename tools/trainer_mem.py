#!/usr/bin/env python
"""Peak RSS of each phase of a trainer benchmark op, and what construction holds.

``bench/run.py`` reports ``peak_rss_mb``: one high-water mark over the whole
process.  This splits it by phase.  Each trainer workload of
``bench/workloads.py`` runs one op in a fresh interpreter (BLAS pinned to
one thread, as the benchmark pins it), phase by phase, as the benchmark's
first op runs:

* prepare -- ``workload.prepare``: build the two-worker trainer;
* train -- ``workload.run``: ``trainer.train(iterations)``;
* serial check -- ``workload.serial_losses``, the trainer released: the
  single-worker emulation the first op's losses are checked against.

For each phase it prints the peak RSS reached inside the phase and the RSS
the phase ends at.  The peak is Linux's ``VmHWM``, reset before each phase
by writing ``5`` to ``/proc/self/clear_refs``.  The ``start`` row is the
process once imports and the workload's batches are in place.  Then the
trainer is built once more under ``tracemalloc``.  That line gives the bytes
construction retains and its peak, also as multiples of the model's
parameter bytes: ``P`` replicas plus, under a parameter server, one server
copy.  Usage::

    PYTHONPATH=src python tools/trainer_mem.py [--workload W ...] [--seed S]
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

TRAINER_WORKLOADS = ("train_mlp_ps", "train_mlp_hybrid", "train_gpt_ring_topk")

MIB = 1024.0 * 1024.0


def _status_mb(field: str) -> float:
    status = Path("/proc/self/status").read_text()
    # kB / 1024, the unit of the benchmark's peak_rss_mb.
    return int(re.search(rf"^{field}:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def _reset_peak() -> None:
    Path("/proc/self/clear_refs").write_text("5")


def measure(name: str, seed: int) -> Dict[str, object]:
    """One op of workload ``name``, phase by phase (run in a fresh interpreter)."""
    sys.path.insert(0, str(REPO_ROOT))
    from bench.run import bootstrap
    bootstrap()
    from bench import workloads

    workload = workloads.build(name, seed)
    gc.collect()
    phases: List[List[object]] = [["start", _status_mb("VmRSS"), _status_mb("VmRSS")]]

    def phase(label: str, fn):
        _reset_peak()
        result = fn()
        phases.append([label, _status_mb("VmHWM"), _status_mb("VmRSS")])
        return result

    trainer = phase("prepare", lambda: workload.prepare(0))
    phase("train", lambda: workload.run(trainer))
    del trainer               # the benchmark checks an op once it returned
    phase("serial check", workload.serial_losses)
    gc.collect()

    replica = workload.network_factory()
    param_bytes = sum(value.nbytes for _, layer in replica.parameter_layers()
                      for value in layer.params.values())
    del replica
    tracemalloc.start()
    trainer = workload.prepare(1)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"phases": phases, "param_bytes": param_bytes,
            "retained": retained, "peak": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=TRAINER_WORKLOADS,
                        help="workload to measure (repeatable; default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.seed)))
        return 0

    for name in args.workload or TRAINER_WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--child", name, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name} (seed {args.seed})")
        print(f"  {'phase':14s} {'peak RSS MB':>12s} {'end RSS MB':>11s}")
        for label, peak_mb, end_mb in result["phases"]:
            print(f"  {label:14s} {peak_mb:12.1f} {end_mb:11.1f}")
        params = result["param_bytes"]
        print(f"  construction (tracemalloc): retained "
              f"{result['retained'] / MIB:.1f} MiB = {result['retained'] / params:.2f}x, "
              f"peak {result['peak'] / MIB:.1f} MiB = {result['peak'] / params:.2f}x "
              f"the {params / MIB:.2f} MiB of parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
