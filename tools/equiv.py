#!/usr/bin/env python
"""One digest per DES point, compared between two trees.

The points are ``tests/equiv_points.py``'s walk of the axes.  A point's
digest is every :class:`~repro.simulation.throughput.SimulationResult`
field, each node's NIC account (totals and per tag, sent and received) and
each rack switch's, every GPU's busy time, and the run's
``events_processed``; floats are ``repr``-exact.  A point the code refuses
digests as the error type and the module that raised it.  Usage::

    PYTHONPATH=src python tools/equiv.py --ref REV|DIR   # k of n moved
    PYTHONPATH=src python tools/equiv.py --json          # this tree's digests

With ``--ref`` the reference's sources (a revision is unpacked with ``git
archive``) and this tree's run side by side, each in its own interpreter,
over the same enumeration; the tool prints how many points moved, which
digest fields moved how often, and the first moved points field by field.
It exits 1 when anything moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Moved points printed field by field.
SHOWN = 10


def _hash(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _account(account) -> list:
    return [repr(account.bytes_sent), repr(account.bytes_received),
            {tag: repr(v) for tag, v in account.by_tag_sent.items()},
            {tag: repr(v) for tag, v in account.by_tag_received.items()}]


def digest(make) -> Dict[str, str]:
    """The digest of one point (see the module docstring)."""
    from repro.simulation.throughput import IterationSimulator
    from repro.simulation.workload import build_workload

    try:
        spec, system, cluster = make()
        simulator = IterationSimulator(
            build_workload(spec, gpu=cluster.gpu), cluster, system)
        result = simulator.run()
    except Exception as exc:  # a refusal is a digest too
        frames = [frame for frame in traceback.extract_tb(exc.__traceback__)
                  if f"{os.sep}repro{os.sep}" in frame.filename]
        layer = (Path(frames[-1].filename).with_suffix("").parts
                 if frames else ("?",))
        module = ".".join(layer[layer.index("repro"):]) if frames else "?"
        return {"refused": f"{type(exc).__name__} in {module}"}
    fields = {name: (repr(value) if isinstance(value, (int, float, str))
                     else _hash(value))
              for name, value in asdict(result).items()}
    machines = [simulator.cluster.machine(node)
                for node in sorted(simulator.cluster.machines)]
    fields["accounts"] = _hash([_account(m.nic.traffic) for m in machines])
    fields["rack_accounts"] = _hash(
        [_account(switch.traffic) for switch in simulator.cluster.rack_switches])
    fields["gpu_busy"] = _hash([[repr(gpu.busy_seconds) for gpu in m.gpus]
                                for m in machines])
    fields["events"] = repr(simulator.env.events_processed)
    return fields


def digests() -> Dict[str, Dict[str, str]]:
    """Every point's digest on the sources this interpreter imports."""
    sys.path.insert(0, str(REPO_ROOT / "tests"))
    from equiv_points import points

    return {key: digest(make) for key, make in points()}


def run_tree(tree: Path, out: Path) -> subprocess.Popen:
    """Digest ``tree``'s sources in a fresh interpreter, into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, __file__, "--json"], env=env,
                            stdout=out.open("w"))


def compare(was: Dict[str, dict], now: Dict[str, dict]) -> int:
    """Print what moved between two digest tables; the count moved."""
    moved = [key for key in now if key in was and was[key] != now[key]]
    fields: Counter = Counter()
    for key in moved:
        fields.update(name for name in set(was[key]) | set(now[key])
                      if was[key].get(name) != now[key].get(name))
    refused = sum("refused" in digest for digest in now.values())
    print(f"{len(moved)} of {len(now)} moved ({refused} refused on this tree)")
    for name, count in fields.most_common():
        print(f"  {name}: {count}")
    for side, keys in (("only on the reference", set(was) - set(now)),
                       ("new on this tree", set(now) - set(was))):
        if keys:
            print(f"{len(keys)} {side}, e.g. {sorted(keys)[0]}")
    for key in moved[:SHOWN]:
        print(key)
        for name in sorted(set(was[key]) | set(now[key])):
            if was[key].get(name) != now[key].get(name):
                print(f"    {name}: {was[key].get(name)} -> "
                      f"{now[key].get(name)}")
    return len(moved) + len(set(was) ^ set(now))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", help="revision or directory to compare with")
    parser.add_argument("--json", action="store_true",
                        help="print this tree's digests as one JSON object")
    args = parser.parse_args()
    if args.json or not args.ref:
        json.dump(digests(), sys.stdout, indent=None if args.json else 1)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(args.ref)
        if not tree.is_dir():
            tree = Path(scratch) / "ref"
            tree.mkdir()
            archive = subprocess.run(
                ["git", "archive", args.ref, "src"], cwd=REPO_ROOT,
                check=True, stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                           check=True)
        outs = [Path(scratch) / "ref.json", Path(scratch) / "head.json"]
        runs = [run_tree(tree, outs[0]), run_tree(REPO_ROOT, outs[1])]
        if any(run.wait() for run in runs):
            print("equiv: a digest run failed", file=sys.stderr)
            return 2
        was, now = (json.loads(out.read_text()) for out in outs)
    return 1 if compare(was, now) else 0


if __name__ == "__main__":
    sys.exit(main())
