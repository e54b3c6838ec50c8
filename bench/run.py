"""The repo benchmark: ``python3 bench/run.py --workload W --seed S --seconds N --trace 0|1``.

``--trace 0`` measures the end-to-end metrics (``op_ms``, ``work_per_s``,
``setup_s``, ``peak_rss_mb``) with no instrumentation installed.
``--trace 1`` installs the span wrappers of :mod:`bench.trace`, measures the
per-layer metrics, then takes them off again and times untraced ops so the
tracing overhead is a measured number.  Every metric is printed by name with
its unit; the last line of standard output is the machine-readable result.

Run from the root of a checkout.  ``bench/README.md`` explains the design.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    # Run as `python3 bench/run.py`: sys.path[0] is bench/ itself, where
    # trace.py would shadow the standard library's; make it the root instead.
    sys.path[0] = ROOT

WORKLOADS = ("train_mlp_ps", "train_mlp_hybrid", "train_gpt_ring_topk",
             "sim_plan_mix")

#: Set-up probes per untraced run (fresh subprocesses, spread through it).
SETUP_PROBES = 5
WARMUP_OPS = 2
#: ``peak_rss_mb`` is read once this many timed ops are done, and a run
#: never does fewer: memory that grows with the op count (the fluid axis
#: cache keeps every queried simulator) must not depend on machine speed.
RSS_AFTER_OPS = 8

Metrics = Dict[str, Dict[str, Any]]

_NO_SPAN = contextlib.nullcontext()


def bootstrap() -> None:
    """Pin BLAS to one thread and make ``repro`` importable.

    Must run before numpy is first imported: two trainer workers on two
    vCPUs with an unpinned BLAS pool oversubscribe the box (median 25.5 ms
    vs 17.5 ms per MLP iteration, p90/median 1.7 vs 1.3).
    """
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)


class _Measurement:
    """The op loop shared by the traced and the untraced run."""

    def __init__(self, workload: Any, tracer: Any = None, patches: Any = None,
                 smoke: bool = False):
        from bench import refkernel

        self.workload = workload
        self.tracer = tracer
        self.patches = patches
        # The reference kernel bound by what the workload is bound by (a
        # token-sized one under the smoke test, which only checks plumbing).
        if workload.reference == "py":
            self.time_ref = (functools.partial(refkernel.time_ref_py, 1000)
                             if smoke else refkernel.time_ref_py)
            self.nominal_ms = refkernel.REF_PY_NOMINAL_MS
        else:
            kernel_class, self.nominal_ms = {
                "np2": (refkernel.RefNp2, refkernel.REF_NP2_NOMINAL_MS),
                "el2": (refkernel.RefEl2, refkernel.REF_EL2_NOMINAL_MS),
            }[workload.reference]
            self.time_ref = (kernel_class(1) if smoke else kernel_class()).time_ms
        self.first: Any = None
        self.attempted = 0
        self.failed = 0
        self.next_index = 0
        self.ref_ms: List[float] = []
        self._last_ref: Optional[float] = None

    def reference(self) -> float:
        """Time the reference kernel now (adjacent ops share one reading)."""
        self._last_ref = self.time_ref()
        self.ref_ms.append(self._last_ref)
        return self._last_ref

    def stale_reference(self) -> None:
        """Something long ran since the last reading: take a fresh one next."""
        self._last_ref = None

    def timed(self, fn: Callable[[], Any]) -> Tuple[float, float]:
        """``(raw_ms, reference-speed factor)`` of one call of ``fn``."""
        before = self._last_ref or self.reference()
        start = time.perf_counter()
        fn()
        raw_ms = (time.perf_counter() - start) * 1e3
        return raw_ms, self.nominal_ms / (0.5 * (before + self.reference()))

    def _run_op(self, index: int, span_op: Optional[int],
                refs: List[float]) -> Tuple[float, Any]:
        """Prepare (untimed) and run (timed) one op, traced iff ``span_op`` is set.

        An op that runs in phases (``sim_plan_mix``) is timed phase by phase
        with a reference reading appended to ``refs`` after each: the
        machine's speed changes within a one-second op, and readings
        between the phases follow it where one on either side does not
        (spread 2.6 % against 5.9 %).  The readings are not part of the op.
        """
        workload, tracer = self.workload, self.tracer
        traced = span_op is not None
        phase_ms: List[float] = []

        @contextlib.contextmanager
        def phase(name: str) -> Iterator[None]:
            start = time.perf_counter()
            with tracer.span("bench.phase." + name) if traced else _NO_SPAN:
                yield
            phase_ms.append((time.perf_counter() - start) * 1e3)
            with tracer.span("bench.ref") if traced else _NO_SPAN:
                refs.append(self.reference())

        def run() -> Tuple[float, Any]:
            state = workload.prepare(index)
            start = time.perf_counter()
            output = workload.run(state, phase)
            wall_ms = (time.perf_counter() - start) * 1e3
            return (sum(phase_ms) if phase_ms else wall_ms), output

        if not traced:
            return run()
        tracer.op = span_op
        with self.patches, tracer.span("bench.op"):
            return run()

    def op(self, span_op: Optional[int] = None) -> Optional[Tuple[float, float]]:
        """Run and check one op; ``(raw_ms, reference-speed factor)`` or None.

        ``span_op`` switches the span wrappers on for this op and labels its
        spans; ``None`` runs it with nothing installed.
        """
        workload = self.workload
        index, self.next_index = self.next_index, self.next_index + 1
        self.attempted += 1
        gc.collect()  # a retired trainer is cyclic garbage; free it untimed
        refs = [self._last_ref or self.reference()]
        try:
            raw_ms, output = self._run_op(index, span_op, refs)
            signature = workload.signature(output)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            traceback.print_exc()
            self.failed += 1
            self.stale_reference()
            return None
        if len(refs) == 1:  # no phases: one reading on either side of the op
            refs.append(self.reference())
        factor = self.nominal_ms / statistics.fmean(refs)
        if self.first is None:
            self.first = signature
            if not workload.check_against_serial(signature):
                print("check failed: losses differ from simulate_synchronous_sgd",
                      file=sys.stderr)
                self.failed += 1
        elif not workload.same(self.first, signature):
            print(f"check failed: op {index} output differs from the first op's",
                  file=sys.stderr)
            self.failed += 1
        return raw_ms, factor

    def closed_loop(self, seconds: float, rounds: Tuple[int, Optional[int]],
                    round_fn: Callable[[], bool],
                    between: Optional[Callable[[float], None]] = None) -> None:
        """``round_fn()`` back to back until ``seconds`` were spent inside it.

        ``rounds`` is ``(at least, at most)``.  A round that returns False
        is not counted.  ``between(fraction)`` runs after each round with
        the share of the budget used; its time is not charged to the budget.
        """
        spent, done = 0.0, 0
        at_least, at_most = rounds
        while ((spent < seconds or done < at_least)
               and (at_most is None or done < at_most)):
            start = time.perf_counter()
            done += bool(round_fn())
            spent += time.perf_counter() - start
            if self.failed > 3:
                break  # a broken build fails every op: stop, report, exit non-zero
            if between is not None:
                between(min(1.0, spent / seconds))


def _op_ms(workload: Any, samples: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """``(op_ms, raw_op_ms)``: medians over the ops, per iteration on trainers.

    ``op_ms`` is at reference speed: every sample is scaled by its own
    reference-kernel factor before the median is taken.
    """
    scaled = statistics.median(raw * factor for raw, factor in samples)
    raw = statistics.median(raw for raw, _factor in samples)
    return scaled / workload.op_divisor, raw / workload.op_divisor


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning a fresh interpreter to its first completed op."""
    command = [sys.executable, "-m", "bench.run", "--setup-probe", name,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    spawned = time.time()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          text=True)
    return float(done.stdout.strip().splitlines()[-1]) - spawned


def _probe_main(name: str, seed: int, smoke: bool) -> int:
    """Body of the probe subprocess: import, construct, run one op, report."""
    bootstrap()
    from bench import workloads

    workload = workloads.build(name, seed, smoke=smoke)
    workload.signature(workload.run(workload.prepare(0)))
    print(repr(time.time()))
    return 0


def run_untraced(name: str, seed: int, seconds: float, probes: int = SETUP_PROBES,
                 max_ops: Optional[int] = None, smoke: bool = False
                 ) -> Tuple[Metrics, _Measurement, Dict[str, float]]:
    """The end-to-end run: no instrumentation anywhere."""
    from bench import workloads
    from bench.refkernel import REF_PY_NOMINAL_MS, time_ref_py

    workload = workloads.build(name, seed, smoke=smoke)
    run = _Measurement(workload, smoke=smoke)
    for _ in range(0 if smoke else WARMUP_OPS):
        run.op()

    probe_s: List[float] = []
    raw_probe_s: List[float] = []
    ref_py_ms: List[float] = []

    def maybe_probe(fraction: float) -> None:
        # Probe k is due once k/probes of the op budget is used, so the
        # probes sample the same stretch of machine time as the ops.
        while len(probe_s) < probes and fraction >= (len(probe_s) + 1) / probes:
            # A probe is imports and construction: interpreter-bound, so
            # it is scaled by ref_py whatever the ops are scaled by.
            before = time_ref_py()
            raw = setup_probe(name, seed, smoke)
            after = time_ref_py()
            ref_py_ms.extend((before, after))
            raw_probe_s.append(raw)
            probe_s.append(raw / (0.5 * (before + after)) * REF_PY_NOMINAL_MS)
            run.stale_reference()

    samples: List[Tuple[float, float]] = []
    rss_after = min(RSS_AFTER_OPS, max_ops or RSS_AFTER_OPS)
    peak_rss_mb = float("nan")

    def one_op() -> bool:
        nonlocal peak_rss_mb
        sample = run.op()
        if sample is not None:
            samples.append(sample)
            if len(samples) == rss_after:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return sample is not None

    run.closed_loop(seconds, (rss_after, max_ops), one_op, maybe_probe)
    maybe_probe(1.0)  # whatever the op cap left undone
    if len(samples) < rss_after:
        raise RuntimeError(f"{name}: only {len(samples)} ops completed")
    op_ms, raw_op_ms = _op_ms(workload, samples)
    metrics: Metrics = {
        "op_ms": {"value": op_ms, "unit": "ms"},
        "work_per_s": {"value": workload.work_per_op / workload.op_divisor
                       / op_ms * 1e3, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if probe_s:
        metrics["setup_s"] = {"value": statistics.median(probe_s), "unit": "s"}
    diagnostics = {"raw_op_ms": raw_op_ms, "ops": float(len(samples)),
                   "raw_setup_s": statistics.median(raw_probe_s) if raw_probe_s
                   else float("nan"),
                   "ref_ms": statistics.median(run.ref_ms),
                   "ref_py_ms": statistics.median(ref_py_ms) if ref_py_ms
                   else float("nan"),
                   "op_p90_over_median": _p90(samples) / statistics.median(
                       raw for raw, _ in samples)}
    return metrics, run, diagnostics


def _p90(samples: Sequence[Tuple[float, float]]) -> float:
    ordered = sorted(raw for raw, _ in samples)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def run_traced(name: str, seed: int, seconds: float,
               max_ops: Optional[int] = None, smoke: bool = False,
               out_dir: str = os.path.join(ROOT, "bench", "out")
               ) -> Tuple[Metrics, _Measurement, Dict[str, float]]:
    """The layered run: spans on, then off again to price the spans."""
    from bench import layers, trace, workloads

    workload = workloads.build(name, seed, smoke=smoke)
    tracer = trace.Tracer()
    run = _Measurement(workload, tracer, trace.build_patches(tracer), smoke)
    # The warm-up ops are traced too: they are the cold path (workload
    # derivation, scheme memo misses) that set-up time pays for.
    warm = [run.op(-1 - i) for i in range(1 if smoke else WARMUP_OPS)]
    traced: List[Tuple[float, float]] = []
    untraced: List[Tuple[float, float]] = []
    serial: List[Tuple[float, float]] = []
    has_serial = hasattr(workload, "serial_losses")

    def traced_then_untraced() -> bool:
        # Alternating the two keeps machine drift out of their ratio; so
        # does timing the single-worker baseline in between (three times).
        pair = run.op(len(traced)), run.op()
        if None in pair:
            return False
        traced.append(pair[0])
        untraced.append(pair[1])
        if has_serial and len(serial) < (1 if smoke else 3):
            serial.append(run.timed(workload.serial_losses))
        return True

    run.closed_loop(seconds * 2.0 / 3.0, (1, max_ops), traced_then_untraced)
    if not traced or warm[0] is None:
        raise RuntimeError(f"{name}: no op completed")

    stats = tracer.per_op()
    divisor = workload.op_divisor
    values: Dict[str, float] = {}
    for metric, _unit, kind, fn in layers.SPAN_METRICS:
        per_op = []
        for index, (_raw, factor) in enumerate(traced):
            value = fn(stats[index])
            if kind == "ms":
                value = value * factor / divisor
            elif kind == "setup_ms":
                value = value * factor
            per_op.append(value)
        values[metric] = statistics.median(per_op)

    traced_ms, _ = _op_ms(workload, traced)
    untraced_ms, _ = _op_ms(workload, untraced)
    values["simulation.workload.build_ms"] = sum(
        stats[-1 - i].self_of("simulation.workload.build_workload") * sample[1]
        for i, sample in enumerate(warm) if sample is not None)
    run_ms = values["simulation.throughput.run_ms"]
    values["sim.core.events_per_ms"] = (
        values["sim.core.events"] / run_ms if run_ms else 0.0)
    values["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
    values["trace.selftime_share"] = statistics.median(
        layers.selftime_share(
            stats[index], (stats[index].total_ms["bench.op"]
                           - stats[index].total_ms.get("bench.ref", 0.0)),
            stats[index].total_ms.get("parallel.trainer.DistributedTrainer.train", 0.0))
        for index in range(len(traced)))

    values["comm.wire_mb_per_iter"] = 0.0
    values["parallel.serial.iter_ms"] = 0.0
    values["parallel.trainer.dist_overhead_x"] = 0.0
    if has_serial:
        values["comm.wire_mb_per_iter"] = run.first[1] / divisor / 1e6
        values["parallel.serial.iter_ms"], _ = _op_ms(workload, serial)
        values["parallel.trainer.dist_overhead_x"] = (
            untraced_ms / values["parallel.serial.iter_ms"])

    # sim.core.events must repeat exactly: it is a count, not a timing.
    events = {stats[index].extra.get("events", 0.0) for index in range(len(traced))}
    if len(events) > 1:
        print(f"check failed: sim.core.events varies across ops: {sorted(events)}",
              file=sys.stderr)
        run.failed += 1

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{name}-seed{seed}.trace.json")
    spans = tracer.write_chrome_trace(trace_path)
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in layers.PER_LAYER_UNITS.items()}
    diagnostics = {"traced_op_ms": traced_ms, "untraced_op_ms": untraced_ms,
                   "traced_ops": float(len(traced)), "spans": float(spans),
                   "ref_ms": statistics.median(run.ref_ms)}
    print(f"# chrome trace: {trace_path}")
    return metrics, run, diagnostics


def result_line(metrics: Metrics, run: _Measurement) -> Dict[str, Any]:
    """The machine-readable result of one run."""
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": run.failed == 0 and finite, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=17.0,
                        help="seconds of ops to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: layered run with span wrappers installed")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result objects to this file")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _probe_main(args.setup_probe, args.seed, args.smoke)

    bootstrap()
    results: Dict[str, Dict[str, Any]] = {}
    for name in args.workload or WORKLOADS:
        runner = run_traced if args.trace else run_untraced
        metrics, run, diagnostics = runner(name, args.seed, args.seconds)
        print(f"== {name} seed={args.seed} trace={args.trace} "
              f"ops attempted={run.attempted} failed={run.failed}")
        for metric, entry in metrics.items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']}")
        for key, value in diagnostics.items():
            if math.isfinite(value):
                print(f"# {key} {value:.6g}")
        results[name] = result_line(metrics, run)
        # One result object per line; the driver reads the last line.
        print(json.dumps(results[name]), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
