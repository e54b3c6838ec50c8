"""Span tracing installed from the benchmark, around the calls into each layer.

Nothing in ``src/`` knows it is being traced: :func:`build_patches` wraps the
public callables of every layer (class methods in place, module functions
wherever they were imported); the wrappers are live only inside a
``with patches:`` block.
Spans stay in per-thread lists -- no lock on the hot path -- and are written
out as Chrome-trace JSON when the run ends.

A span carries its name, start, end, its parent (the enclosing span on the
same thread), its thread, and the key ``(op, point, unit)``: the benchmark
op it belongs to, the training iteration or cluster size, and the layer or
system it worked on.  Spans on different threads that serve the same
request share ``(op, point)``, which is how a sync-pool span is tied to the
worker iteration that caused it (the shape of the PyTorch PS-benchmark's
``HookState`` keyed by batch and bucket, SNIPPETS.md snippet 3).

Self time = a span's duration minus the time covered by its child spans on
the same thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record layout (a list, mutated on exit).
_NAME, _START, _END, _PARENT, _OP, _POINT, _UNIT, _CHILD_NS, _EXTRA = range(9)

Describe = Callable[[tuple, dict], Tuple[Any, Any]]
After = Callable[[tuple, Any], Optional[Dict[str, float]]]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(thread name, spans)`` per thread that recorded anything.
        self.buffers: List[Tuple[str, List[list]]] = []
        #: Index of the benchmark op in flight (warm-up ops are negative).
        self.op = 0

    def _state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        try:
            return local.state
        except AttributeError:
            state = ([], [])
            local.state = state
            with self._lock:
                self.buffers.append((threading.current_thread().name, state[0]))
            return state

    def enter(self, name: str, point: Any = None, unit: Any = None) -> list:
        spans, stack = self._state()
        record = [name, 0, 0, stack[-1] if stack else -1, self.op, point, unit,
                  0, None]
        stack.append(len(spans))
        spans.append(record)
        record[_START] = time.perf_counter_ns()
        return record

    def exit(self, record: list) -> None:
        record[_END] = end = time.perf_counter_ns()
        spans, stack = self._local.state
        stack.pop()
        if record[_PARENT] >= 0:
            spans[record[_PARENT]][_CHILD_NS] += end - record[_START]

    def span(self, name: str, point: Any = None, unit: Any = None) -> "_Span":
        """Context manager for spans the benchmark opens itself."""
        return _Span(self, name, point, unit)

    def wrap(self, name: str, fn: Callable, describe: Optional[Describe] = None,
             after: Optional[After] = None) -> Callable:
        """``fn`` with a span around every call.

        ``describe(args, kwargs)`` gives the span's ``(point, unit)``;
        ``after(args, result)`` may return counts to attach to it.
        """
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            point, unit = describe(args, kwargs) if describe else (None, None)
            record = enter(name, point, unit)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(record)
            if after is not None:
                record[_EXTRA] = after(args, result)
            return result

        return traced

    # -- reading the spans back ------------------------------------------------
    def per_op(self) -> Dict[int, "OpStats"]:
        """Spans aggregated by op index."""
        stats: Dict[int, OpStats] = defaultdict(OpStats)
        for thread, spans in list(self.buffers):
            for record in spans:
                stats[record[_OP]].add(thread, record)
        return stats

    def write_chrome_trace(self, path: str) -> int:
        """Write every span as a Chrome-trace complete event; returns the count."""
        events = []
        for tid, (thread, spans) in enumerate(list(self.buffers)):
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": tid, "args": {"name": thread}})
            for index, record in enumerate(spans):
                args = {"op": record[_OP], "point": record[_POINT],
                        "unit": record[_UNIT], "span": index,
                        "parent": record[_PARENT]}
                if record[_EXTRA]:
                    args.update(record[_EXTRA])
                events.append({
                    "ph": "X", "name": record[_NAME], "pid": 0, "tid": tid,
                    "ts": record[_START] / 1e3,
                    "dur": (record[_END] - record[_START]) / 1e3,
                    "args": args})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                      default=str)
        return len(events)


class _Span:
    __slots__ = ("tracer", "name", "point", "unit", "record")

    def __init__(self, tracer: Tracer, name: str, point: Any, unit: Any):
        self.tracer, self.name, self.point, self.unit = tracer, name, point, unit

    def __enter__(self) -> list:
        self.record = self.tracer.enter(self.name, self.point, self.unit)
        return self.record

    def __exit__(self, *_exc: Any) -> None:
        self.tracer.exit(self.record)


class OpStats:
    """Per-span-name totals of one benchmark op, in milliseconds and counts."""

    def __init__(self) -> None:
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.total_ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        #: Self time summed per thread: equals the time the thread spent
        #: inside any span, because nested self times telescope.
        self.thread_ms: Dict[str, float] = defaultdict(float)

    def add(self, thread: str, record: list) -> None:
        name = record[_NAME]
        duration = record[_END] - record[_START]
        own = (duration - record[_CHILD_NS]) / 1e6
        self.self_ms[name] += own
        self.total_ms[name] += duration / 1e6
        self.calls[name] += 1
        self.thread_ms[thread] += own
        if record[_EXTRA]:
            for key, value in record[_EXTRA].items():
                self.extra[key] += value

    def self_of(self, *names: str) -> float:
        return sum(self.self_ms.get(name, 0.0) for name in names)


# -- installation ----------------------------------------------------------------
def _iteration_arg(position: int, unit_position: Optional[int] = None) -> Describe:
    def describe(args: tuple, _kwargs: dict) -> Tuple[Any, Any]:
        unit = args[unit_position] if unit_position is not None else None
        return (args[position] if len(args) > position else None), unit
    return describe


def _layer_unit(args: tuple, _kwargs: dict) -> Tuple[Any, Any]:
    return None, args[0].name


def _syncer_key(args: tuple, _kwargs: dict) -> Tuple[Any, Any]:
    return args[1], args[0].layer.name


def _simulator_key(args: tuple, _kwargs: dict) -> Tuple[Any, Any]:
    simulator = args[0]
    return simulator.num_workers, simulator.system.name


def _simulator_init_key(args: tuple, kwargs: dict) -> Tuple[Any, Any]:
    cluster = args[2] if len(args) > 2 else kwargs["cluster"]
    system = args[3] if len(args) > 3 else kwargs["system"]
    return cluster.num_workers, system.name


def _compress_counts(args: tuple, result: Any) -> Dict[str, float]:
    grads = args[2]
    return {"wire_bytes": float(result[1]),
            "dense_bytes": float(sum(int(g.nbytes) for g in grads.values()))}


def _des_events(args: tuple, _result: Any) -> Dict[str, float]:
    return {"events": float(args[0].env.events_processed)}


def _wrap_hook(tracer: Tracer, backward: Callable) -> Callable:
    """``Network.backward`` with the WFBP hook's time split out as its own span.

    The hook is the trainer's, not the network's: it schedules syncer jobs
    (and flushes buckets), so leaving it inside ``backward`` would charge
    scheduling cost to ``nn``.
    """
    traced_backward = tracer.wrap("nn.Network.backward", backward)

    @functools.wraps(backward)
    def backward_with_hook_span(self, grad_logits, hook=None):
        if hook is not None:
            hook = tracer.wrap("nn.Network.backward.hook", hook)
        return traced_backward(self, grad_logits, hook=hook)

    return backward_with_hook_span


class Patches:
    """The wrapped callables, switched on for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._entries: List[Tuple[Any, str, Any, Any]] = []

    def add(self, owner: Any, attr: str, original: Any, traced: Any) -> None:
        self._entries.append((owner, attr, original, traced))

    def __enter__(self) -> "Patches":
        for owner, attr, _original, traced in self._entries:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *_exc: Any) -> None:
        for owner, attr, original, _traced in reversed(self._entries):
            setattr(owner, attr, original)


def build_patches(tracer: Tracer) -> Patches:
    """Wrap the public callables of every layer (not yet switched on)."""
    from repro.comm.bucketing import GradientBucketer
    from repro.comm.compression import Compressor
    from repro.comm.parameter_server import ShardedParameterServer
    from repro.comm.ring import RingAllReducer
    from repro.comm.sfb import SufficientFactorBroadcaster
    from repro.core.consistency import BSPController
    from repro.core.syncer import Syncer
    from repro.core.wfbp import WFBPScheduler
    from repro.nn import layers as nn_layers
    from repro.nn.loss import SoftmaxCrossEntropyLoss
    from repro.nn.network import Network
    from repro.nn.optim import SGD
    from repro.parallel.schemes import assign_schemes
    from repro.parallel.trainer import DistributedTrainer
    from repro.simulation.fluid import FluidSimulator
    from repro.simulation.throughput import IterationSimulator, decide_schemes
    from repro.simulation.workload import build_workload
    from repro.sweep import run_sweep

    patches = Patches()

    def method(cls: type, attr: str, name: str,
               describe: Optional[Describe] = None,
               after: Optional[After] = None) -> None:
        original = cls.__dict__[attr]
        patches.add(cls, attr, original,
                    tracer.wrap(name, original, describe, after))

    def function(fn: Callable, name: str) -> None:
        # A module function is bound by name wherever it was imported
        # (`from repro.sweep import run_sweep`), so replace every binding.
        traced = tracer.wrap(name, fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.add(module, attr, fn, traced)

    method(DistributedTrainer, "__init__", "parallel.trainer.DistributedTrainer.__init__")
    method(DistributedTrainer, "train", "parallel.trainer.DistributedTrainer.train")
    function(assign_schemes, "parallel.schemes.assign_schemes")

    method(Network, "train_step", "nn.Network.train_step")
    method(Network, "forward", "nn.Network.forward")
    patches.add(Network, "backward", Network.__dict__["backward"],
                _wrap_hook(tracer, Network.__dict__["backward"]))
    method(SoftmaxCrossEntropyLoss, "forward", "nn.loss.forward")
    method(SGD, "apply", "nn.optim.SGD.apply",
           describe=lambda args, _kw: (None, args[1]))
    for class_name in nn_layers.__all__:
        cls = getattr(nn_layers, class_name)
        for attr in ("forward", "backward"):
            if attr in cls.__dict__ and cls is not nn_layers.Layer:
                method(cls, attr, f"nn.layers.{class_name}.{attr}", _layer_unit)

    method(Syncer, "sync", "core.syncer.Syncer.sync", _syncer_key)
    method(WFBPScheduler, "wait_all", "core.wfbp.WFBPScheduler.wait_all")
    method(BSPController, "wait_worker", "core.consistency.BSPController.wait_worker")
    method(BSPController, "barrier", "core.consistency.BSPController.barrier")

    method(ShardedParameterServer, "push",
           "comm.parameter_server.ShardedParameterServer.push",
           lambda args, _kw: (None, args[2]))
    method(ShardedParameterServer, "pull",
           "comm.parameter_server.ShardedParameterServer.pull",
           lambda args, _kw: (None, args[2]))
    method(SufficientFactorBroadcaster, "publish",
           "comm.sfb.SufficientFactorBroadcaster.publish", _iteration_arg(3, 2))
    method(SufficientFactorBroadcaster, "collect",
           "comm.sfb.SufficientFactorBroadcaster.collect", _iteration_arg(3, 2))
    method(RingAllReducer, "allreduce", "comm.ring.RingAllReducer.allreduce",
           _iteration_arg(3, 2))
    method(Compressor, "compress", "comm.compression.Compressor.compress",
           lambda args, _kw: (None, args[1]), _compress_counts)
    method(GradientBucketer, "flush", "comm.bucketing.GradientBucketer.flush")

    function(build_workload, "simulation.workload.build_workload")
    function(decide_schemes, "simulation.throughput.decide_schemes")
    function(run_sweep, "sweep.run_sweep")
    method(IterationSimulator, "__init__",
           "simulation.throughput.IterationSimulator.__init__",
           _simulator_init_key)
    method(IterationSimulator, "run", "simulation.throughput.IterationSimulator.run",
           _simulator_key, _des_events)
    method(FluidSimulator, "__init__", "simulation.fluid.FluidSimulator.__init__",
           _simulator_init_key)
    method(FluidSimulator, "iteration_seconds",
           "simulation.fluid.FluidSimulator.iteration_seconds", _simulator_key)
    return patches
