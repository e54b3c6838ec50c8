"""Per-layer metrics derived from the spans of a traced run.

One row per metric: name, unit, and how it is computed from one op's
:class:`bench.trace.OpStats`.  Time-valued rows are per training iteration
summed over both workers on ``train_*`` and per pass at reference
interpreter speed on ``sim_plan_mix`` (the caller scales); counts are per
op.  A layer that an op never entered reports 0.  ``bench/README.md`` says
which end-to-end metric each row should move, on which workload.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from bench.trace import OpStats

_TRAINER = "parallel.trainer.DistributedTrainer."
_PS = "comm.parameter_server.ShardedParameterServer."
_SFB = "comm.sfb.SufficientFactorBroadcaster."
_DES = "simulation.throughput.IterationSimulator."
_FLUID = "simulation.fluid.FluidSimulator."
_SYNC = "core.syncer.Syncer.sync"
_WAIT = "core.wfbp.WFBPScheduler.wait_all"
_BSP = "core.consistency.BSPController."


def _layer_time(*classes: str) -> Callable[[OpStats], float]:
    names = tuple(f"nn.layers.{cls}.{direction}" for cls in classes
                  for direction in ("forward", "backward"))
    return lambda s: s.self_of(*names)


def _overlap_share(s: OpStats) -> float:
    sync = s.total_ms.get(_SYNC, 0.0)
    return 1.0 - s.total_ms.get(_WAIT, 0.0) / sync if sync else 0.0


def _wire_ratio(s: OpStats) -> float:
    dense = s.extra.get("dense_bytes", 0.0)
    return s.extra.get("wire_bytes", 0.0) / dense if dense else 0.0


#: ``(name, unit, kind, fn)``; kind "ms" rows are scaled by the caller
#: (per iteration / to reference speed), "count" and "share" rows are not.
SPAN_METRICS: List[Tuple[str, str, str, Callable[[OpStats], float]]] = [
    ("parallel.trainer.build_ms", "ms", "setup_ms",
     lambda s: s.self_of(_TRAINER + "__init__")),
    ("parallel.schemes.assign_ms", "ms", "setup_ms",
     lambda s: s.self_of("parallel.schemes.assign_schemes")),
    ("nn.forward_ms", "ms", "ms", lambda s: s.total_ms.get("nn.Network.forward", 0.0)),
    ("nn.backward_ms", "ms", "ms",
     lambda s: (s.total_ms.get("nn.Network.backward", 0.0)
                - s.total_ms.get("nn.Network.backward.hook", 0.0))),
    ("nn.optim_ms", "ms", "ms", lambda s: s.self_of("nn.optim.SGD.apply")),
    ("nn.dense_ms", "ms", "ms", _layer_time("Dense")),
    ("nn.attention_ms", "ms", "ms", _layer_time("MultiHeadAttention")),
    ("nn.layernorm_ms", "ms", "ms", _layer_time("LayerNorm")),
    ("nn.embedding_ms", "ms", "ms", _layer_time("Embedding", "PositionalEmbedding")),
    ("nn.gelu_ms", "ms", "ms", _layer_time("GELU")),
    ("core.syncer.sync_ms", "ms", "ms", lambda s: s.total_ms.get(_SYNC, 0.0)),
    ("core.syncer.calls", "count", "count", lambda s: float(s.calls.get(_SYNC, 0))),
    ("core.wfbp.wait_ms", "ms", "ms", lambda s: s.total_ms.get(_WAIT, 0.0)),
    ("core.wfbp.overlap_share", "share", "share", _overlap_share),
    ("core.consistency.barrier_ms", "ms", "ms",
     lambda s: (s.total_ms.get(_BSP + "wait_worker", 0.0)
                + s.total_ms.get(_BSP + "barrier", 0.0))),
    ("comm.parameter_server.push_ms", "ms", "ms", lambda s: s.self_of(_PS + "push")),
    ("comm.parameter_server.pull_ms", "ms", "ms", lambda s: s.self_of(_PS + "pull")),
    ("comm.parameter_server.calls", "count", "count",
     lambda s: float(s.calls.get(_PS + "push", 0) + s.calls.get(_PS + "pull", 0))),
    ("comm.sfb.publish_ms", "ms", "ms", lambda s: s.self_of(_SFB + "publish")),
    ("comm.sfb.collect_ms", "ms", "ms", lambda s: s.self_of(_SFB + "collect")),
    ("comm.ring.allreduce_ms", "ms", "ms",
     lambda s: s.self_of("comm.ring.RingAllReducer.allreduce")),
    ("comm.compression.compress_ms", "ms", "ms",
     lambda s: s.self_of("comm.compression.Compressor.compress")),
    ("comm.compression.wire_ratio", "share", "share", _wire_ratio),
    ("comm.bucketing.flushes", "count", "count",
     lambda s: float(s.calls.get("comm.bucketing.GradientBucketer.flush", 0))),
    ("simulation.throughput.init_ms", "ms", "ms", lambda s: s.self_of(_DES + "__init__")),
    ("simulation.throughput.run_ms", "ms", "ms", lambda s: s.self_of(_DES + "run")),
    ("simulation.throughput.decide_ms", "ms", "ms",
     lambda s: s.self_of("simulation.throughput.decide_schemes")),
    ("sweep.run_ms", "ms", "ms", lambda s: s.self_of("sweep.run_sweep")),
    ("sim.core.events", "count", "count", lambda s: s.extra.get("events", 0.0)),
    ("simulation.throughput.des_cnn_ms", "ms", "ms",
     lambda s: s.total_ms.get("bench.phase.des_cnn", 0.0)),
    ("simulation.throughput.des_llm_ms", "ms", "ms",
     lambda s: s.total_ms.get("bench.phase.des_llm", 0.0)),
    ("simulation.fluid.init_ms", "ms", "ms", lambda s: s.self_of(_FLUID + "__init__")),
    ("simulation.fluid.eval_ms", "ms", "ms",
     lambda s: s.self_of(_FLUID + "iteration_seconds")),
    ("simulation.fluid.sweep_ms", "ms", "ms",
     lambda s: s.total_ms.get("bench.phase.fluid_sweep", 0.0)),
    ("simulation.fluid.detail_ms", "ms", "ms",
     lambda s: s.total_ms.get("bench.phase.fluid_detail", 0.0)),
]

#: Metrics ``bench.run`` computes from whole-run quantities, not one op's spans.
RUN_METRICS: List[Tuple[str, str]] = [
    ("simulation.workload.build_ms", "ms"),
    ("sim.core.events_per_ms", "1/ms"),
    ("comm.wire_mb_per_iter", "MB"),
    ("parallel.serial.iter_ms", "ms"),
    ("parallel.trainer.dist_overhead_x", "x"),
    ("trace.overhead_share", "share"),
    ("trace.selftime_share", "share"),
]

PER_LAYER_UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _kind, _fn in SPAN_METRICS},
    **dict(RUN_METRICS),
}


def selftime_share(stats: OpStats, op_ms: float, train_ms: float) -> float:
    """Lowest share of a thread's wall time that lies inside layer spans.

    The main thread is judged against the op's wall time with the
    benchmark's own spans (``bench.*``) taken out, each worker thread
    against the ``train()`` call that spawned it.  Near 1 means the spans
    account for the wall time; the acceptance floor is 0.9.
    """
    own = sum(ms for name, ms in stats.self_ms.items() if name.startswith("bench."))
    shares = [(stats.thread_ms.get("MainThread", 0.0) - own) / op_ms]
    shares += [ms / train_ms for thread, ms in stats.thread_ms.items()
               if thread.startswith("worker-") and train_ms]
    return min(shares)
