"""Benchmarks: gradient-compressor throughput and bucketer overhead.

The compression zoo sits on the trainer's per-layer hot path, so two
things are gated here against benchmarks/baseline.json:

* compressor throughput on a 1M-element (1000x1000) float32 gradient --
  top-k's selection pass and PowerSGD's two rank-r GEMMs must stay fast
  enough that encode time cannot dominate the wire time it saves -- and
  top-k on a 64K-element one, the cache-resident size of a transformer
  block's MLP matrices;
* the :class:`~repro.comm.bucketing.GradientBucketer`'s dispatch
  overhead -- test_trainer_iteration_bucketed shares its exact setup
  with bench_micro's test_trainer_iteration_bsp and differs only in
  routing every sync job through a bucketer, so the ratio of the two
  means is the granularity machinery's overhead (gated < 5%).
"""

import numpy as np

from repro.comm.bucketing import GradientBucketer
from repro.comm.compression import make_compressor

ELEMENTS = 1000 * 1000


def _grads(seed=0, shape=(1000, 1000)):
    rng = np.random.default_rng(seed)
    return {"weight": rng.standard_normal(shape).astype(np.float32)}


def test_topk_compression_rate(benchmark):
    """topk(0.01) on a 1M-element gradient: residual, sampled threshold,
    exact selection among the candidates above it."""
    compressor = make_compressor("topk(0.01)")
    grads = _grads()

    def step():
        _, nbytes = compressor.compress("fc", grads)
        return nbytes

    assert benchmark(step) > 0


def test_topk_64k(benchmark):
    """topk(0.01) on a 128x512 gradient: the transformer trainer's unit."""
    compressor = make_compressor("topk(0.01)")
    grads = _grads(shape=(128, 512))

    def step():
        _, nbytes = compressor.compress("mlp_fc", grads)
        return nbytes

    assert benchmark(step) > 0


def test_powersgd_compression_rate(benchmark):
    """powersgd(4) on a 1M-element gradient: two GEMMs + a thin QR."""
    compressor = make_compressor("powersgd(4)")
    grads = _grads()

    def step():
        _, nbytes = compressor.compress("fc", grads)
        return nbytes

    assert benchmark(step) > 0


def test_bucketer_dispatch_rate(benchmark):
    """Raw bucketer bookkeeping: 1000 job routings into 4 MB buckets."""
    class NullScheduler:
        def schedule(self, job):
            job()

    def route():
        bucketer = GradientBucketer(4 * 1024 * 1024, NullScheduler())
        for _ in range(1000):
            bucketer.add(512 * 1024, lambda: None)
        bucketer.finish()
        return bucketer.messages_flushed

    assert benchmark(route) > 0


def test_trainer_iteration_bucketed(benchmark):
    """4 deterministic BSP iterations with a 64 KB gradient bucket.

    Pairs with bench_micro's test_trainer_iteration_bsp (identical run,
    per-layer dispatch): the ratio of the two means is the end-to-end
    overhead of routing every sync job through the GradientBucketer,
    gated < 5% in benchmarks/baseline.json.  64 KB makes the tiny MLP's
    layers actually share buckets instead of degenerating to one flush
    per layer.
    """
    from bench_micro import _trainer_run

    assert benchmark(_trainer_run, "bsp", bucket_bytes=64 * 1024) > 0
