"""Benchmark: transformer building blocks and the fig_llm sweep.

Tracks the numpy attention stack (the most matmul-dense layer family in
the runnable trainer) and the end-to-end transformer figure so regressions
in either the layer kernels or the timed Algorithm-1 sweep are visible.
"""

import numpy as np

from repro.experiments import fig_llm
from repro.nn.layers import GELU, TransformerBlock


def test_transformer_block_forward_backward(benchmark):
    """Forward+backward of one 128-dim, 4-head block on a (8, 32) batch."""
    rng = np.random.default_rng(0)
    block = TransformerBlock("h0", 128, 4, rng=rng)
    x = rng.standard_normal((8, 32, 128)).astype(np.float32)

    def step():
        out = block.forward(x.copy())
        return block.backward(np.ones_like(out))

    grad = benchmark(step)
    assert grad.shape == x.shape


def test_gelu_forward_backward(benchmark):
    """Forward+backward of that block's MLP activation: 256 x 512 float32."""
    rng = np.random.default_rng(0)
    layer = GELU("act")
    x = rng.standard_normal((256, 512)).astype(np.float32)
    grad_out = rng.standard_normal((256, 512)).astype(np.float32)

    def step():
        layer.forward(x)
        return layer.backward(grad_out)

    assert benchmark(step).dtype == np.float32


def test_fig_llm_quick(benchmark, once):
    """The reduced (nanogpt-only) transformer sweep, as run by --quick."""
    report = once(benchmark, fig_llm.report, True)
    assert "no FC layer picks sfb at any swept bandwidth" in report
