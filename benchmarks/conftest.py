"""Shared configuration for the benchmark harness.

Every ``bench_fig*`` / ``bench_table*`` benchmark regenerates one of the
paper's tables or figures (README's figure map says which is which); the
others time one layer of the stack.  Simulation-backed benchmarks are cheap
enough to run at full scale; the functional-training benchmark (Figure 11)
uses a reduced iteration count.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The trainer micro-benchmarks draw their data from the tests' reference
# dataset (tests/train_reference.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiment functions are deterministic and relatively expensive, so a
    single round gives a meaningful timing without inflating the suite.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    """Fixture exposing :func:`run_once`."""
    return run_once
