"""Reference kernels: fixed slices of work that drift with the machine.

Timings on a shared box drift with the machine (CPU frequency, a noisy
neighbour, cache pressure) by far more than any bound a benchmark could
usefully enforce.  Dividing a timing by the time a reference kernel took
*immediately before and after it* cancels most of that drift: both numbers
slow down together.  That only works when the kernel is bound by what the
measured code is bound by, so there are three:

* ``ref_py`` -- pure Python, mirrors what the simulators do (allocate small
  slotted objects, push/pop a ``heapq``, store into dicts).  For
  ``sim_plan_mix`` ops and set-up probes (imports and construction).
* ``ref_np2`` -- two threads that stream 4 MB weight matrices through BLAS
  and meet at a barrier every step, mirrors what two MLP trainer workers
  do.  For ``train_mlp_*`` ops; ``ref_py`` does not track their noise (it
  made their spread worse, see ``bench/README.md``).
* ``ref_el2`` -- two threads of cache-resident tanh/power elementwise maths
  and stable argsorts, mirrors what the transformer workers spend their time
  in (GELU and top-k selection).  For ``train_gpt_ring_topk`` ops:
  ``ref_np2`` is bound by memory bandwidth, which a neighbour on the host
  takes away without slowing this workload, so dividing by it added noise.

None imports anything from the repo, so no change to ``src/`` can move
them.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

#: What one :func:`ref_py` call takes on the machine the benchmark was sized
#: on.  Normalised timings are ``raw / ref_measured * REF_PY_NOMINAL_MS``:
#: "milliseconds at reference interpreter speed".  A constant -- changing it
#: rescales every normalised metric and invalidates recorded baselines.
REF_PY_NOMINAL_MS = 100.0

#: Loop count sized so one call is ~0.1 s: long enough to average over
#: scheduler quanta, short enough to bracket every op.
_REF_STEPS = 62_000


class _Token:
    """A slotted event-like record (what the DES allocates per event)."""

    __slots__ = ("when", "seq", "payload")

    def __init__(self, when: float, seq: int, payload: int):
        self.when = when
        self.seq = seq
        self.payload = payload


def ref_py(steps: int = _REF_STEPS) -> int:
    """Run the fixed kernel once; returns a checksum so nothing is elided."""
    heap: List[Tuple[float, int, _Token]] = []
    clocks: Dict[int, float] = {}
    state = 12345
    checksum = 0
    for seq in range(steps):
        # LCG keeps the push/pop pattern fixed without touching `random`.
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        when = (state >> 8) * 1e-6
        heapq.heappush(heap, (when, seq, _Token(when, seq, state & 0xFF)))
        if seq & 1:
            due, _, token = heapq.heappop(heap)
            slot = token.payload & 63
            clocks[slot] = max(clocks.get(slot, 0.0), due)
            checksum += token.payload
    return checksum + len(heap) + len(clocks)


def time_ref_py(steps: int = _REF_STEPS) -> float:
    """Wall milliseconds of one :func:`ref_py` call.

    Only the smoke test passes ``steps``: it checks the plumbing and has no
    use for a steady reading.
    """
    start = time.perf_counter()
    ref_py(steps)
    return (time.perf_counter() - start) * 1e3


class _TwoThreadKernel:
    """A kernel run by two fresh threads that meet at a barrier every step."""

    def _worker(self, index: int, barrier: threading.Barrier) -> None:
        raise NotImplementedError

    def time_ms(self) -> float:
        """Wall milliseconds of one kernel run on two fresh threads."""
        barrier = threading.Barrier(2)
        threads = [threading.Thread(target=self._worker, args=(i, barrier))
                   for i in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return (time.perf_counter() - start) * 1e3


#: What one ``ref_np2`` call takes on the sizing machine (see above).
REF_NP2_NOMINAL_MS = 130.0

_NP2_STEPS = 40
_NP2_WIDTH = 1024
_NP2_BATCH = 32


class RefNp2(_TwoThreadKernel):
    """The ``ref_np2`` kernel; holds its operands so a call allocates little."""

    def __init__(self, steps: int = _NP2_STEPS) -> None:
        self._steps = steps
        ramp = np.linspace(-1.0, 1.0, _NP2_WIDTH * _NP2_WIDTH, dtype=np.float32)
        self._weights = [ramp.reshape(_NP2_WIDTH, _NP2_WIDTH).copy() for _ in range(2)]
        self._inputs = [ramp[:_NP2_BATCH * _NP2_WIDTH].reshape(
            _NP2_BATCH, _NP2_WIDTH).copy() for _ in range(2)]

    def _worker(self, index: int, barrier: threading.Barrier) -> None:
        weights, inputs = self._weights[index], self._inputs[index]
        for _ in range(self._steps):
            hidden = np.maximum(inputs @ weights, 0.0)   # forward, GIL released
            grad = hidden.T @ inputs                       # backward outer product
            barrier.wait()                                 # the BSP hand-off
            weights -= 1e-9 * grad                         # the update
            spin = 0
            for value in range(200):                       # GIL-holding glue
                spin += value


#: What one ``ref_el2`` call takes on the sizing machine (see above).
REF_EL2_NOMINAL_MS = 110.0

_EL2_STEPS = 3
_EL2_TOKENS = 256
_EL2_HIDDEN = 512
_EL2_GRADIENT = 65536
_EL2_SORTS = 4


class RefEl2(_TwoThreadKernel):
    """The ``ref_el2`` kernel: transcendental elementwise maths and sorting.

    Per step and thread: a tanh-GELU forward and backward over a
    tokens x hidden activation and a few stable magnitude argsorts of a
    64K-element gradient, then the barrier.  Everything lives in cache,
    where ``ref_np2`` streams 4 MB weight matrices.
    """

    def __init__(self, steps: int = _EL2_STEPS) -> None:
        self._steps = steps
        wave = np.sin(np.arange(_EL2_TOKENS * _EL2_HIDDEN, dtype=np.float32))
        self._activations = [(2.0 * wave).reshape(_EL2_TOKENS, _EL2_HIDDEN).copy()
                             for _ in range(2)]
        self._gradients = [np.sin(1.7 * np.arange(_EL2_GRADIENT, dtype=np.float32))
                           for _ in range(2)]

    def _worker(self, index: int, barrier: threading.Barrier) -> None:
        x, gradient = self._activations[index], self._gradients[index]
        for _ in range(self._steps):
            inner = 0.7978846 * (x + 0.044715 * x ** 3)            # forward
            out = 0.5 * x * (1.0 + np.tanh(inner))
            tanh_inner = np.tanh(0.7978846 * (x + 0.044715 * x ** 3))  # backward
            slope = 0.7978846 * (1.0 + 0.134145 * x ** 2)
            out *= 0.5 * (1.0 + tanh_inner) + 0.5 * x * (1.0 - tanh_inner ** 2) * slope
            for _ in range(_EL2_SORTS):                           # top-k selection
                order = np.argsort(-np.abs(gradient), kind="stable")
            barrier.wait()                                        # the BSP hand-off
            spin = int(order[0])
            for value in range(200):                              # GIL-holding glue
                spin += value
