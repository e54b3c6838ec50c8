"""The four benchmark workloads.

Every workload is a closed loop in one process: the next op starts only
after the previous one returned.  An *op* is deliberately long (0.3-1 s):
per-iteration samples of the threaded trainers are bimodal (GIL hand-off
between the two workers) and short interpreter-bound ops drown in machine
drift, so the unit that is timed is a whole ``train(iterations=N)`` call or
a whole planner pass.  ``bench/README.md`` records why each workload exists
and which layers it stresses or bypasses.

Each workload exposes the same four hooks to ``bench.run``:

* ``prepare(index)`` -- untimed per-op set-up (a fresh trainer: ``train()``
  is single-shot, see the README);
* ``run(state)`` -- the timed op, returns its output;
* ``signature(output)`` -- the part of the output that must repeat;
* ``same(first, other)`` -- whether two signatures agree.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig, TrainingConfig
from repro.experiments.fig_backends import backend_systems
from repro.nn.model_zoo import (
    build_mlp_network,
    build_transformer_network,
    get_model_spec,
)
from repro.nn.network import Network
from repro.parallel.serial import simulate_synchronous_sgd
from repro.parallel.trainer import DistributedTrainer
from repro.simulation import fluid
from repro.simulation.speedup import compare_systems, simulate_point

NUM_WORKERS = 2

#: Called around the phases of a ``sim_plan_mix`` op with the phase name;
#: ``bench.run`` swaps in the tracer's span context for the traced run.
PhaseHook = Callable[[str], Any]


def _no_phase(_name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class TrainerWorkload:
    """``train(iterations=N)`` on a fresh two-worker threaded trainer."""

    def __init__(self, name: str, seed: int,
                 network_factory: Callable[[], Network],
                 make_batch: Callable[[np.random.Generator],
                                      Tuple[np.ndarray, np.ndarray]],
                 batch_size: int, iterations: int, mode: str,
                 matches_serial: bool, reference: str, **trainer_kwargs: Any):
        self.name = name
        #: The two-thread reference kernel the ops are scaled by: the one
        #: bound by what this model is bound by (``bench/refkernel.py``).
        self.reference = reference
        self.iterations = iterations
        self.mode = mode
        self.matches_serial = matches_serial
        self.network_factory = network_factory
        self.training = TrainingConfig(batch_size=batch_size,
                                       learning_rate=0.01, iterations=iterations,
                                       seed=seed)
        self.trainer_kwargs = trainer_kwargs
        rng = np.random.default_rng(seed)
        # All inputs come from --seed and are materialised up front, so the
        # provider inside the timed region is a dict lookup.
        self._batches: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {
            (step, worker): make_batch(rng)
            for step in range(iterations) for worker in range(NUM_WORKERS)
        }
        #: Training samples per op.
        self.work_per_op = float(NUM_WORKERS * batch_size * iterations)
        #: ``op_ms`` is per training iteration, not per ``train()`` call.
        self.op_divisor = float(iterations)

    def batch(self, step: int, worker: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._batches[(step, worker)]

    def prepare(self, _index: int) -> DistributedTrainer:
        return DistributedTrainer(
            self.network_factory, NUM_WORKERS, None, self.training,
            mode=self.mode, batch_provider=self.batch, deterministic=True,
            **self.trainer_kwargs)

    def run(self, trainer: DistributedTrainer, phase: PhaseHook = _no_phase):
        return trainer.train(iterations=self.iterations)

    def signature(self, history) -> Tuple[Tuple[float, ...], int]:
        return tuple(history.losses), int(history.total_bytes)

    def same(self, first, other) -> bool:
        # deterministic=True: bit-identical, not merely close.
        return first == other

    def serial_losses(self) -> List[float]:
        """The single-worker BSP emulation on the same batches."""
        return simulate_synchronous_sgd(
            self.network_factory(), self.batch, NUM_WORKERS, self.iterations,
            self.training)

    def check_against_serial(self, signature) -> bool:
        """Losses agree with the serial emulation (exact-gradient modes only)."""
        if not self.matches_serial:
            return True
        losses = np.asarray(signature[0])
        return bool(np.all(np.isfinite(losses)) and np.allclose(
            losses, self.serial_losses(), rtol=0.0, atol=1e-4))


def _mlp_factory() -> Network:
    return build_mlp_network(1024, (1024, 1024), 10)


def _mlp_batch(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    return (rng.standard_normal((32, 1024)).astype(np.float32),
            rng.integers(0, 10, size=32))


def _gpt_factory() -> Network:
    return build_transformer_network(vocab_size=512, block_size=32, n_embd=128,
                                     num_heads=4, num_blocks=2, num_classes=10)


def _gpt_batch(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    return (rng.integers(0, 512, size=(8, 32)), rng.integers(0, 10, size=8))


SWEEP_BANDWIDTHS_GBPS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 56.0, 100.0)

#: Per-op nudge of the sweep's oversubscription factor: a new float, so
#: ``fluid._AXIS_CACHE`` misses as a new what-if query would, without the
#: benchmark reaching into the cache.  Results move by < index * 2.5e-8
#: relative, far inside SIM_RTOL.
OVERSUB_NUDGE = 1e-7
SIM_RTOL = 1e-5


class SimPlanMix:
    """One planner what-if pass: DES points, a cold fluid sweep, fluid detail."""

    name = "sim_plan_mix"
    #: Interpreter-bound: ops are scaled by the ``ref_py`` kernel.
    reference = "py"
    op_divisor = 1.0

    def __init__(self, seed: int, smoke: bool = False):
        # The smoke test only checks the plumbing: small clusters throughout.
        self.des_nodes, self.llm_nodes, self.sweep_nodes, self.detail_nodes = (
            ((8,), 4, 1000, 16) if smoke else ((8, 32), 16, 10000, 64))
        self.vgg = get_model_spec("vgg19")
        self.gpt = get_model_spec("nanogpt-12l")
        self.systems = backend_systems()
        by_name = {system.name: system for system in self.systems}
        self.llm_systems = (by_name["PS"], by_name["HybComm"])
        # The planner is deterministic and takes no data; the seed picks the
        # order the backends are queried in, which nothing may depend on.
        order = np.random.default_rng(seed).permutation(len(self.systems))
        self.sweep_order = [self.systems[i] for i in order]
        self.work_per_op = float(
            len(self.systems) * len(self.des_nodes) + len(self.llm_systems)
            + len(self.systems) * len(SWEEP_BANDWIDTHS_GBPS)
            + len(self.systems))

    def prepare(self, index: int) -> ClusterConfig:
        return ClusterConfig(num_workers=self.sweep_nodes, bandwidth_gbps=40.0,
                             racks=self.sweep_nodes // 40,
                             oversubscription=4.0 + OVERSUB_NUDGE * (index + 1))

    def run(self, sweep_cluster: ClusterConfig,
            phase: PhaseHook = _no_phase) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        with phase("des_cnn"):
            curves = compare_systems(self.vgg, self.systems,
                                     node_counts=self.des_nodes,
                                     bandwidth_gbps=10.0, jobs=1, engine="des")
            for system in self.systems:
                out.append(_result_vector(curves[system.name].results))
        with phase("des_llm"):
            out.append(_result_vector([
                simulate_point(self.gpt, system, self.llm_nodes, engine="des")
                for system in self.llm_systems]))
        with phase("fluid_sweep"):
            for system in self.sweep_order:
                out.append(fluid.sweep_axis(self.vgg, system, sweep_cluster,
                                            SWEEP_BANDWIDTHS_GBPS))
        with phase("fluid_detail"):
            out.append(_result_vector([
                simulate_point(self.vgg, system, self.detail_nodes, engine="fluid")
                for system in self.systems]))
        return out

    def signature(self, output: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(output)

    def same(self, first: np.ndarray, other: np.ndarray) -> bool:
        return (first.shape == other.shape
                and bool(np.all(np.isfinite(other)))
                and bool(np.allclose(first, other, rtol=SIM_RTOL, atol=0.0)))

    def check_against_serial(self, _signature) -> bool:
        return True


def _result_vector(results: Sequence[Any]) -> np.ndarray:
    """The numbers of ``SimulationResult``s that a planner user reads."""
    return np.asarray([value for r in results for value in (
        r.iteration_seconds, r.speedup, r.gpu_busy_fraction,
        r.mean_traffic_gbits)], dtype=float)


def build(name: str, seed: int, smoke: bool = False):
    """Construct one workload by name from ``seed``.

    ``smoke`` shrinks the op (one training iteration, small clusters) for
    ``test_bench_smoke.py``; measurements always use the full size.
    """
    if name == "train_mlp_ps":
        return TrainerWorkload(name, seed, _mlp_factory, _mlp_batch, 32,
                               1 if smoke else 20, "ps", matches_serial=True,
                               reference="np2")
    if name == "train_mlp_hybrid":
        return TrainerWorkload(name, seed, _mlp_factory, _mlp_batch, 32,
                               1 if smoke else 20, "hybrid", matches_serial=True,
                               reference="np2")
    if name == "train_gpt_ring_topk":
        return TrainerWorkload(name, seed, _gpt_factory, _gpt_batch, 8,
                               1 if smoke else 4, "ring", matches_serial=False,
                               reference="el2", compressor="topk(0.01)",
                               bucket_bytes=262144)
    if name == "sim_plan_mix":
        return SimPlanMix(seed, smoke)
    raise KeyError(f"unknown workload {name!r}")
