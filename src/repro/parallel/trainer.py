"""The functional distributed trainer.

One thread per worker runs the loop of Algorithm 2: forward pass, backward
pass with a per-layer hook that schedules the layer's syncer job on the
worker's WFBP thread pool, then a wait for all syncers and a policy-driven
end-of-step gate.  Gradients flow through the functional substrates of
:mod:`repro.comm` exactly as they would over the network.

The gate is where execution semantics live
(:class:`~repro.core.policy.SyncPolicy`): BSP (and its degenerate
equivalents ssp(0) / local_sgd(1)) rendezvous at the classic barrier;
SSP with s > 0 advances a per-worker :class:`~repro.core.staleness.SSPClock`
that only blocks a worker more than ``s`` iterations ahead of the slowest;
async never blocks; local SGD with H > 1 has no per-iteration gate at all --
the H-periodic parameter-averaging round is its rendezvous.  Under
``deterministic=True`` the relaxed policies (ssp s>0, async) run a
serialized round-robin schedule, so their thread interleaving is
reproducible run-to-run.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.comm.averaging import ParameterAverager
from repro.comm.backend import (TrainerContext, WorkerResources,
                                check_compression, get_backend)
from repro.comm.bucketing import GradientBucketer
from repro.comm.compression import make_compressor
from repro.config import ClusterConfig, ScheduleMode, TrainingConfig
from repro.core.consistency import BSPController
from repro.core.faults import FailureDetector, FaultInjector, FaultPlan
from repro.core.policy import SyncPolicy
from repro.core.staleness import SSPClock
from repro.core.syncer import Syncer
from repro.core.wfbp import DeterministicScheduler, WFBPScheduler
from repro.data.samplers import BatchSampler
from repro.exceptions import (
    ConfigurationError,
    RecoveryError,
    TrainingError,
    TransientFault,
    WorkerFailure,
)
from repro.nn.network import Network
from repro.nn.optim import BLOCK_ELEMENTS, SGD
from repro.parallel.schemes import SchemeAssignment, assign_schemes

#: Recognised crash-recovery modes (validated against backend capabilities).
RECOVERY_MODES: Tuple[str, ...] = ("none", "restart", "drop")

#: ``(iteration, worker_id) -> (images, labels)``
BatchProvider = Callable[[int, int], Tuple[np.ndarray, np.ndarray]]


@dataclass
class TrainingHistory:
    """Everything a distributed training run records."""

    losses: List[float] = field(default_factory=list)
    per_worker_losses: List[List[float]] = field(default_factory=list)
    test_errors: List[Tuple[int, float]] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    iterations: int = 0
    mode: str = ""
    num_workers: int = 0
    policy: str = "bsp"

    @property
    def total_bytes(self) -> int:
        """Total bytes across all workers and directions."""
        return self.bytes_sent + self.bytes_received

    @property
    def final_loss(self) -> float:
        """Mean worker loss of the last iteration."""
        return self.losses[-1] if self.losses else float("nan")

    @property
    def final_test_error(self) -> float:
        """Most recent recorded test error (NaN if never evaluated)."""
        return self.test_errors[-1][1] if self.test_errors else float("nan")


@dataclass
class TrainerCheckpoint:
    """A consistent cut of the whole training job (restart recovery).

    Captured at a step boundary where no sync is in flight -- inside the
    BSP barrier release (all other workers parked) or between rounds of
    the serialized relaxed-policy loop -- so every piece is from the same
    logical instant: the replicas, their local optimizer / lossy encoder /
    sampler state, the substrates' global state (including server-side
    optimizer state) and the SSP clock vector.
    """

    step: int
    replica_states: List[Dict[str, Dict[str, np.ndarray]]]
    optimizer_states: List[Dict[str, np.ndarray]]
    #: Per-worker lossy-encoder state (error-feedback residuals, PowerSGD
    #: factors); empty dicts when gradients travel dense.
    compressor_states: List[dict]
    sampler_states: List[Optional[dict]]
    substrate_snapshots: Dict[str, Any]
    clock_snapshot: Optional[Dict[int, int]] = None


class _WorkerRuntime:
    """Per-worker state: the model replica, its syncers and its scheduler."""

    def __init__(self, worker_id: int, network: Network, syncers: Dict[str, Syncer],
                 scheduler: WFBPScheduler, sampler: Optional[BatchSampler],
                 resources: WorkerResources):
        self.worker_id = worker_id
        self.network = network
        self.syncers = syncers
        self.scheduler = scheduler
        self.sampler = sampler
        self.resources = resources
        self.losses: List[float] = []


def _array_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` a block at a time: no full-size comparison mask."""
    if a.shape != b.shape:
        return False
    a, b = a.reshape(-1), b.reshape(-1)
    return all(np.array_equal(a[i:i + BLOCK_ELEMENTS], b[i:i + BLOCK_ELEMENTS])
               for i in range(0, a.size, BLOCK_ELEMENTS))


def _check_replicas_equal(replicas: Sequence[Network]) -> None:
    """Raise unless every replica's parameters equal worker 0's exactly.

    Server-free substrates (SFB, ring) never reconcile replicas that start
    apart, and under a parameter server iteration 0's gradients would come
    from different weights before the first pull hid the difference.
    """
    def layers(replica: Network) -> List[Tuple[str, Dict[str, np.ndarray]]]:
        return [(layer.name, layer.params) for _, layer in replica.parameter_layers()]

    reference = layers(replicas[0])
    for worker_id, replica in enumerate(replicas[1:], start=1):
        replica_layers = layers(replica)
        if ([(name, sorted(params)) for name, params in replica_layers]
                != [(name, sorted(params)) for name, params in reference]):
            raise TrainingError(
                f"worker {worker_id}'s replica has other parameter layers or "
                f"parameters than worker 0's")
        for (name, expected), (_, params) in zip(reference, replica_layers):
            for key, value in expected.items():
                if not _array_equal(params[key], value):
                    raise TrainingError(
                        f"worker {worker_id}'s initial parameter {name}.{key} "
                        f"differs from worker 0's: network_factory must build "
                        f"identical replicas")


class DistributedTrainer:
    """Data-parallel BSP trainer over in-process workers.

    Args:
        network_factory: builds one model replica; called once per worker,
            it must return exactly equal initial parameters every time
            (checked: a replica that differs from worker 0's raises
            :class:`TrainingError`).  The substrates are seeded from
            worker 0's replica, so the parameter-server copy starts equal
            too.
        num_workers: number of worker replicas (a whole count >= 1).
        train_shards: per-worker ``(images, labels)`` partitions; may be
            ``None`` when a ``batch_provider`` is given.
        training: hyper-parameters.
        mode: communication mode -- any registered backend name (``"ps"``,
            ``"sfb"``, ``"adam"``, ``"ring"``, ``"hierps"``, ...) or
            ``"hybrid"`` (per-layer Algorithm 1).
        schedule: WFBP (overlapped) or sequential synchronization.
        num_servers: PS shard count used by the hybrid cost model
            (``None`` or 0: one shard per worker).
        test_data: optional held-out set for periodic evaluation.
        eval_every: evaluate every N iterations (0 disables).
        batch_provider: overrides shard-based sampling with an explicit
            ``(iteration, worker) -> batch`` callable (used by equivalence
            tests).
        aggregation: ``"mean"`` or ``"sum"`` gradient aggregation.
        sync_timeout: per-operation timeout guarding against deadlocks;
            plumbed into every policy wait (syncer drains, BSP barrier,
            SSP clock advances, averaging rounds).
        deterministic: make the run bit-reproducible: syncer jobs drain in
            submission order (:class:`DeterministicScheduler`), every
            aggregation substrate reduces gradients in worker-id order
            instead of thread-arrival order, and relaxed-consistency
            policies (ssp s>0, async) run a serialized round-robin
            schedule instead of free-running threads.
        policy: execution semantics -- a :class:`SyncPolicy` or its string
            form (``"bsp"``, ``"ssp(2)"``, ``"async"``, ``"local_sgd(4)"``).
            Every backend named by ``mode`` must declare support for the
            policy's kind in its ``sync_semantics``.  The degenerate
            policies ssp(0) and local_sgd(1) run the exact BSP path, so
            they are bit-identical to ``"bsp"`` under ``deterministic``.
        fault_plan: deterministic fault schedule
            (:class:`~repro.core.faults.FaultPlan`); ``None`` (default)
            leaves every injection hook a zero-cost no-op.
        recovery: what to do when a worker dies -- ``"none"`` (fail the
            run), ``"restart"`` (restore everything from the latest
            checkpoint and replay; exact, parameters match the fault-free
            run), or ``"drop"`` (excise the dead worker; the parameter
            server renormalizes aggregation to a P-1 mean).  Every backend
            in play must declare the mode in its ``fault_modes``;
            collectives reject ``"drop"`` at construction.
        checkpoint_interval: iterations between periodic checkpoints under
            restart recovery (0 = only the implicit step-0 checkpoint).
        retry_limit: bounded retries for transient sync failures before a
            worker is declared dead.
        retry_backoff: base seconds of the exponential retry backoff.
        compressor: pluggable gradient compressor spec for dense-gradient
            backends (``"none"``, ``"topk(K)"``, ``"powersgd(R)"``); lossy
            push at the compressed wire size, dense pull.  The configured
            mode (or, under ``"hybrid"``, each layer's chosen backend) must
            have a dense-gradient path.
        bucket_bytes: fuse per-layer sync jobs of bucketable schemes into
            combined scheduler jobs of this many dense-gradient bytes
            (flushed the moment the bucket fills during backprop); ``None``
            keeps per-layer jobs.
    """

    def __init__(self,
                 network_factory: Callable[[], Network],
                 num_workers: int,
                 train_shards: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]],
                 training: TrainingConfig,
                 mode: str = "hybrid",
                 schedule: ScheduleMode = ScheduleMode.WFBP,
                 num_servers: Optional[int] = None,
                 test_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 eval_every: int = 0,
                 batch_provider: Optional[BatchProvider] = None,
                 aggregation: str = "mean",
                 sync_timeout: float = 60.0,
                 deterministic: bool = False,
                 policy: Union[SyncPolicy, str, None] = "bsp",
                 fault_plan: Optional[FaultPlan] = None,
                 recovery: str = "none",
                 checkpoint_interval: int = 0,
                 retry_limit: int = 3,
                 retry_backoff: float = 0.001,
                 compressor: str = "none",
                 bucket_bytes: Optional[int] = None):
        # Algorithm 1 decides on a flat cluster of these counts; building it
        # first refuses a fractional or non-positive count before any int().
        # No shard count (None or 0) means one shard per worker.
        cluster = ClusterConfig(num_workers=num_workers,
                                num_servers=num_servers or None)
        if train_shards is None and batch_provider is None:
            raise TrainingError("either train_shards or batch_provider is required")
        if train_shards is not None and len(train_shards) != num_workers:
            raise TrainingError(
                f"expected {num_workers} shards, got {len(train_shards)}"
            )
        self.num_workers = int(cluster.num_workers)
        self.num_servers = int(cluster.num_servers)
        self.training = training
        self.mode = mode
        self.schedule = ScheduleMode(schedule)
        self.test_data = test_data
        self.eval_every = int(eval_every)
        self.aggregation = aggregation
        self.sync_timeout = float(sync_timeout)
        if not (math.isfinite(self.sync_timeout) and self.sync_timeout > 0):
            raise ConfigurationError(
                f"sync_timeout must be finite and > 0, got {sync_timeout}")
        self.deterministic = bool(deterministic)
        self.policy = SyncPolicy.parse(policy)
        self._external_provider = batch_provider
        self._train_shards = train_shards

        # Fault tolerance knobs.  The defaults keep the fault-free path
        # byte-identical to the pre-fault-tolerance trainer: no injector,
        # no detector, no checkpoints, no extra work in the hot loop.
        self.fault_plan = fault_plan
        self.recovery = str(recovery)
        if self.recovery not in RECOVERY_MODES:
            raise TrainingError(
                f"unknown recovery mode {recovery!r}; "
                f"expected one of {RECOVERY_MODES}")
        self.checkpoint_interval = int(checkpoint_interval)
        if self.checkpoint_interval < 0:
            raise TrainingError(
                f"checkpoint_interval must be >= 0, got {checkpoint_interval}")
        if retry_limit < 0 or retry_backoff < 0:
            raise TrainingError(
                "retry_limit and retry_backoff must be >= 0, got "
                f"{retry_limit} / {retry_backoff}")
        # Counts are whole: int() would truncate 2.5 to 2 without a word.
        for name, value in (("eval_every", eval_every), ("retry_limit", retry_limit),
                            ("checkpoint_interval", checkpoint_interval)):
            if not (float(value).is_integer() and value >= 0):
                raise ConfigurationError(
                    f"{name} must be an integer >= 0, got {value!r}")
        if not math.isfinite(retry_backoff):
            raise ConfigurationError(
                f"retry_backoff must be finite, got {retry_backoff!r}")
        self.retry_limit = int(retry_limit)
        self.retry_backoff = float(retry_backoff)

        # Wire axes: the compressor spec is parsed (and rejected) up front;
        # worker-local compressor instances are built in _build_worker.
        self.compressor_spec: Optional[str] = (
            None if check_compression(mode, compressor) is None
            else str(compressor))
        if bucket_bytes is not None and not (
                float(bucket_bytes).is_integer() and bucket_bytes >= 1):
            raise ConfigurationError(
                f"bucket_bytes must be an integer >= 1, got {bucket_bytes}")
        self.bucket_bytes = None if bucket_bytes is None else int(bucket_bytes)
        if self.recovery == "drop" and not self.policy.is_bsp_equivalent:
            raise TrainingError(
                f"drop-dead-worker recovery needs a BSP-equivalent policy "
                f"(the survivors' rendezvous is what renormalizes to P-1); "
                f"got {self.policy}")
        if (self.recovery == "restart" and self.checkpoint_interval
                and self.policy.averages_parameters):
            raise TrainingError(
                "periodic checkpoints need a per-iteration rendezvous to cut "
                f"at; local SGD (H > 1) has none -- got {self.policy}")
        if (self.recovery == "restart" and self.checkpoint_interval
                and self.policy.relaxed_consistency and not self.deterministic):
            raise TrainingError(
                "periodic checkpoints under a relaxed policy need the "
                "serialized deterministic schedule (free-running workers "
                "have no consistent cut); pass deterministic=True")

        self._replicas = [network_factory() for _ in range(self.num_workers)]
        reference = self._replicas[0]
        _check_replicas_equal(self._replicas)
        self.assignment: SchemeAssignment = assign_schemes(
            reference, mode, cluster, training.batch_size)

        # Every substrate in play must be able to serve the configured
        # recovery mode (collectives reject "drop": a ring or bulletin board
        # has no server that could renormalize to P-1); the policy is checked
        # where each syncer is built (CommBackend.create_syncer).
        backends = [get_backend(scheme) for scheme
                    in sorted(set(self.assignment.schemes.values()))]
        for backend in backends:
            if not backend.supports_fault_mode(self.recovery):
                raise TrainingError(
                    f"backend {backend.name!r} cannot run recovery mode "
                    f"{self.recovery!r} (supported fault modes: "
                    f"{backend.fault_modes})"
                )
        # Each worker has one lossy-encoder slot: a backend's own encoder
        # (1-bit's quantizer) or the configured compressor, never both --
        # check_compression refuses a compressor on such a backend, and
        # Algorithm 1 never picks one.
        self._make_encoder: Callable[[], Any] = next(
            (backend.encoder for backend in backends if backend.encoder),
            functools.partial(make_compressor, self.compressor_spec))

        # Policy state: the shared parameter averager (local SGD) and the
        # per-worker SSP clock (ssp s>0, async -- where the bound is None).
        self._averager = (ParameterAverager(self.num_workers)
                          if self.policy.averages_parameters else None)
        self.clock: Optional[SSPClock] = None
        if self.policy.relaxed_consistency:
            self.clock = SSPClock(self.num_workers, staleness=self.policy.bound,
                                  default_timeout=self.sync_timeout)

        # Built from the hyper-parameters, not a method bound to ``self``:
        # the context keeps the factory, and trainer -> context -> trainer
        # would be a cycle only the garbage collector can free.
        self._make_optimizer: Callable[[], SGD] = functools.partial(
            SGD, learning_rate=training.learning_rate,
            momentum=training.momentum, weight_decay=training.weight_decay)

        # Global state holders: one substrate per scheme present in the
        # assignment, built by that scheme's registered backend.
        self._backend_context = TrainerContext(
            num_workers=self.num_workers,
            num_servers=self.num_servers,
            batch_size=training.batch_size,
            aggregation=aggregation,
            deterministic=self.deterministic,
            optimizer_factory=self._make_optimizer,
            policy=self.policy,
            averager=self._averager,
            sync_timeout=self.sync_timeout,
        )
        # Worker 0's live parameter dicts, not a copy: a substrate that
        # keeps parameters (the PS family's layer slots) copies them itself.
        layers_by_scheme: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {}
        for _, layer in reference.parameter_layers():
            scheme = self.assignment.scheme_for(layer.name)
            layers_by_scheme.setdefault(scheme, {})[layer.name] = layer.params
        self._substrates: Dict[str, Any] = {
            scheme: get_backend(scheme).build_substrate(layers,
                                                        self._backend_context)
            for scheme, layers in layers_by_scheme.items()
        }

        self._param_layer_names = [layer.name for _, layer
                                   in reference.parameter_layers()]
        self.bsp = BSPController(self.num_workers, self._param_layer_names)
        self._workers = [self._build_worker(w) for w in range(self.num_workers)]
        self._errors: List[BaseException] = []
        self._error_lock = threading.Lock()

        # Fault-tolerance runtime: the injector realizes the plan, the
        # detector marks a failed worker dead and fans an abort out to every
        # blocking sync primitive so a dead peer fails the run instead of
        # hanging it.  Both are None on the default fault-free path.
        self._injector = (FaultInjector(fault_plan)
                          if fault_plan is not None else None)
        self._detector: Optional[FailureDetector] = None
        if self._injector is not None or self.recovery != "none":
            self._detector = FailureDetector(self.num_workers)
            for primitive in self._rendezvous():
                self._detector.register(primitive)
        self._checkpoint: Optional[TrainerCheckpoint] = None
        self._dropped_workers: Set[int] = set()
        self.recoveries = 0

    def _rendezvous(self) -> List[Any]:
        """Every blocking sync primitive in play, the barrier last.

        All speak the one protocol of :mod:`repro.core.consistency` --
        ``abort`` / ``clear_abort`` for the failure detector's fan-out and
        ``remove_worker`` for drop mode (which construction admits only
        for backends declaring it).  The barrier goes last so a drop
        releases the survivors after every substrate has renormalized.
        """
        return [primitive for primitive in (*self._substrates.values(),
                                            self._averager, self.clock, self.bsp)
                if primitive is not None]

    # -- construction helpers ---------------------------------------------------
    def substrate(self, scheme: str) -> Optional[Any]:
        """The shared communication substrate of one scheme (None if absent)."""
        return self._substrates.get(scheme)

    def _build_worker(self, worker_id: int) -> _WorkerRuntime:
        network = self._replicas[worker_id]
        resources = WorkerResources(
            worker_id=worker_id,
            local_optimizer=self._make_optimizer(),
            # Worker-local instance: error-feedback residuals and PowerSGD
            # factors are per-replica state.
            compressor=self._make_encoder(),
        )
        syncers: Dict[str, Syncer] = {}
        for _, layer in network.parameter_layers():
            scheme = self.assignment.scheme_for(layer.name)
            backend = get_backend(scheme)
            syncers[layer.name] = backend.create_syncer(
                layer, self._substrates[scheme], resources,
                self._backend_context)
        scheduler = self._make_scheduler()
        sampler = None
        if self._train_shards is not None:
            shard_x, _ = self._train_shards[worker_id]
            sampler = BatchSampler(
                num_samples=shard_x.shape[0],
                batch_size=self.training.batch_size,
                seed=self.training.seed + worker_id,
            )
        return _WorkerRuntime(worker_id, network, syncers, scheduler, sampler,
                              resources)

    def _make_scheduler(self) -> WFBPScheduler:
        if self.deterministic and self.schedule is ScheduleMode.WFBP:
            return DeterministicScheduler()
        return WFBPScheduler(mode=self.schedule, num_threads=2)

    # -- batch access ----------------------------------------------------------------
    def _batch(self, iteration: int, worker_id: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._external_provider is not None:
            return self._external_provider(iteration, worker_id)
        assert self._train_shards is not None
        runtime = self._workers[worker_id]
        assert runtime.sampler is not None
        indices = runtime.sampler.next_batch()
        shard_x, shard_y = self._train_shards[worker_id]
        return shard_x[indices], shard_y[indices]

    # -- training ---------------------------------------------------------------------
    def train(self, iterations: Optional[int] = None) -> TrainingHistory:
        """Run the distributed training loop and return its history.

        Under ``recovery="restart"`` the loop is supervised: an implicit
        step-0 checkpoint is taken before any thread starts (plus periodic
        ones every ``checkpoint_interval`` iterations), and when a worker
        dies the run restores every replica, substrate and sampler from
        the latest checkpoint and replays from its step.  Because crashes
        fire exactly once and injection never touches numerics, the
        recovered run's parameters are bit-identical to a fault-free run
        under ``deterministic=True``.  Under ``recovery="drop"`` the dead
        worker is excised instead: the survivors renormalize aggregation
        to a P-1 mean and finish without it.

        A trainer trains once: its worker schedulers are shut down when the
        loop ends, so a second call raises :class:`TrainingError`.
        """
        if any(runtime.scheduler.retired for runtime in self._workers):
            raise TrainingError(
                "DistributedTrainer.train() has already run and its worker "
                "schedulers are shut down; build a new trainer to train again")
        iterations = iterations if iterations is not None else self.training.iterations
        history = TrainingHistory(
            mode=self.mode, num_workers=self.num_workers, iterations=iterations,
            policy=str(self.policy))
        if iterations == 0:
            return history
        per_worker_losses: List[List[float]] = [[] for _ in range(self.num_workers)]
        eval_records: List[Tuple[int, float]] = []

        if self.recovery == "restart":
            self._take_checkpoint(0)
            if self.checkpoint_interval and not self.policy.relaxed_consistency \
                    and not self.policy.averages_parameters:
                interval = self.checkpoint_interval

                def _barrier_checkpoint() -> None:
                    # Runs in the last arriver's thread while every other
                    # worker is parked inside the barrier: a consistent cut.
                    completed = self.bsp.iterations_completed + 1
                    if completed % interval == 0 and completed < iterations:
                        self._take_checkpoint(completed)

                self.bsp.on_release = _barrier_checkpoint

        start = 0
        try:
            while True:
                self._run_attempt(start, iterations, per_worker_losses,
                                  eval_records)
                if not self._errors:
                    break
                failure = self._primary_failure()
                if (self.recovery != "restart"
                        or not isinstance(failure, WorkerFailure)
                        or self._checkpoint is None):
                    raise TrainingError(
                        f"distributed training failed: {self._errors[0]}"
                    ) from self._errors[0]
                self.recoveries += 1
                if self.recoveries > self._max_recoveries():
                    raise RecoveryError(
                        f"gave up after {self.recoveries - 1} restart attempts; "
                        f"last failure: {failure}") from failure
                self._restore_from_checkpoint(per_worker_losses, eval_records)
                self._errors = []
                start = self._checkpoint.step
        finally:
            # The checkpoint callback closes over ``self``; left installed
            # it would keep trainer -> bsp -> callback -> trainer alive.
            self.bsp.on_release = None

        history.per_worker_losses = per_worker_losses
        # Mean over the workers that reached iteration t -- ragged under
        # drop-dead-worker recovery, rectangular otherwise.
        history.losses = []
        for t in range(iterations):
            values = [losses[t] for losses in per_worker_losses
                      if len(losses) > t]
            history.losses.append(
                float(np.mean(values)) if values else float("nan"))
        history.test_errors = sorted(eval_records)
        for runtime in self._workers:
            for syncer in runtime.syncers.values():
                history.bytes_sent += syncer.stats.bytes_sent
                history.bytes_received += syncer.stats.bytes_received
        return history

    def _run_attempt(self, start: int, iterations: int,
                     per_worker_losses: List[List[float]],
                     eval_records: List[Tuple[int, float]]) -> None:
        """One supervised run of the worker loops from ``start``."""
        if self.deterministic and self.policy.relaxed_consistency:
            # Relaxed policies are nondeterministic precisely because their
            # workers interleave freely; a serialized round-robin schedule
            # is the reproducible representative of that interleaving.
            self._serialized_loop(start, iterations, per_worker_losses,
                                  eval_records)
        else:
            threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(worker_id, start, iterations, per_worker_losses,
                          eval_records),
                    name=f"worker-{worker_id}",
                    daemon=True,
                )
                for worker_id in range(self.num_workers)
                if worker_id not in self._dropped_workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    def _worker_loop(self, worker_id: int, start: int, iterations: int,
                     per_worker_losses: List[List[float]],
                     eval_records: List[Tuple[int, float]]) -> None:
        runtime = self._workers[worker_id]
        try:
            for step in range(start, iterations):
                self._worker_step(worker_id, step, per_worker_losses,
                                  eval_records)
                self._end_of_step(worker_id)
        except WorkerFailure as exc:
            if (self.recovery == "drop" and not exc.cascade
                    and exc.worker_id == worker_id):
                # This worker died: excise it so the survivors renormalize
                # to a P-1 mean instead of waiting for the ghost.
                self._drop_worker(worker_id)
            else:
                self._record_failure(worker_id, exc)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            self._record_failure(worker_id, exc)
        finally:
            runtime.scheduler.shutdown()

    def _serialized_loop(self, start: int, iterations: int,
                         per_worker_losses: List[List[float]],
                         eval_records: List[Tuple[int, float]]) -> None:
        """Deterministic driver for relaxed policies: round-robin steps.

        Worker 0 runs step ``t``, then worker 1, ... -- one fixed
        serialization of the asynchronous schedule.  Each worker's clock
        still advances through the policy gate, so the SSP invariant is
        exercised (and never blocks: the round-robin lag is at most 1).
        Restart checkpoints are cut between rounds, where no worker has
        anything in flight.
        """
        try:
            for step in range(start, iterations):
                for worker_id in range(self.num_workers):
                    self._worker_step(worker_id, step, per_worker_losses,
                                      eval_records)
                    self._end_of_step(worker_id)
                if (self.recovery == "restart" and self.checkpoint_interval
                        and (step + 1) % self.checkpoint_interval == 0
                        and step + 1 < iterations):
                    self._take_checkpoint(step + 1)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            with self._error_lock:
                self._errors.append(exc)
        finally:
            for runtime in self._workers:
                runtime.scheduler.shutdown()

    def _record_failure(self, worker_id: int, exc: BaseException) -> None:
        """Collect a worker's failure and fan the abort out to its peers."""
        with self._error_lock:
            self._errors.append(exc)
        if self._detector is None:
            return
        if isinstance(exc, WorkerFailure) and exc.cascade:
            return  # secondary: somebody already ran the fan-out
        self._detector.mark_dead(worker_id, exc)

    def _worker_step(self, worker_id: int, step: int,
                     per_worker_losses: List[List[float]],
                     eval_records: List[Tuple[int, float]]) -> None:
        """One iteration of Algorithm 2 at one worker (no end-of-step gate)."""
        runtime = self._workers[worker_id]
        if self._injector is not None:
            # Crash-at-step-start: a dying worker contributed nothing this
            # iteration, so nobody has to unwind a partial push.
            self._injector.begin_step(worker_id, step)
        self.bsp.reset_worker(worker_id)
        images, labels = self._batch(step, worker_id)

        # Bucketed wire granularity: per-layer jobs of bucketable schemes
        # accumulate and flush as combined scheduler jobs the moment the
        # bucket fills during backprop, so flushes still overlap with the
        # remaining backward pass.  Bucket membership is by dense gradient
        # bytes in reverse layer order -- the same greedy partition the
        # simulators apply via bucket_workload.
        bucketer = (GradientBucketer(self.bucket_bytes, runtime.scheduler)
                    if self.bucket_bytes is not None else None)

        def hook(_index: int, layer) -> None:
            if not layer.has_parameters:
                return
            syncer = runtime.syncers[layer.name]

            def job(syncer=syncer, layer_name=layer.name) -> None:
                self._sync_layer(syncer, worker_id, step)
                self.bsp.mark_done(worker_id, layer_name)

            if bucketer is None:
                runtime.scheduler.schedule(job)
                return
            scheme = self.assignment.scheme_for(layer.name)
            nbytes = sum(int(p.nbytes) for p in layer.params.values())
            bucketer.add(nbytes, job,
                         bucketable=get_backend(scheme).compressible)

        loss = runtime.network.train_step(images, labels, hook=hook)
        if bucketer is not None:
            bucketer.finish()
        runtime.scheduler.wait_all(timeout=self.sync_timeout)
        self.bsp.wait_worker(worker_id, timeout=self.sync_timeout)
        per_worker_losses[worker_id].append(loss)

        if (self.eval_every and self.test_data is not None and worker_id == 0
                and (step + 1) % self.eval_every == 0):
            _, error = runtime.network.evaluate(*self.test_data)
            eval_records.append((step + 1, error))

    def _end_of_step(self, worker_id: int) -> None:
        """The policy gate that replaced the unconditional BSP barrier.

        BSP and its degenerate equivalents (ssp(0), local_sgd(1)) keep the
        classic barrier -- the exact pre-policy code path, so they stay
        bit-identical to it.  Relaxed policies advance the per-worker SSP
        clock, which blocks only a worker more than ``s`` iterations ahead
        of the slowest (never, for async).  Local SGD with H > 1 has no
        per-iteration gate: its H-periodic averaging round is the
        rendezvous.
        """
        if self.clock is not None:
            self.clock.advance(worker_id)
        elif not self.policy.averages_parameters:
            self.bsp.barrier(worker_id, timeout=self.sync_timeout)

    def _sync_layer(self, syncer: Syncer, worker_id: int, step: int) -> None:
        """One layer sync, with bounded retry for injected transient faults.

        Transients fire *before* the syncer touches any substrate
        (fail-before-send), so a retry replays the identical bytes.
        Exhausting the retry budget escalates to a fatal
        :class:`WorkerFailure`, which recovery then handles like a crash.
        """
        if self._injector is None:
            syncer.sync(step)
            return
        attempts = 0
        while True:
            try:
                self._injector.before_sync(worker_id, step)
                syncer.sync(step)
                return
            except TransientFault as exc:
                attempts += 1
                if attempts > self.retry_limit:
                    raise WorkerFailure(
                        f"worker {worker_id} exhausted {self.retry_limit} "
                        f"sync retries at iteration {step}: {exc}",
                        worker_id=worker_id, iteration=step) from exc
                time.sleep(self.retry_backoff * (2 ** (attempts - 1)))

    # -- checkpointing and recovery ---------------------------------------------------
    def _take_checkpoint(self, step: int) -> None:
        """Snapshot the whole job at a quiescent step boundary."""
        substrate_snapshots: Dict[str, Any] = {
            scheme: substrate.checkpoint(include_optimizer=True)
            for scheme, substrate in self._substrates.items()}
        self._checkpoint = TrainerCheckpoint(
            step=step,
            replica_states=[r.network.get_state() for r in self._workers],
            optimizer_states=[r.resources.local_optimizer.get_state()
                              for r in self._workers],
            compressor_states=[
                r.resources.compressor.get_state()
                if r.resources.compressor is not None else {}
                for r in self._workers],
            sampler_states=[r.sampler.get_state() if r.sampler is not None
                            else None for r in self._workers],
            substrate_snapshots=substrate_snapshots,
            clock_snapshot=(self.clock.snapshot()
                            if self.clock is not None else None),
        )

    def _restore_from_checkpoint(self, per_worker_losses: List[List[float]],
                                 eval_records: List[Tuple[int, float]]) -> None:
        """Rewind every replica, substrate and sampler to the checkpoint."""
        ckpt = self._checkpoint
        if ckpt is None:
            raise RecoveryError("no checkpoint to restore from")
        for runtime in self._workers:
            worker_id = runtime.worker_id
            runtime.network.set_state(ckpt.replica_states[worker_id])
            runtime.resources.local_optimizer.set_state(
                ckpt.optimizer_states[worker_id])
            if runtime.resources.compressor is not None:
                runtime.resources.compressor.set_state(
                    ckpt.compressor_states[worker_id])
            if (runtime.sampler is not None
                    and ckpt.sampler_states[worker_id] is not None):
                runtime.sampler.set_state(ckpt.sampler_states[worker_id])
            runtime.scheduler = self._make_scheduler()
        for scheme, snapshot in ckpt.substrate_snapshots.items():
            self._substrates[scheme].restore(snapshot)
        if self.clock is not None and ckpt.clock_snapshot is not None:
            self.clock.restore(ckpt.clock_snapshot)
        self.bsp.reset()
        self.bsp.iterations_completed = ckpt.step
        if self._detector is not None:
            self._detector.revive_all()
        for losses in per_worker_losses:
            del losses[ckpt.step:]
        eval_records[:] = [record for record in eval_records
                           if record[0] <= ckpt.step]

    def _primary_failure(self) -> Optional[BaseException]:
        """The root-cause failure of an attempt (cascades are secondary)."""
        fallback: Optional[BaseException] = None
        with self._error_lock:
            errors = list(self._errors)
        for exc in errors:
            if isinstance(exc, WorkerFailure):
                if not exc.cascade:
                    return exc
                fallback = fallback or exc
        if fallback is not None:
            return fallback
        return errors[0] if errors else None

    def _max_recoveries(self) -> int:
        """Restart budget: one per scheduled crash plus slack for cascades."""
        scheduled = len(self.fault_plan.crashes) if self.fault_plan else 0
        return scheduled + 2

    def _drop_worker(self, worker_id: int) -> None:
        """Excise a dead worker; survivors renormalize to a P-1 mean."""
        self._dropped_workers.add(worker_id)
        for primitive in self._rendezvous():
            primitive.remove_worker(worker_id)

    # -- post-training access -------------------------------------------------------
    def replica(self, worker_id: int) -> Network:
        """The model replica of one worker (e.g. for evaluation)."""
        return self._replicas[worker_id]
