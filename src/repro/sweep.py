"""Process-parallel execution of independent simulation configs.

Every figure of the paper's evaluation is a sweep over independent
(model, system, nodes, bandwidth) configurations, each of which runs a
self-contained discrete-event simulation.  This module provides the
engine underneath :mod:`repro.experiments.figure`: a sweep is a list of
:class:`SweepTask` objects -- a hashable config key plus a picklable
callable spec -- executed either serially or over a
:class:`~concurrent.futures.ProcessPoolExecutor`, with results merged
back **by config key in task order** so the output is byte-identical
regardless of worker count or completion order.

Determinism contract:

* Task keys must be unique within a sweep (:func:`run_sweep` raises on
  duplicates rather than silently overwriting a result).
* The returned mapping iterates in the order tasks were submitted, never
  in completion order.
* A task failure raises the original exception in the caller for both
  the serial and the parallel path.

The module-level default worker count is ``1`` (serial) so library
callers are unaffected unless they, or the experiment runner's
``--jobs`` flag, opt in via :func:`set_default_jobs` / :func:`use_jobs`.

Tasks should ship (or memoize) their config-independent derivations: the
simulation layers cache workload derivation by (model, batch, gpu,
coarsen) and resolved plans by (workload, system, cluster with the
bandwidth normalised away), and those caches are per-process, so both
the serial path and every pool worker pay each derivation at most once
per sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Sequence, Tuple

from repro.logging_util import get_logger

LOGGER = get_logger(__name__)

#: Module-level default for ``jobs=None`` call sites (1 = serial).
_DEFAULT_JOBS: int = 1


@dataclass(frozen=True)
class SweepTask:
    """One independent configuration of a sweep.

    A task is a *description* -- nothing runs until :func:`run_sweep`
    executes it (possibly in a worker process, hence the picklability
    requirement on ``fn``):

        >>> from repro.sweep import SweepTask
        >>> task = SweepTask(key=("pow", 10), fn=pow, args=(2, 10))
        >>> task.run()
        1024

    Attributes:
        key: hashable identifier of the configuration; results are merged
            by this key, so it must be unique within one sweep.
        fn: a picklable (module-level) callable computing the result.
        args: positional arguments for ``fn``.
        kwargs: keyword arguments for ``fn``.
    """

    key: Hashable
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Execute the task in the current process."""
        return self.fn(*self.args, **self.kwargs)


def _execute_task(task: SweepTask) -> Tuple[Hashable, Any]:
    """Worker-side entry point: run one task and tag the result with its key."""
    return task.key, task.run()


def default_jobs() -> int:
    """The worker count used when ``jobs`` is not given explicitly."""
    return _DEFAULT_JOBS


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the module-level default worker count.

    ``None`` or a non-positive value selects one worker per CPU core.
    """
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = resolve_jobs(jobs if jobs is not None else 0)


@contextmanager
def use_jobs(jobs: Optional[int]) -> Iterator[int]:
    """Temporarily set the default worker count (restored on exit).

    The experiment runner wraps a whole report generation in this so one
    ``--jobs`` flag reaches every nested sweep:

        >>> from repro.sweep import default_jobs, use_jobs
        >>> with use_jobs(4):
        ...     default_jobs()
        4
        >>> default_jobs()
        1
    """
    global _DEFAULT_JOBS
    previous = _DEFAULT_JOBS
    set_default_jobs(jobs)
    try:
        yield _DEFAULT_JOBS
    finally:
        _DEFAULT_JOBS = previous


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count.

    ``None`` defers to the module default; ``0`` or negative values select
    one worker per CPU core.
    """
    if jobs is None:
        return _DEFAULT_JOBS
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def _check_unique_keys(tasks: Sequence[SweepTask]) -> None:
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate sweep key {task.key!r}; results would "
                             f"be merged ambiguously")
        seen.add(task.key)


def _run_serial(tasks: Sequence[SweepTask]) -> Dict[Hashable, Any]:
    return {task.key: task.run() for task in tasks}


def _pool_context():
    """Prefer fork (cheap, inherits loaded modules); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class _PoolUnavailable(Exception):
    """Internal: the pool itself (not a task) failed; fall back to serial."""


def _run_pool(tasks: Sequence[SweepTask], jobs: int) -> Dict[Hashable, Any]:
    """Execute over a process pool; results keyed, then re-ordered by task order.

    Task exceptions propagate as themselves; only failures of the pool
    machinery (creation, submission, broken workers) raise
    :class:`_PoolUnavailable` so the caller can distinguish them from a
    task legitimately raising e.g. an ``OSError``.
    """
    workers = min(jobs, len(tasks))
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_pool_context())
    except (OSError, ImportError) as exc:
        raise _PoolUnavailable(str(exc)) from exc
    with pool:
        try:
            futures = [pool.submit(_execute_task, task) for task in tasks]
        except (OSError, RuntimeError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
        by_key: Dict[Hashable, Any] = {}
        for future in futures:
            try:
                key, result = future.result()
            except BrokenExecutor as exc:
                raise _PoolUnavailable(str(exc)) from exc
            by_key[key] = result
    # Merge deterministically: iterate submitted task order, not completion
    # order, so the caller sees the same mapping the serial path produces.
    return {task.key: by_key[task.key] for task in tasks}


def run_sweep(tasks: Sequence[SweepTask],
              jobs: Optional[int] = None) -> Dict[Hashable, Any]:
    """Execute every task and return ``{task.key: result}`` in task order.

    The determinism contract: the result mapping is identical whatever
    ``jobs`` is -- same keys, same values, same iteration order --

        >>> from repro.sweep import SweepTask, run_sweep
        >>> tasks = [SweepTask(key=n, fn=pow, args=(2, n)) for n in (3, 5, 8)]
        >>> run_sweep(tasks)
        {3: 8, 5: 32, 8: 256}
        >>> run_sweep(tasks, jobs=4) == run_sweep(tasks, jobs=1)
        True

    Args:
        tasks: the sweep's configurations; keys must be unique.
        jobs: worker processes; ``None`` defers to the module default
            (serial unless changed), non-positive means one per CPU core.
            With ``jobs == 1``, a single task, or an unavailable process
            pool, tasks run serially in-process.

    Raises:
        ValueError: on duplicate task keys.
        Exception: the first task failure, re-raised in the caller.
    """
    tasks = list(tasks)
    _check_unique_keys(tasks)
    if not tasks:
        return {}
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(tasks) == 1:
        return _run_serial(tasks)
    try:
        return _run_pool(tasks, jobs)
    except _PoolUnavailable as exc:
        # Sandboxes without /dev/shm or fork support land here; the sweep
        # result is identical either way, only slower.  A task raising its
        # own exception is NOT caught: it propagates directly per the
        # module contract.
        LOGGER.warning("process pool unavailable (%s); running %d sweep "
                       "tasks serially", exc, len(tasks))
        return _run_serial(tasks)


__all__ = [
    "SweepTask",
    "default_jobs",
    "resolve_jobs",
    "run_sweep",
    "set_default_jobs",
    "use_jobs",
]
