"""Wait-free backpropagation (WFBP) scheduling.

WFBP overlaps communication with computation by starting a layer's
synchronization "once its gradients are generated after [its backward
pass]", instead of waiting for the whole backward pass to finish (Section
3.1, Algorithm 2).  :class:`WFBPScheduler` is the client library's thread
pool: syncer jobs are scheduled onto it as each layer's backward pass
completes, and the trainer waits for all of them before starting the next
iteration (``wait_until(sync_count == net.num_layers)`` in Algorithm 2).
Whether it overlaps is the system's :class:`~repro.config.ScheduleMode`,
the vocabulary the trainer and both simulators share.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, List, Optional

from repro.config import ScheduleMode
from repro.exceptions import SyncTimeout, TrainingError, WorkerFailure


class WFBPScheduler:
    """A per-worker pool of synchronization threads.

    In WFBP mode, jobs run on a :class:`ThreadPoolExecutor` so that the
    caller (the worker's compute loop) can keep executing backward passes of
    lower layers while upper layers synchronize.  In sequential mode jobs are
    deferred and executed in submission order when :meth:`wait_all` is called,
    which reproduces the "communication waits for computation" baseline.
    """

    def __init__(self, mode: ScheduleMode = ScheduleMode.WFBP, num_threads: int = 4):
        if num_threads < 1:
            raise TrainingError(f"num_threads must be >= 1, got {num_threads}")
        self.mode = ScheduleMode(mode)
        self.num_threads = int(num_threads)
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.mode is ScheduleMode.WFBP:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="poseidon-sync"
            )
        self._futures: List[Future] = []
        self._deferred: List[Callable[[], Any]] = []
        #: Set by :meth:`shutdown`; a retired scheduler takes no more jobs.
        self.retired = False
        self.jobs_scheduled = 0

    def schedule(self, job: Callable[[], Any]) -> Optional[Future]:
        """Queue one syncer job (Algorithm 2, line 7).

        Returns the future in WFBP mode, ``None`` in sequential mode (the job
        has merely been deferred).

        Raises:
            TrainingError: if the scheduler has been shut down.
        """
        if self.retired:
            raise TrainingError(
                "cannot schedule a syncer job: this WFBPScheduler has been "
                "shut down (a trainer's schedulers are retired when train() "
                "returns)")
        self.jobs_scheduled += 1
        if self._executor is not None:
            future = self._executor.submit(job)
            self._futures.append(future)
            return future
        self._deferred.append(job)
        return None

    def wait_all(self, timeout: Optional[float] = 120.0) -> List[Any]:
        """Block until every scheduled job has finished; returns their results.

        Raises:
            WorkerFailure: unwrapped, if a job observed a worker failure
                (recovery dispatches on the typed exception).
            SyncTimeout: if a job did not finish within ``timeout`` (a
                suspected dead peer) or timed out internally.
            TrainingError: if a job raised any other exception, with the
                original chained.
        """
        results: List[Any] = []
        if self.mode is ScheduleMode.SEQUENTIAL:
            deferred, self._deferred = self._deferred, []
            for job in deferred:
                results.append(job())
            return results
        futures, self._futures = self._futures, []
        for future in futures:
            try:
                results.append(future.result(timeout=timeout))
            except (WorkerFailure, SyncTimeout):
                # Typed failures carry recovery-relevant identity; the
                # trainer's supervision logic dispatches on them directly.
                raise
            except FutureTimeoutError as exc:
                raise SyncTimeout(
                    f"syncer job did not finish within {timeout}s "
                    f"(suspected dead peer)") from exc
            except Exception as exc:  # noqa: BLE001 - rethrown with context
                raise TrainingError(f"syncer job failed: {exc}") from exc
        return results

    def shutdown(self) -> None:
        """Stop the thread pool and refuse further jobs (idempotent)."""
        self.retired = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WFBPScheduler":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.shutdown()


class DeterministicScheduler(WFBPScheduler):
    """A WFBP pool whose jobs run (and complete) in submission order.

    Communication still overlaps with the backward pass -- jobs execute on
    a pool thread while the compute thread keeps going -- but the pool has
    exactly one thread, so syncer jobs of one worker neither interleave nor
    reorder: the completion-drain order of :meth:`wait_all` is the
    submission order every run.  Combined with worker-id-ordered reductions
    in the aggregation substrates (``ordered=True`` on
    :class:`~repro.comm.parameter_server.ShardedParameterServer` /
    :class:`~repro.comm.adam.AdamSFServer`), this makes the threaded
    trainer bit-reproducible run-to-run.
    """

    def __init__(self) -> None:
        super().__init__(mode=ScheduleMode.WFBP, num_threads=1)
