"""Tests for BSP consistency control and the WFBP scheduler."""

import threading
import time

import pytest

from repro.config import ScheduleMode
from repro.core.consistency import BSPController
from repro.core.wfbp import WFBPScheduler
from repro.exceptions import TrainingError


class TestBSPController:
    def test_wait_returns_when_all_syncers_done(self):
        controller = BSPController(num_workers=1, syncer_names=["a", "b"])
        controller.reset_worker(0)
        controller.mark_done(0, "a")
        controller.mark_done(0, "b")
        controller.wait_worker(0, timeout=1.0)

    def test_wait_times_out_when_syncer_missing(self):
        controller = BSPController(num_workers=1, syncer_names=["a", "b"])
        controller.reset_worker(0)
        controller.mark_done(0, "a")
        with pytest.raises(TrainingError, match="b"):
            controller.wait_worker(0, timeout=0.05)

    def test_pending_lists_unfinished_syncers(self):
        controller = BSPController(num_workers=1, syncer_names=["a", "b", "c"])
        controller.reset_worker(0)
        controller.mark_done(0, "b")
        assert controller.pending(0) == ["a", "c"]

    def test_unknown_syncer_rejected(self):
        controller = BSPController(num_workers=1, syncer_names=["a"])
        with pytest.raises(TrainingError):
            controller.mark_done(0, "zzz")

    def test_reset_clears_vector(self):
        controller = BSPController(num_workers=1, syncer_names=["a"])
        controller.reset_worker(0)
        controller.mark_done(0, "a")
        controller.reset_worker(0)
        assert controller.pending(0) == ["a"]

    def test_barrier_synchronises_workers(self):
        controller = BSPController(num_workers=3, syncer_names=["a"])
        release_times = []

        def worker(delay):
            time.sleep(delay)
            controller.barrier(0, timeout=5.0)
            release_times.append(time.monotonic())

        threads = [threading.Thread(target=worker, args=(d,))
                   for d in (0.0, 0.05, 0.1)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert controller.iterations_completed == 1
        # Nobody passes the barrier before the slowest worker arrives.
        assert min(release_times) - start >= 0.09

    def test_invalid_construction(self):
        with pytest.raises(TrainingError):
            BSPController(num_workers=0, syncer_names=["a"])
        with pytest.raises(TrainingError):
            BSPController(num_workers=1, syncer_names=[])


class TestWFBPScheduler:
    def test_wfbp_jobs_run_concurrently_with_caller(self):
        scheduler = WFBPScheduler(mode=ScheduleMode.WFBP, num_threads=2)
        started = threading.Event()
        release = threading.Event()

        def job():
            started.set()
            release.wait(timeout=5.0)
            return "done"

        scheduler.schedule(job)
        # The job starts while the "compute" thread is still free to proceed.
        assert started.wait(timeout=2.0)
        release.set()
        assert scheduler.wait_all() == ["done"]
        scheduler.shutdown()

    def test_sequential_jobs_deferred_until_wait(self):
        scheduler = WFBPScheduler(mode=ScheduleMode.SEQUENTIAL)
        executed = []
        scheduler.schedule(lambda: executed.append(1))
        scheduler.schedule(lambda: executed.append(2))
        assert executed == []
        scheduler.wait_all()
        assert executed == [1, 2]

    def test_wait_all_propagates_job_errors(self):
        scheduler = WFBPScheduler(mode=ScheduleMode.WFBP, num_threads=1)

        def bad_job():
            raise ValueError("sync exploded")

        scheduler.schedule(bad_job)
        with pytest.raises(TrainingError, match="sync exploded"):
            scheduler.wait_all()
        scheduler.shutdown()

    def test_jobs_scheduled_counter(self):
        scheduler = WFBPScheduler(mode=ScheduleMode.SEQUENTIAL)
        for _ in range(5):
            scheduler.schedule(lambda: None)
        assert scheduler.jobs_scheduled == 5
        scheduler.wait_all()

    def test_context_manager_shuts_down(self):
        with WFBPScheduler(mode=ScheduleMode.WFBP, num_threads=1) as scheduler:
            scheduler.schedule(lambda: 42)
            assert scheduler.wait_all() == [42]
        assert scheduler._executor is None

    @pytest.mark.parametrize("mode", list(ScheduleMode))
    def test_schedule_after_shutdown_raises_typed_error(self, mode):
        scheduler = WFBPScheduler(mode=mode, num_threads=1)
        assert not scheduler.retired
        scheduler.shutdown()
        assert scheduler.retired
        with pytest.raises(TrainingError, match="shut down"):
            scheduler.schedule(lambda: None)
        assert scheduler.jobs_scheduled == 0

    def test_invalid_thread_count(self):
        with pytest.raises(TrainingError):
            WFBPScheduler(num_threads=0)

    def test_wfbp_overlap_is_faster_than_sequential(self):
        """With 2 sync threads, two 50 ms jobs overlap under WFBP."""
        def job():
            time.sleep(0.05)

        start = time.monotonic()
        with WFBPScheduler(mode=ScheduleMode.WFBP, num_threads=2) as scheduler:
            scheduler.schedule(job)
            scheduler.schedule(job)
            scheduler.wait_all()
        wfbp_elapsed = time.monotonic() - start

        start = time.monotonic()
        sequential = WFBPScheduler(mode=ScheduleMode.SEQUENTIAL)
        sequential.schedule(job)
        sequential.schedule(job)
        sequential.wait_all()
        sequential_elapsed = time.monotonic() - start
        assert wfbp_elapsed < sequential_elapsed
