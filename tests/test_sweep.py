"""Tests for the parallel sweep runner.

Covers the generic engine (`repro.sweep`), the simulation-layer sweeps,
the figure driver's keyed merge and the headline determinism property: a
report produced with a process pool is byte-identical to the sequential
one, including when there are more workers than configs.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.config import CAFFE_WFBP, POSEIDON_CAFFE, ClusterConfig
from repro.experiments.fig_backends import backend_systems
from repro.experiments.figure import Figure, Key, render
from repro.experiments.figures import FIG5, FIG8
from repro.experiments.runner import run_experiments
from repro.nn.model_zoo import get_model_spec
from repro.simulation import speedup
from repro.simulation.throughput import IterationSimulator, simulate_system
from repro.sweep import (
    SweepTask,
    default_jobs,
    resolve_jobs,
    run_sweep,
    set_default_jobs,
    use_jobs,
)
from repro.simulation.speedup import compare_systems, scaling_curve


def _square(x):
    return x * x


def _affine(x, scale=1, offset=0):
    return x * scale + offset


def _boom(x):
    raise RuntimeError(f"task {x} failed")


def _boom_oserror(x):
    raise FileNotFoundError(f"no such config {x}")


def _make_tasks(count, fn=_square):
    return [SweepTask(key=("t", i), fn=fn, args=(i,)) for i in range(count)]


class TestRunSweep:
    def test_serial_results_keyed_and_ordered(self):
        results = run_sweep(_make_tasks(5), jobs=1)
        assert list(results) == [("t", i) for i in range(5)]
        assert results[("t", 3)] == 9

    def test_parallel_matches_serial(self):
        serial = run_sweep(_make_tasks(7), jobs=1)
        parallel = run_sweep(_make_tasks(7), jobs=4)
        assert list(serial) == list(parallel)
        assert serial == parallel

    def test_more_workers_than_tasks(self):
        results = run_sweep(_make_tasks(3), jobs=32)
        assert results == {("t", i): i * i for i in range(3)}

    def test_kwargs_forwarded(self):
        tasks = [SweepTask(key=i, fn=_affine, args=(i,),
                           kwargs={"scale": 10, "offset": 1}) for i in range(3)]
        assert run_sweep(tasks, jobs=2) == {0: 1, 1: 11, 2: 21}

    def test_empty_sweep(self):
        assert run_sweep([], jobs=4) == {}

    def test_duplicate_keys_rejected(self):
        tasks = [SweepTask(key="same", fn=_square, args=(1,)),
                 SweepTask(key="same", fn=_square, args=(2,))]
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(tasks, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_task_failure_propagates(self, jobs):
        tasks = _make_tasks(2) + [SweepTask(key="bad", fn=_boom, args=(9,))]
        with pytest.raises(RuntimeError, match="task 9 failed"):
            run_sweep(tasks, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_task_oserror_not_mistaken_for_broken_pool(self, jobs):
        """An OSError raised *by a task* must propagate as-is, not trigger
        the pool-unavailable serial fallback (which would re-run the
        whole sweep and mislabel the failure)."""
        tasks = [SweepTask(key="bad", fn=_boom_oserror, args=(3,)),
                 *_make_tasks(2)]
        with pytest.raises(FileNotFoundError, match="no such config 3"):
            run_sweep(tasks, jobs=jobs)


class TestJobsResolution:
    def test_default_is_serial(self):
        assert default_jobs() == 1

    def test_explicit_jobs_win(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_use_jobs_restores_previous_default(self):
        before = default_jobs()
        with use_jobs(5):
            assert default_jobs() == 5
            with use_jobs(2):
                assert default_jobs() == 2
            assert default_jobs() == 5
        assert default_jobs() == before

    def test_set_default_jobs_roundtrip(self):
        before = default_jobs()
        try:
            set_default_jobs(7)
            assert default_jobs() == 7
            assert resolve_jobs(None) == 7
        finally:
            set_default_jobs(before)


class TestSpeedupSweeps:
    """The simulation-layer entry points give identical curves either way."""

    def test_scaling_curve_parallel_matches_serial(self, googlenet_spec):
        serial = scaling_curve(googlenet_spec, POSEIDON_CAFFE,
                               node_counts=(1, 4, 8), jobs=1)
        parallel = scaling_curve(googlenet_spec, POSEIDON_CAFFE,
                                 node_counts=(1, 4, 8), jobs=4)
        assert serial.node_counts == parallel.node_counts
        assert serial.speedups == parallel.speedups

    def test_compare_systems_parallel_matches_serial(self, googlenet_spec):
        systems = (CAFFE_WFBP, POSEIDON_CAFFE)
        serial = compare_systems(googlenet_spec, systems,
                                 node_counts=(1, 4), jobs=1)
        parallel = compare_systems(googlenet_spec, systems,
                                   node_counts=(1, 4), jobs=4)
        assert list(serial) == list(parallel)
        for name in serial:
            assert serial[name].speedups == parallel[name].speedups

    def test_figure_points_keyed_in_axis_order(self):
        systems = (CAFFE_WFBP, POSEIDON_CAFFE)
        figure = Figure(models=("googlenet",), systems=systems, nodes=(1, 4),
                        layout=())
        points = figure.run(jobs=2)
        assert list(points) == [Key("GoogLeNet", system.name, 40.0, None, nodes)
                                for system in systems for nodes in (1, 4)]
        for key, point in points.items():
            assert point.result.system_name == key.system
            assert point.cluster.num_workers == key.nodes


class TestOneRunPerSimulationIdentity:
    """A sweep runs each distinct simulation once: a point whose identity
    (engine, workload, plan contents, system fields but the name, cluster)
    another point has gets a relabelled copy of that run's result."""

    NODES = (2, 8, 32)

    @pytest.mark.parametrize("engine", ["des", "fluid"])
    @pytest.mark.parametrize("model_key", ["vgg19", "googlenet", "nanogpt-12l"])
    def test_every_point_equals_its_own_simulation(self, model_key, engine):
        model = get_model_spec(model_key)
        systems = backend_systems()
        alone = {
            (system.name, nodes): simulate_system(
                model, system,
                ClusterConfig(num_workers=nodes, bandwidth_gbps=10.0),
                engine=engine)
            for system in systems for nodes in self.NODES}
        for jobs in (1, 2):
            curves = compare_systems(model, systems, node_counts=self.NODES,
                                     bandwidth_gbps=10.0, jobs=jobs,
                                     engine=engine)
            assert list(curves) == [system.name for system in systems]
            for name, curve in curves.items():
                for nodes, result in zip(self.NODES, curve.results):
                    assert result == alone[name, nodes], (name, nodes, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_vgg19_runs_twelve_simulations_for_fourteen_points(
            self, monkeypatch, vgg19_spec, jobs):
        """HybComm puts every VGG19 FC layer on SFB at 8 and 32 nodes, so
        its two points share SFB's runs; a second call runs them again."""
        dispatched = []

        def counting(tasks, jobs=None):
            dispatched.append(len(tasks))
            return run_sweep(tasks, jobs=jobs)

        monkeypatch.setattr(speedup, "run_sweep", counting)
        for _ in range(2):
            curves = compare_systems(vgg19_spec, backend_systems(),
                                     node_counts=(8, 32), bandwidth_gbps=10.0,
                                     jobs=jobs, engine="des")
            assert sum(len(curve.results) for curve in curves.values()) == 14
        assert dispatched == [12, 12]
        hybrid, sfb = curves["HybComm"].results, curves["SFB"].results
        assert [r.system_name for r in hybrid] == ["HybComm"] * 2
        assert [replace(r, system_name="SFB") for r in hybrid] == sfb
        assert hybrid[0].scheme_by_unit is not sfb[0].scheme_by_unit

    def test_a_second_call_simulates_again(self, vgg19_spec):
        runs = mock.patch.object(IterationSimulator, "run", autospec=True,
                                 side_effect=IterationSimulator.run)
        with runs as run:
            for _ in range(2):
                compare_systems(vgg19_spec, backend_systems(),
                                node_counts=(8, 32), bandwidth_gbps=10.0,
                                jobs=1, engine="des")
        assert run.call_count == 24


class TestFigureDeterminism:
    """Figure-level and report-level byte-identity across worker counts."""

    @staticmethod
    def rendered(figure, jobs):
        figure = replace(figure, nodes=(1, 4))
        return render(figure.layout, figure.run(jobs=jobs))

    def test_fig5_render_identical(self):
        assert self.rendered(FIG5, 1) == self.rendered(FIG5, 4)

    def test_fig8_render_identical(self):
        assert self.rendered(FIG8, 1) == self.rendered(FIG8, 4)

    def test_quick_report_byte_identical_across_jobs(self):
        """The acceptance check: --quick fig5 fig8 fidelity, jobs 1 vs 4."""
        names = ["fig5", "fig8", "fidelity"]
        sequential = run_experiments(names, quick=True, jobs=1)
        parallel = run_experiments(names, quick=True, jobs=4)
        assert sequential == parallel

    def test_report_identical_with_more_workers_than_configs(self):
        """jobs far above the config count changes nothing."""
        sequential = run_experiments(["fig9"], quick=True, jobs=1)
        oversubscribed = run_experiments(["fig9"], quick=True, jobs=64)
        assert sequential == oversubscribed
