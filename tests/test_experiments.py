"""Tests for the experiment harness: every table/figure runs and has the
paper's qualitative shape (who wins, roughly by how much, where crossovers
fall); the quick report is pinned byte for byte for every sweep worker
count; the package's import closure stays small."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.comm.backend import CommBackend, register_backend, unregister_backend
from repro.experiments import ablation, fig9, fig11, table1, table3
from repro.experiments.figure import Points, render
from repro.experiments.figures import FIG5, FIG6, FIG7, FIG8, FIG10, MULTIGPU
from repro.experiments.runner import EXPERIMENTS, run_experiments

#: The --quick --jobs 1 report of every runner section but fig11, as
#: recorded before figures became Figure values.
REPORT_QUICK = os.path.join(os.path.dirname(__file__), "data",
                            "report_quick.txt")


def speedup(points, **coords):
    return points.at(**coords).result.speedup


class _Cheapest(CommBackend):
    """A hybrid candidate undercutting PS and SFB on every layer."""

    name = "cheapest"
    hybrid_candidate = True
    hybrid_rank = -1

    def flat_cost(self, m, n, cluster, batch_size):
        return 0.0

    def build_substrate(self, initial_layers, ctx):
        return None

    def make_syncer(self, layer, substrate, resources, ctx, policy=None):
        return None


class TestTable1:
    def test_worked_example_matches_paper(self):
        result = table1.run_table1()
        ps = result.row("PS")
        sfb = result.row("SFB")
        assert ps.worker == pytest.approx(33.6, rel=0.02)
        assert ps.server_and_worker == pytest.approx(58.7, rel=0.01)
        assert sfb.worker == pytest.approx(3.7, rel=0.02)

    def test_best_scheme_is_sfb_for_worked_example(self):
        assert table1.run_table1().best_scheme == "sfb"

    def test_render_mentions_paper_example(self):
        assert "Paper worked example" in table1.render(table1.run_table1())

    def test_decisions_are_algorithm1(self):
        """Table 1 asks Algorithm 1, not PS-vs-SFB: a registered cheaper
        candidate wins."""
        register_backend(_Cheapest())
        try:
            assert table1.run_table1().best_scheme == "cheapest"
            assert "BestScheme choice: CHEAPEST" in table1.report()
        finally:
            unregister_backend("cheapest")


class TestTable3:
    def test_all_models_present(self):
        result = table3.run_table3()
        assert {row.model for row in result.rows} == set(table3.TABLE3_MODEL_KEYS)

    def test_parameter_counts_within_tolerance(self):
        result = table3.run_table3()
        for row in result.rows:
            if row.model in ("GoogLeNet", "Inception-V3"):
                continue  # documented deviations (aux heads / trunk counting)
            reported = row.reported_params_millions
            assert abs(row.params_millions - reported) / reported < 0.05

    def test_render_contains_all_models(self):
        rendering = table3.render(table3.run_table3())
        assert "VGG19-22K" in rendering and "ResNet-152" in rendering


class TestScalingFigures:
    """Figures 5 and 6 at reduced node counts (shape checks only)."""

    @pytest.fixture(scope="class")
    def fig5_points(self):
        return replace(FIG5, nodes=(1, 8, 16)).run()

    @pytest.fixture(scope="class")
    def fig6_points(self):
        return replace(FIG6, nodes=(1, 8, 16)).run()

    def test_fig5_poseidon_beats_ps_baseline(self, fig5_points):
        for model in ("GoogLeNet", "VGG19", "VGG19-22K"):
            poseidon = speedup(fig5_points, model=model,
                               system="Poseidon (Caffe)", nodes=16)
            vanilla = speedup(fig5_points, model=model, system="Caffe+PS",
                              nodes=16)
            assert poseidon > vanilla

    def test_fig5_poseidon_near_linear_at_40gbe(self, fig5_points):
        for model in ("GoogLeNet", "VGG19", "VGG19-22K"):
            assert speedup(fig5_points, model=model, system="Poseidon (Caffe)",
                           nodes=16) > 14.0

    def test_fig5_wfbp_between_ps_and_poseidon(self, fig5_points):
        for model in ("VGG19", "VGG19-22K"):
            ps, wfbp, poseidon = (
                speedup(fig5_points, model=model, system=system, nodes=16)
                for system in ("Caffe+PS", "Caffe+WFBP", "Poseidon (Caffe)"))
            assert ps <= wfbp <= poseidon + 1e-6

    def test_fig6_tf_vgg_fails_to_scale(self, fig6_points):
        """Paper: distributed TF sometimes scales negatively on VGG19-22K."""
        assert speedup(fig6_points, model="VGG19-22K", system="TF",
                       nodes=16) < 6.0

    def test_fig6_poseidon_improves_over_tf(self, fig6_points):
        for model in ("Inception-V3", "VGG19", "VGG19-22K"):
            tf = speedup(fig6_points, model=model, system="TF", nodes=16)
            poseidon = speedup(fig6_points, model=model,
                               system="Poseidon (TF)", nodes=16)
            assert poseidon > tf

    def test_fig6_inception_tf_scales_but_below_poseidon(self, fig6_points):
        tf = speedup(fig6_points, model="Inception-V3", system="TF", nodes=16)
        poseidon = speedup(fig6_points, model="Inception-V3",
                           system="Poseidon (TF)", nodes=16)
        assert 8.0 < tf < poseidon

    def test_renderers_emit_series(self, fig5_points, fig6_points):
        assert "Figure 5" in render(FIG5.layout, fig5_points)
        assert "Figure 6" in render(FIG6.layout, fig6_points)


class TestFig7:
    MODELS = ("Inception-V3", "VGG19", "VGG19-22K")

    @pytest.fixture(scope="class")
    def points(self):
        return FIG7.run()

    @staticmethod
    def stall(points, model, system):
        return points.at(model=model, system=system).result.gpu_stall_fraction

    def test_poseidon_keeps_gpu_busy(self, points):
        for model in self.MODELS:
            assert points.at(model=model, system="Poseidon (TF)") \
                .result.gpu_busy_fraction > 0.9

    def test_tf_wastes_time_on_big_models(self, points):
        assert self.stall(points, "VGG19", "TF") > 0.3
        assert self.stall(points, "VGG19-22K", "TF") > 0.3

    def test_stall_ordering(self, points):
        for model in self.MODELS:
            assert (self.stall(points, model, "TF")
                    >= self.stall(points, model, "TF+WFBP") - 1e-9)
            assert (self.stall(points, model, "TF+WFBP")
                    >= self.stall(points, model, "Poseidon (TF)") - 1e-9)

    def test_render(self, points):
        assert "Stall" in render(FIG7.layout, points)


class TestFig8:
    @pytest.fixture(scope="class")
    def points(self):
        return replace(FIG8, nodes=(1, 8, 16)).run()

    def test_vgg19_10gbe_matches_paper_shape(self, points):
        """Paper: PS-based ~8x on 16 nodes at 10 GbE; Poseidon near linear."""
        wfbp = speedup(points, model="VGG19", system="Caffe+WFBP",
                       bandwidth=10.0, nodes=16)
        poseidon = speedup(points, model="VGG19", system="Poseidon (Caffe)",
                           bandwidth=10.0, nodes=16)
        assert 5.0 <= wfbp <= 11.0
        assert poseidon > 14.0

    def test_higher_bandwidth_closes_the_gap(self, points):
        def gap(bandwidth):
            return (speedup(points, model="VGG19", system="Poseidon (Caffe)",
                            bandwidth=bandwidth, nodes=16)
                    - speedup(points, model="VGG19", system="Caffe+WFBP",
                              bandwidth=bandwidth, nodes=16))
        assert gap(30.0) < gap(10.0)

    def test_googlenet_poseidon_equals_wfbp(self, points):
        """Poseidon reduces to PS for GoogLeNet, so the two systems coincide."""
        for bandwidth in (2.0, 5.0, 10.0):
            wfbp = speedup(points, model="GoogLeNet", system="Caffe+WFBP",
                           bandwidth=bandwidth, nodes=16)
            poseidon = speedup(points, model="GoogLeNet",
                               system="Poseidon (Caffe)", bandwidth=bandwidth,
                               nodes=16)
            assert poseidon == pytest.approx(wfbp, rel=0.05)

    def test_render(self, points):
        assert "Figure 8" in render(FIG8.layout, points)


class TestFig9:
    @pytest.fixture(scope="class")
    def points(self):
        return replace(fig9.FIGURE, nodes=(1, 8, 16, 32)).run()

    def test_poseidon_speedup_near_paper_value(self, points):
        assert speedup(points, system="Poseidon (TF)", nodes=32) > 28.0

    def test_poseidon_beats_tf(self, points):
        assert speedup(points, system="Poseidon (TF)", nodes=32) > \
            speedup(points, system="TF", nodes=32)

    def test_convergence_reaches_target_within_budget(self):
        """The convergence model needs no simulation."""
        for nodes, _, epochs, hours in fig9.convergence(Points(), (16, 32)):
            assert epochs is not None and epochs <= 90
            assert hours is None  # no panel (a) point to time it by

    def test_time_to_accuracy_improves_with_nodes(self, points):
        hours = {nodes: hours for nodes, _, _, hours
                 in fig9.convergence(points, (8, 32))}
        assert hours[32] < hours[8]

    def test_render(self, points):
        assert "Figure 9" in render(fig9.FIGURE.layout, points)


class TestFig10:
    @pytest.fixture(scope="class")
    def points(self):
        return FIG10.run()

    def test_adam_is_imbalanced(self, points):
        assert points.at(system="Adam").imbalance > 2.0

    def test_tf_wfbp_and_poseidon_balanced(self, points):
        assert points.at(system="TF+WFBP").imbalance < 1.1
        assert points.at(system="Poseidon (TF)").imbalance < 1.1

    def test_poseidon_traffic_much_lower_than_dense_ps(self, points):
        assert points.at(system="Poseidon (TF)").result.mean_traffic_gbits < \
            0.4 * points.at(system="TF+WFBP").result.mean_traffic_gbits

    def test_adam_peak_exceeds_poseidon_peak(self, points):
        assert points.at(system="Adam").result.max_traffic_gbits > \
            points.at(system="Poseidon (TF)").result.max_traffic_gbits

    def test_render(self, points):
        assert "Figure 10" in render(FIG10.layout, points)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        # The configuration the --quick report renders (the one section
        # the recorded report leaves out): the deterministic seed-0 runs
        # at 60 iterations, where the quantization gap is already visible.
        return fig11.run_fig11(iterations=60, eval_every=20)

    def test_exact_run_converges(self, result):
        losses = result.histories["Poseidon"].losses
        assert losses[-1] < 0.3 * losses[0]
        assert result.histories["Poseidon"].final_test_error < 0.2

    def test_exact_sync_converges_better_than_quantized(self, result):
        """Figure 11: 1-bit quantization hurts convergence on image data."""
        exact = sum(result.histories["Poseidon"].losses[-10:]) / 10
        quantized = sum(result.histories["Poseidon-1bit"].losses[-10:]) / 10
        assert exact < quantized
        histories = result.histories
        assert (histories["Poseidon"].final_test_error
                < histories["Poseidon-1bit"].final_test_error)

    def test_error_trace_recorded(self, result):
        assert result.histories["Poseidon"].test_errors
        assert result.histories["Poseidon"].final_test_error <= 1.0

    def test_cntk_scaling_below_poseidon(self):
        scaling = fig11.cntk_scaling(node_counts=(8, 16))
        for nodes in (8, 16):
            assert scaling["CNTK-1bit"][nodes] < scaling["Poseidon"][nodes]

    def test_render(self, result):
        assert "Figure 11" in fig11.render(result)


class TestMultiGpuAndAblation:
    @pytest.fixture(scope="class")
    def multigpu(self):
        return replace(MULTIGPU, models=("googlenet",)).run()

    def test_multigpu_linear_on_local_gpus(self, multigpu):
        assert multigpu.at(topology="1x4").gpu_speedup > 3.5

    def test_multigpu_cluster_speedup(self, multigpu):
        assert multigpu.at(topology="4x8").gpu_speedup > 24.0

    def test_ablation_full_system_wins(self):
        points = replace(ablation.FIGURE, nodes=(8,)).run()
        full = speedup(points, system="full poseidon")
        for variant in ("no WFBP", "no HybComm (PS only)",
                        "no WFBP, no HybComm"):
            assert full >= speedup(points, system=variant)


class TestRunner:
    def test_registry_covers_all_artifacts(self):
        assert set(EXPERIMENTS) >= {
            "table1", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "multigpu", "ablation",
        }

    def test_quick_run_of_cheap_experiments(self):
        report = run_experiments(["table1", "table3"], quick=True)
        assert "table1" in report and "Table 3" in report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99"])

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_quick_report_matches_recording(self, jobs):
        """Every section but fig11 (numpy-trained, BLAS-dependent losses;
        tests/test_determinism.py pins those), byte for byte."""
        names = [name for name in EXPERIMENTS if name != "fig11"]
        with open(REPORT_QUICK, encoding="utf-8") as handle:
            recorded = handle.read()
        assert run_experiments(names, quick=True, jobs=jobs) + "\n" == recorded


#: The trainer's modules (a name's first three dotted parts): the runnable
#: nn stack, the syncers and their rendezvous and every scheme's substrate.
TRAINER_MODULES = (
    "repro.nn.layers", "repro.nn.network", "repro.nn.optim", "repro.nn.loss",
    "repro.core.syncer", "repro.core.consistency",
    *(f"repro.comm.{name}" for name in (
        "parameter_server", "sfb", "adam", "ring", "hierarchical",
        "quantization", "averaging", "message")),
)


def _loaded_by_import(module):
    """Every module a fresh interpreter holds after ``import module``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert module in loaded
    return loaded


class TestImportClosure:
    def test_backend_systems_loads_neither_trainer_nor_data(self):
        """The benchmark's setup probes import backend_systems; that must
        not pull in the functional trainer or the datasets."""
        loaded = _loaded_by_import("repro.experiments.fig_backends")
        assert "repro.parallel.trainer" not in loaded
        assert [name for name in loaded
                if name == "repro.data" or name.startswith("repro.data.")] == []

    def test_system_value_loads_no_comm_simulation_or_trainer_module(self):
        """A SystemConfig checks itself without the backend registry, which
        it must not reach: the registry changes at run time."""
        loaded = _loaded_by_import("repro.config")
        assert [name for name in loaded
                if name.split(".")[:2] in (["repro", "comm"],
                                           ["repro", "simulation"],
                                           ["repro", "parallel"])] == []

    @pytest.mark.parametrize("module", [
        "repro.simulation.fluid", "repro.simulation.throughput",
        "repro.core.cost_model", "repro.comm.backend"])
    def test_planner_loads_no_trainer_module(self, module):
        """The planner prices and schedules from the backends' plan halves;
        a substrate loads on a backend's first build."""
        loaded = _loaded_by_import(module)
        assert [name for name in loaded
                if ".".join(name.split(".")[:3]) in TRAINER_MODULES] == []

    def test_config_loads_no_nn_module(self):
        loaded = _loaded_by_import("repro.config")
        assert [name for name in loaded
                if name.split(".")[:2] == ["repro", "nn"]] == []

    def test_backend_module_registers_every_backend_in_order(self):
        """The plan halves register themselves; no substrate import is
        needed to complete the registry."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        names = subprocess.run(
            [sys.executable, "-c",
             "from repro.comm.backend import registered_backends; "
             "print(*registered_backends())"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}).stdout.split()
        assert names == ["ps", "sfb", "onebit", "adam", "hierps", "ring"]
