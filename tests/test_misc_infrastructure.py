"""Tests for supporting infrastructure: byte meters, reports, logging,
runner CLI, exceptions and the package surface."""

import logging

import pytest

import repro
from repro import exceptions
from repro.comm.message import ByteMeter
from repro.experiments import paper_reference
from repro.experiments.report import format_series, format_table, ratio_string
from repro.experiments.runner import main as runner_main
from repro.logging_util import enable_console_logging, get_logger


class TestByteMeter:
    def test_directional_accounting(self):
        meter = ByteMeter()
        meter.record(100, "sent", tag="push")
        meter.record(40, "received", tag="pull")
        assert meter.sent == 100
        assert meter.received == 40
        assert meter.total == 140
        assert meter.by_tag == {"push": 100, "pull": 40}

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            ByteMeter().record(10, "sideways")

    def test_snapshot_contains_tags(self):
        meter = ByteMeter()
        meter.record(2 ** 20, "sent", tag="sfb")
        snapshot = meter.snapshot()
        assert snapshot["sent"] == 2 ** 20
        assert snapshot["tag:sfb"] == 2 ** 20
        assert meter.total_megabytes == pytest.approx(1.0)


class TestReportHelpers:
    def test_format_table_alignment_and_title(self):
        table = format_table(["name", "value"], [("a", 1.5), ("bb", 22.25)],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.50" in table and "22.25" in table

    def test_format_series(self):
        series = format_series("label", [1, 2], [1.0, 2.5])
        assert series == "label: 1=1.0 2=2.5"

    def test_ratio_string_with_and_without_reference(self):
        assert "paper: 2.00" in ratio_string(1.5, 2.0)
        assert "n/a" in ratio_string(1.5, None)


class TestPaperReference:
    def test_reported_speedup_lookup(self):
        assert paper_reference.reported_speedup("fig5", "VGG19-22K", "Caffe+WFBP") == 21.5
        assert paper_reference.reported_speedup("fig6", "Inception-V3", "TF") == 20.0
        assert paper_reference.reported_speedup("fig5", "nope", "x") is None

    def test_table3_reference_contains_all_models(self):
        assert set(paper_reference.TABLE3_MODELS) == {
            "CIFAR-10 quick", "GoogLeNet", "Inception-V3", "VGG19", "VGG19-22K",
            "ResNet-152"}


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("something").name == "repro.something"
        assert get_logger("repro.simulation").name == "repro.simulation"

    def test_enable_console_logging_idempotent(self):
        enable_console_logging()
        enable_console_logging()
        root = logging.getLogger("repro")
        handlers = [h for h in root.handlers if isinstance(h, logging.StreamHandler)]
        assert len(handlers) == 1


class TestExceptions:
    @pytest.mark.parametrize("exc", [
        exceptions.ConfigurationError,
        exceptions.ModelSpecError,
        exceptions.CommunicationError,
        exceptions.SimulationError,
        exceptions.TrainingError,
        exceptions.ShapeError,
    ])
    def test_all_errors_derive_from_repro_error(self, exc):
        assert issubclass(exc, exceptions.ReproError)
        with pytest.raises(exceptions.ReproError):
            raise exc("boom")


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        for name in ("ClusterConfig", "TrainingConfig", "BandwidthPreset"):
            assert hasattr(repro, name)

    def test_core_extension_modules_import(self):
        # repro.core imports none of its modules (repro.config reads
        # repro.core.policy); each is imported by its own path.
        from repro.core.policy import SyncPolicy  # noqa: F401
        from repro.core.staleness import SSPClock  # noqa: F401


class TestRunnerCli:
    def test_cli_runs_selected_experiment(self, capsys, tmp_path):
        output = tmp_path / "report.txt"
        exit_code = runner_main(["table1", "--quick", "--output", str(output)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Table 1" in captured
        assert output.read_text().startswith("=== table1")

    def test_cli_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            runner_main(["does-not-exist"])


def _tool(name):
    """A ``tools`` script, loaded from its file (tools is no package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDottedReferenceCheck:
    @pytest.mark.parametrize("name,resolves", [
        ("repro.core", True),
        ("repro.core.cost_model.CostModel", True),
        ("repro.core.cost_model.CostModel.best_scheme", True),
        ("repro.simulation.simulate_system", True),  # bound by an import
        ("repro.config.ClusterConfig.num_workers", True),  # a field
        ("repro.core.coordinator.Coordinator", False),  # no such module
        ("repro.core.cost_model.Coordinator", False),  # no such name
        ("repro.config.ClusterConfig.no_such_field", False),
    ])
    def test_resolves_by_file_lookup(self, name, resolves):
        assert _tool("check_links").dotted_resolves(name) is resolves

    def test_flags_a_stale_reference_outside_the_history_files(self, tmp_path):
        check_links = _tool("check_links")
        stale = "repro.core.coordinator.Coordinator"
        for file_name, flagged in (("notes.txt", True), ("module.py", True),
                                   ("CHANGES.md", False),
                                   ("ROADMAP.md", False)):
            path = tmp_path / file_name
            path.write_text(f"See :class:`~{stale}`.\n", encoding="utf-8")
            assert (list(check_links.check_file(path))
                    == ([(1, stale)] if flagged else [])), file_name


class TestUnusedImportCheck:
    @staticmethod
    def unused(tmp_path, source):
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        return list(_tool("check_imports").check_file(path))

    def test_flags_an_unused_import(self, tmp_path):
        assert self.unused(tmp_path, "import os\nfrom typing import List\n") \
            == [(1, "os"), (2, "List")]

    def test_a_used_name_passes(self, tmp_path):
        source = ("from typing import List\n"
                  "def f(items: List[int]) -> int:\n"
                  "    return len(items)\n")
        assert self.unused(tmp_path, source) == []

    def test_a_reexport_in_all_passes(self, tmp_path):
        source = 'from os.path import join\n__all__ = ["join"]\n'
        assert self.unused(tmp_path, source) == []

    def test_future_imports_are_ignored(self, tmp_path):
        assert self.unused(tmp_path,
                           "from __future__ import annotations\n") == []

    def test_a_dotted_import_is_used_through_its_head(self, tmp_path):
        source = "import os.path\nSEP = os.path.sep.join(['a', 'b'])\n"
        assert self.unused(tmp_path, source) == []

    def test_a_name_in_a_string_annotation_is_used(self, tmp_path):
        source = ("from typing import List\n"
                  "def f(items: \"List[int]\") -> int:\n"
                  "    return len(items)\n")
        assert self.unused(tmp_path, source) == []
