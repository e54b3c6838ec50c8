"""Tests for supporting infrastructure: byte meters, reports, logging,
runner CLI, exceptions and the package surface."""

import logging

import pytest

import repro
from repro import exceptions
from repro.comm.message import ByteMeter
from repro.experiments import paper_reference
from repro.experiments.report import format_series, format_table
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


class TestPaperReference:
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


class TestReferenceCheck:
    @staticmethod
    def problems(tmp_path, files, allowlist=None):
        """Run the check over a fixture tree of ``{relative path: source}``."""
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return _tool("check_refs").check(tmp_path, allowlist or {})

    def test_flags_an_unreferenced_definition(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": "def orphan():\n    return orphan\n",
        }) == ["UNUSED src/repro/mod.py:1: repro.mod.orphan"]

    @pytest.mark.parametrize("other", [
        '"""Call ``helper`` first."""\n',
        "from repro.mod import helper\n",
        '__all__ = ["helper"]\n',
    ], ids=["docstring", "import", "__all__"])
    def test_a_docstring_an_import_or_all_is_no_use(self, tmp_path, other):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": "def helper():\n    pass\n",
            "bench/run.py": other,
        }) == ["UNUSED src/repro/mod.py:1: repro.mod.helper"]

    def test_uses_count_from_bench_but_not_from_tests(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Board:\n"
                                 "    def publish(self):\n        pass\n"
                                 "    def collect(self):\n        pass\n"),
            "bench/run.py": "from repro.mod import Board\nBoard().publish()\n",
            "tests/test_mod.py": "Board().collect()\n",
        }) == ["UNUSED src/repro/mod.py:4: repro.mod.Board.collect"]

    @pytest.mark.parametrize("relative", [
        "src/repro/other.py", "bench/run.py", "examples/demo.py",
        "tools/script.py",
    ])
    def test_a_call_counts_from_every_use_root(self, tmp_path, relative):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": "def helper():\n    pass\n",
            relative: "from repro.mod import helper\nhelper()\n",
        }) == []

    def test_an_attribute_is_a_use(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": "def helper():\n    pass\n",
            "bench/run.py": "import repro.mod as mod\nmod.helper()\n",
        }) == []

    def test_a_use_inside_the_definition_itself_is_no_use(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("def walk(node):\n"
                                 "    return walk(node.child)\n"
                                 "class Tree:\n"
                                 "    def visit(self):\n"
                                 "        return self.visit()\n"),
            "bench/run.py": "from repro.mod import Tree\nTree()\n",
        }) == ["UNUSED src/repro/mod.py:1: repro.mod.walk",
               "UNUSED src/repro/mod.py:4: repro.mod.Tree.visit"]

    def test_a_call_from_a_sibling_method_is_a_use(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Tree:\n"
                                 "    def run(self):\n"
                                 "        return self.step()\n"
                                 "    def step(self):\n"
                                 "        pass\n"),
            "bench/run.py": "from repro.mod import Tree\nTree().run()\n",
        }) == []

    def test_dunder_and_private_definitions_are_exempt(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("def _private():\n    pass\n"
                                 "class _Hidden:\n"
                                 "    def method(self):\n        pass\n"
                                 "class Box:\n"
                                 "    def __init__(self):\n        pass\n"
                                 "    def __len__(self):\n        return 0\n"
                                 "    def _helper(self):\n        pass\n"),
            "bench/run.py": "from repro.mod import Box\nBox()\n",
        }) == []

    def test_nested_definitions_are_not_checked(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("def outer():\n"
                                 "    def inner():\n        pass\n"
                                 "    class Local:\n"
                                 "        def method(self):\n            pass\n"
                                 "    return 1\n"
                                 "class Box:\n"
                                 "    class Inner:\n"
                                 "        def deep(self):\n            pass\n"),
            "bench/run.py": "from repro.mod import Box, outer\nouter(), Box()\n",
        }) == []

    def test_an_unused_property_and_async_function_are_flagged(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Box:\n"
                                 "    @property\n"
                                 "    def size(self):\n        return 1\n"
                                 "async def fetch():\n    pass\n"),
            "bench/run.py": "from repro.mod import Box\nBox()\n",
        }) == ["UNUSED src/repro/mod.py:3: repro.mod.Box.size",
               "UNUSED src/repro/mod.py:5: repro.mod.fetch"]

    def test_a_format_field_is_a_use(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Result:\n"
                                 "    @property\n"
                                 "    def speedup(self):\n        return 2.0\n"),
            "bench/layout.py": ("from repro.mod import Result\n"
                                "LINE = '{result.speedup:.2f}x'.format(\n"
                                "    result=Result())\n"),
        }) == []

    def test_a_malformed_format_string_is_only_a_plain_string(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": "def helper():\n    pass\n",
            "bench/run.py": "TEMPLATE = '{helper'\n",
        }) == ["UNUSED src/repro/mod.py:1: repro.mod.helper"]

    def test_a_package_init_names_the_package(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/pkg/__init__.py": "def thing():\n    pass\n",
        }) == ["UNUSED src/repro/pkg/__init__.py:1: repro.pkg.thing"]

    def test_a_name_shared_with_a_used_definition_passes(self, tmp_path):
        """The documented limit of a check by name: an unused ``reset``
        passes while another class's ``reset`` is called."""
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Meter:\n"
                                 "    def reset(self):\n        pass\n"
                                 "class Clock:\n"
                                 "    def reset(self):\n        pass\n"),
            "bench/run.py": ("from repro.mod import Clock, Meter\n"
                             "Meter().reset()\nClock()\n"),
        }) == []

    def test_main_rejects_arguments(self, capsys):
        assert _tool("check_refs").main(["src"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_main_exits_nonzero_and_lists_every_problem(self, tmp_path,
                                                        monkeypatch, capsys):
        check_refs = _tool("check_refs")
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text(
            "def orphan():\n    pass\n", encoding="utf-8")
        monkeypatch.setattr(check_refs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_refs, "ALLOWLIST", {})
        assert check_refs.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "UNUSED src/repro/mod.py:1: repro.mod.orphan",
            "1 problem(s)",
        ]

    def test_a_method_wrapped_by_its_string_name_passes(self, tmp_path):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("class Syncer:\n"
                                 "    def sync(self):\n        pass\n"),
            "bench/trace.py": ("from repro.mod import Syncer\n"
                               "setattr(Syncer, \"sync\", None)\n"),
        }) == []

    def test_an_allowlisted_name_with_a_reason_passes(self, tmp_path):
        assert self.problems(
            tmp_path, {"src/repro/mod.py": "def unregister():\n    pass\n"},
            {"repro.mod.unregister": "the registry's own API"}) == []

    @pytest.mark.parametrize("allowlist,problem", [
        ({"repro.mod.unregister": " "},
         "ALLOWLIST repro.mod.unregister: no reason given"),
        ({"repro.mod.unregister": "why", "repro.mod.gone": "why"},
         "ALLOWLIST repro.mod.gone: names no definition"),
        ({"repro.mod.unregister": "why", "repro.mod.register": "why"},
         "ALLOWLIST repro.mod.register: is used, drop the entry"),
    ], ids=["no reason", "no definition", "used"])
    def test_a_bad_allowlist_entry_fails(self, tmp_path, allowlist, problem):
        assert self.problems(tmp_path, {
            "src/repro/mod.py": ("def register():\n    pass\n"
                                 "def unregister():\n    pass\n"),
            "examples/demo.py": "from repro.mod import register\nregister()\n",
        }, allowlist) == [problem]

    def test_the_repository_passes(self):
        check_refs = _tool("check_refs")
        assert check_refs.check(check_refs.REPO_ROOT, check_refs.ALLOWLIST) == []
