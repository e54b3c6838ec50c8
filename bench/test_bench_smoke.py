"""Smoke test of the benchmark plumbing (collected by tier-1, a few seconds).

Every workload runs one shrunken op, untraced and traced, and must emit
every metric ``BENCHMARK.json`` names with a finite value.  Set-up probes
spawn interpreters, so only one workload takes one; the others check the
three metrics that need no probe.
"""

from __future__ import annotations

import json
import math
import os
import re

import pytest

from bench import run as bench_run

with open(os.path.join(bench_run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PROBED_WORKLOAD = "train_gpt_ring_topk"


def _check(metrics, expected):
    assert set(metrics) == {m["name"] for m in expected}
    for metric in expected:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]


def test_names_are_well_formed():
    assert tuple(WORKLOADS) == bench_run.WORKLOADS
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    probes = 1 if workload == PROBED_WORKLOAD else 0
    metrics, run, _ = bench_run.run_untraced(
        workload, seed=7, seconds=60.0, probes=probes, max_ops=1, smoke=True)
    expected = [m for m in SPEC["end_to_end"] if probes or m["name"] != "setup_s"]
    _check(metrics, expected)
    assert all(metrics[m["name"]]["value"] > 0 for m in expected)
    result = bench_run.result_line(metrics, run)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload, tmp_path):
    metrics, run, _ = bench_run.run_traced(
        workload, seed=7, seconds=60.0, max_ops=1, smoke=True,
        out_dir=str(tmp_path))
    _check(metrics, SPEC["per_layer"])
    assert run.failed == 0
    # Zero-call layers report 0; the layers the workload lives in do not.
    trainer = workload.startswith("train_")
    assert (metrics["nn.forward_ms"]["value"] > 0) == trainer
    assert (metrics["sim.core.events"]["value"] > 0) == (not trainer)
    if workload == "train_gpt_ring_topk":
        assert metrics["comm.parameter_server.calls"]["value"] == 0
        assert 0 < metrics["comm.compression.wire_ratio"]["value"] < 1
    # Full-size runs read 0.99; on a one-iteration op thread start-up is a
    # visible share of train(), so the smoke floor is only a sanity check.
    assert 0.5 <= metrics["trace.selftime_share"]["value"] <= 1.0 + 1e-9
    (trace_file,) = tmp_path.iterdir()
    events = json.loads(trace_file.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all({"op", "point", "unit", "parent"} <= set(e["args"])
                         for e in spans)
