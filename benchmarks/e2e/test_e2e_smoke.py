"""Smoke test of the end-to-end benchmark: every workload for one unit
at reduced size, untraced and traced.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli, stats, workloads
from repro.config.presets import baseline_config

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: One unit of each workload, shrunk to a few seconds.
SMALL = {
    "cold_run": {"traces": ("mcf_m",)},
    "replay": {"schemes": ("fpb", "sche24")},
    "plan": {"experiments": ("fig17",)},
    "gateway": {"schemes": ("fpb",), "warm_per_cold": 5},
}

#: Counts that must agree across kernels (simulated behaviour is
#: kernel-independent).
CROSS_KERNEL_COUNTS = ("sim.events", "sim.writes_done", "sim.reads_done",
                       "sim.cycles", "power.fail.dimm", "power.fail.chip",
                       "power.fail.gcp", "power.try_issue.calls")


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden(ROOT)


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, golden, tmp_path_factory):
    """``(name, untraced record, traced record, trace path)``."""
    name = request.param
    scratch = tmp_path_factory.mktemp(name)
    trace_path = scratch / "trace.json"
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "SETUP_REPEATS", 1)
    try:
        records = [
            workloads.run_workload(
                name, seed=1, seconds=0, trace=trace, golden=golden,
                scratch=scratch, trace_path=trace_path if trace else None,
                **SMALL[name])
            for trace in (False, True)
        ]
    finally:
        patch.undo()
    return name, records[0], records[1], trace_path


def test_reports_every_benchmark_metric(runs):
    name, untraced, traced, _ = runs
    for record in (untraced, traced):
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] > 0
    for metric in BENCHMARK["end_to_end"]:
        value = untraced["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0, metric["name"]
    for metric in BENCHMARK["per_layer"]:
        assert traced["layers"][metric["name"]]["unit"] == metric["unit"]


def test_traced_counts_match_untraced(runs):
    name, untraced, traced, trace_path = runs
    layers = {key: entry["value"] for key, entry in traced["layers"].items()}
    for count, value in untraced["counts"].items():
        assert layers[count] == value, count
    if name in ("cold_run", "replay"):
        assert layers["sim.events.reference"] > 0
        for count in CROSS_KERNEL_COUNTS:
            assert layers[f"{count}.reference"] \
                == layers[f"{count}.vectorized"], count
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(event.get("cat") == "op" for event in events)
    assert any(event.get("cat") == "layer" for event in events)


def test_golden_mismatch_fails_the_run(golden, monkeypatch, capsys):
    corrupted = dict(golden)
    key = workloads.quick_key(baseline_config().with_kernel("reference"),
                              "mcf_m", "fpb")
    corrupted[key] = "0" * 64
    monkeypatch.setattr(workloads, "load_golden", lambda root: corrupted)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.ColdRun, "traces", ("mcf_m",))
    code = cli.main(["run", "--workload", "cold_run", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    assert code != 0
    assert summary["correct"] is False and summary["failed"] == 1
    assert record["type"] == "bench_e2e"
    assert record["metrics"]["error_rate"]["value"] > 0


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if part == "python3" else part
               for part in BENCHMARK["command"]]
    proc = subprocess.run(
        command + ["--workload", "cold_run", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(cli.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == workloads.layer_metric_units()


@pytest.mark.parametrize("change, better, expected", [
    ([100, 101, 99, 100], "lower", "within bound"),
    ([120, 121, 119, 120], "lower", "worse"),
    ([80, 81, 79, 80], "lower", "better"),
    ([80, 81, 79, 80], "higher", "worse"),
    ([60, 140, 100, 100], "lower", "unresolved"),
])
def test_compare_verdicts(change, better, expected):
    base = [100, 101, 99, 100]
    assert stats.verdict(base, change, better, 0.10) == expected
