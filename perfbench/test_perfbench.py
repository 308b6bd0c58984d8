"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest perfbench``.

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit on every workload, that collect-check fails without its fault plan,
that the traced run's spans form a well-formed tree, and that a checkout
without the program fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import TARGETS, Tracer, check_span_tree  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "LAYERS.json").read_text())
TINY = ["--seed", "3", "--seconds", "0.1", "--scale", "0.01"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_layer_map():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(LAYER_MAP["workloads"]) == set(run.WORKLOADS)
    assert list(LAYER_MAP["end_to_end"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [m["name"] for m in LAYER_MAP["per_layer"]] == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in LAYER_MAP["per_layer"]:
        assert set(metric["on"]) <= set(run.WORKLOADS), metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        spans = json.loads((run.OUT / f"spans-{workload}-seed3.json").read_text())
        assert spans["absent"] == []
        assert len(spans["spans"]) > 1
        assert check_span_tree(spans["spans"]) is None


def test_collect_check_without_its_fault_plan_fails():
    code = (
        "import sys, run\n"
        "sys.path.insert(0, str(run.SRC))\n"
        "import scenarios\n"
        "scenarios.CollectCheck.faults = lambda self, index: None\n"
        f"sys.exit(run.main({['--workload', 'collect-check', *TINY]!r}))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": run.HASH_SEED, "TMPDIR": str(run.TMP)}
    run.TMP.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "injected stale reads went undetected" in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify-batch", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_targets_and_records_missing_ones():
    from repro.core.index import HistoryIndex

    before = HistoryIndex.__dict__["from_columns"]
    tracer = Tracer().install(TARGETS + [("gone", "repro.core.checkers", "fused_stage", "span")])
    try:
        assert HistoryIndex.__dict__["from_columns"] is not before
        assert tracer.absent == ["repro.core.checkers.fused_stage"]
    finally:
        tracer.uninstall()
    assert HistoryIndex.__dict__["from_columns"] is before


def test_check_span_tree_rejects_malformed_trees():
    good = [["bench.a", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 5.0, 9.0, 0], ["z", 6.0, 7.0, 2]]
    assert check_span_tree(good) is None
    assert "escapes" in check_span_tree(good + [["w", 8.0, 11.0, 0]])
    assert "overlaps" in check_span_tree(good[:2] + [["y", 3.0, 9.0, 0]])
    assert "parent" in check_span_tree([["a", 0.0, 1.0, 0]])
