"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names prints with its unit, that
every answer passes its reference check, that a corrupted reference makes
the check fail, and that the benchmark refuses to run without the sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units_and_no_failures(workload):
    lines, result = tiny(workload, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "metric fail_ratio = 0 1" in lines
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    lines, result = tiny("workbench", 1)
    assert_metrics(lines, result, SPEC["per_layer"])
    assert result["correct"]
    assert result["metrics"]["cli.run.calls"]["value"] == 1.0


def test_corrupted_reference_fails_the_check(monkeypatch, capsys):
    expected = reference.expected
    monkeypatch.setattr(reference, "expected", lambda probs, tensors: expected(probs, tensors) + 1e-6)
    assert run.main(["--workload", "evaluate", "--seed", "3", "--seconds", "0.1", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
