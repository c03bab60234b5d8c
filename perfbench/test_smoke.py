"""Smoke test for the benchmark: every workload at a tiny size, in about a minute.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    done = bench("--workload", workload, "--size", "tiny", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name}: " in done.stdout and f" {unit}  (" in done.stdout
        assert result["metrics"][name]["value"] > 0
    assert "item_tail_ms" in done.stdout and ", N=" in done.stdout
    for label in ("seed: 1", "backend: ", "python: ", "nproc: ", "failed_frac: ", "checksum: sha256"):
        assert label in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    done = bench("--workload", workload, "--size", "tiny", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "trace overhead: " in done.stdout
    # tower, certificates and runner self times and runner.render_s are
    # printed but not in the result line: they read exactly 0 on queries.
    printed_only = ["tower.self_s", "certificates.self_s", "runner.self_s", "runner.render_s"]
    for name in list(expected) + printed_only:
        assert f"{name}: " in done.stdout


def test_perturbed_output_trips_the_checksum_gate():
    done = bench("--workload", "queries", "--size", "tiny", "--trace", "0", "--perturb")
    assert done.returncode == 1
    assert result_of(done)["correct"] is False
    assert "differs from checksums.json" in done.stdout


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "queries", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
