"""Smoke test of the benchmark itself: ``pytest bench/`` (~1 min).

Outside tier-1's ``testpaths`` on purpose — it starts servers and
worker processes and times them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["fig10_cold", "serve_plan_cold", "serve_warm_mix", "train_iter"]
BOUNDS = {"op_p50_ms": 0.20, "op_cpu_ms": 0.20, "peak_rss_mb": 0.10, "setup_s": 0.25}


def run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(ROOT), timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert {m["name"]: m["bound"] for m in SPEC["end_to_end"]} == BOUNDS
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = run("--workload", workload, "--smoke", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(BOUNDS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    result = run("--workload", "serve_plan_cold", "--smoke", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(entry["unit"] == units[name] for name, entry in result["metrics"].items())
