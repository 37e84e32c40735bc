"""Smoke test of the benchmark itself: every workload at tiny size, with zero failures.

    python3 -m pytest bench/test_bench.py
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _record(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_build" / "bench" / "results" / f"{workload}-seed7-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_at_tiny_size(workload, trace):
    proc = _bench(ROOT, workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values() if not trace)


def test_same_seed_gives_same_bytes_and_counts():
    runs = []
    for _ in range(2):
        assert _bench(ROOT, "grid_sweep", "--trace", "1", "--smoke").returncode == 0
        record = _record("grid_sweep", 1)
        counts = {k: v["value"] for k, v in record["per_layer"].items() if not k.endswith(("_ms", "ratio"))}
        counts.pop("gc.collections")
        runs.append((record["output_sha256"], counts))
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert proc.stdout == ""
