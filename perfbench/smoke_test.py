#!/usr/bin/env python3
"""Smoke test for the benchmark, at --size tiny.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and twice traced. Checks that each
result is correct, names every metric of BENCHMARK.json with its unit,
and that the two traced runs give identical counters. Also checks that
the benchmark refuses to run, without printing a result, where there are
no latbeam sources. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    metrics = out["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), name
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        result(run(workload, 0), end_to_end)
        first, second = (result(run(workload, 1), per_layer) for _ in range(2))
        counts = [name for name, unit in per_layer.items() if unit == "count"]
        assert all(first[n]["value"] == second[n]["value"] for n in counts), workload
        print(f"ok {workload}")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("demo-serial", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
