"""Smoke test of the benchmark harness at its smallest size: B2 only and a
few requests per workload, untraced and traced.

    python3 -m pytest bench/smoke.py      # or: python3 bench/smoke.py

The file name keeps it out of the default test collection, so the
repository's own test suite does not run the benchmark.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import metric_units  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload, trace, names):
    stdout, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, stdout
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))
    assert "env {" in stdout
    return result["metrics"]


def test_end_to_end_metrics():
    for workload in WORKLOADS:
        metrics = _check(workload, 0, metric_units("end_to_end"))
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)


def test_traced_layers():
    for workload in WORKLOADS:
        metrics = _check(workload, 1, metric_units("per_layer"))
        assert metrics["load_context_s"]["value"] > 0
        assert metrics["act_on_polynomial_calls"]["value"] > 0


def test_refuses_without_source():
    """In a directory that holds only BENCHMARK.json and bench/, the benchmark
    exits nonzero without printing a result."""
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
