"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke runs use tiny workload sizes, so together they take about a
minute. They check the output contract of BENCHMARK.json: every metric it
names is printed with its unit, and the run's own checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from ess import bulk_ess  # noqa: E402


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_benchmark(HERE.parent, "--smoke", "--workload", workload,
                         "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert any(line.split()[:1] == [name] and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1]), f"{name} not printed with its unit"
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "table1", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_bulk_ess_of_independent_draws_is_their_count():
    draws = np.random.default_rng(0).standard_normal((4, 2000))
    assert bulk_ess(draws) == pytest.approx(8000, rel=0.1)


def test_bulk_ess_of_an_ar1_chain_matches_its_autocorrelation_time():
    rng = np.random.default_rng(1)
    phi, n = 0.8, 20_000
    noise = rng.standard_normal((4, n))
    x = np.zeros((4, n))
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    assert bulk_ess(x) == pytest.approx(4 * n * (1 - phi) / (1 + phi), rel=0.15)
