"""Record each scenario's interval coverage as the sample size grows.

    python3 tools/coverage.py OUT_FILE

Runs ``simulate`` with seed 0 on every scenario: the Laplace engine at 200
replicates and ½, 1, 2 and 4 times the scenario's default n (scenario3 also
at n = 200), and the sampler at 50 replicates and the default n, with its
default chain settings. Each cell records, per analysis, the coverage and its
standard error per coordinate, the mean length and the flag counts, and the
number of replicates whose estimate lies on a face of the parameter box,
within ``models.BOX_ATOL`` (read from ``--records``), with the study's config,
its exit code and its wall time.

The file is a record, not a gate: nothing in the tests reads it. Apart from
the wall times and the commit, a rerun on the same tree writes the same file.
A change that means to move statistics records it before and after.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
from l2calib.models import BOX_ATOL, SCENARIO_NAMES, make_scenario  # noqa: E402

SEED = 0
LAPLACE_REPLICATES = 200
MCMC_REPLICATES = 50
SIZE_FACTORS = (0.5, 1, 2, 4)
EXTRA_SIZES = {"scenario3": (200,)}     # the deficit that stays as n grows
WORKERS = 2                             # no report depends on it


def cells() -> list[dict]:
    """One entry per study: scenario, engine, n and replicates."""
    default_n = {scenario: make_scenario(scenario)[2]["n"] for scenario in SCENARIO_NAMES}
    out = []
    for scenario, n0 in default_n.items():
        sizes = [math.ceil(f * n0) for f in SIZE_FACTORS] + list(EXTRA_SIZES.get(scenario, ()))
        out += [{"scenario": scenario, "engine": "laplace", "n": n,
                 "replicates": LAPLACE_REPLICATES} for n in sizes]
    out += [{"scenario": scenario, "engine": "mcmc", "n": n0, "replicates": MCMC_REPLICATES}
            for scenario, n0 in default_n.items()]
    return out


def bound_hits(records: list[dict], scenario: str) -> dict:
    """Replicates whose estimate lies on a face of the parameter box, per coordinate
    and in all. An estimate can stop an ulp short of the face it converged to."""
    box = make_scenario(scenario)[0].theta_box
    lower, upper = box.lower.tolist(), box.upper.tolist()
    on = [[(t - lo <= BOX_ATOL, hi - t <= BOX_ATOL)
           for t, lo, hi in zip(r["theta_hat"], lower, upper)] for r in records]
    return {
        "lower": [sum(row[j][0] for row in on) for j in range(len(lower))],
        "upper": [sum(row[j][1] for row in on) for j in range(len(upper))],
        "replicates": sum(any(lo or hi for lo, hi in row) for row in on),
    }


def run_cell(cell: dict) -> dict:
    argv = ("simulate", "--scenario", cell["scenario"], "--engine", cell["engine"],
            "--n", str(cell["n"]), "--replicates", str(cell["replicates"]),
            "--seed", str(SEED), "--workers", str(WORKERS), "--records", "--out", "report.json")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "l2calib.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode not in (0, 1):       # 1: the study ran and raised flags
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
        report = json.loads((Path(tmp) / "report.json").read_text())
    analyses = {
        name: {key: entry[key] for key in ("coverage", "coverage_se", "mean_length",
                                           "flag_counts", "n_used", "n_failed")}
        for name, entry in report["analyses"].items()
    }
    print(f"{cell['scenario']:<14} {cell['engine']:<8} n={cell['n']:<4} "
          f"exit {proc.returncode}  {wall:6.1f} s", flush=True)
    return {**cell, "argv": list(argv), "exit_code": proc.returncode,
            "wall_s": round(wall, 2), "config": report["config"],
            "oracle_theta": report["oracle_theta"],
            "replicate_flags": report["replicate_flags"],
            "bound_hits": bound_hits(report["records"], cell["scenario"]),
            "analyses": analyses}


def commit() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_file", type=Path, help="path of the JSON record to write")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    record = {"commit": commit(), "seed": SEED,
              "cells": [run_cell(cell) for cell in cells()]}
    record["wall_s"] = round(time.perf_counter() - t0, 1)
    args.out_file.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
