"""Capture the outputs of a fixed list of CLI runs, for byte comparison.

    python3 tools/goldens.py OUT_DIR [--src SRC]

Each run gets its own directory under OUT_DIR holding what the command
wrote: the JSON report (``report.json``), the summary CSV (``summary.csv``),
the MCMC draws (``draws.csv``), its ``stdout``, its ``stderr`` and its
``exit_code``. A run whose command writes no such file leaves none. Each
command runs in a fresh interpreter, from the run's directory and with
relative output paths, so nothing in the outputs depends on OUT_DIR.

``SRC`` is the package source to run, by default the ``src`` directory of
the checkout this file is in. To compare two trees, capture each and diff:

    python3 tools/goldens.py /tmp/before --src OTHER_CHECKOUT/src
    python3 tools/goldens.py /tmp/after
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SCENARIOS = ("scenario1", "scenario2", "scenario3", "simple-linear")
REPORT = ("--out", "report.json")
SUMMARY = ("--summary-out", "summary.csv")
# a tenth of the default chain length: 4 chains keep 250 draws each
SHORT_MCMC = ("--chains", "4", "--iterations", "2000", "--thin", "4")


def runs() -> dict[str, tuple[str, ...]]:
    """Run name -> CLI arguments."""
    table = {"fit": ("fit", "--scenario", "scenario2", *REPORT)}
    for engine, scenario in (("laplace", "scenario2"), ("mcmc", "scenario1"),
                             ("conjugate", "simple-linear")):
        # only the sampler has draws: --draws-out with another engine exits 2
        extra = (*SHORT_MCMC, "--draws-out", "draws.csv") if engine == "mcmc" else ()
        table[f"calibrate-{engine}"] = (
            "calibrate", "--scenario", scenario, "--engine", engine, *extra, *REPORT)
    table["calibrate-mcmc-literal-hpd"] = (
        "calibrate", "--scenario", "scenario2", "--engine", "mcmc", *SHORT_MCMC,
        "--conditional-form", "literal", "--interval", "hpd",
        *REPORT, "--draws-out", "draws.csv")
    # the default chain length, 4 x 20,000
    table["calibrate-mcmc-default"] = (
        "calibrate", "--scenario", "scenario1", "--seed", "3", "--engine", "mcmc",
        *REPORT, "--draws-out", "draws.csv")
    # a level that a rounding format would print as 100%
    table["calibrate-level-9999"] = ("calibrate", "--scenario", "scenario2", "--level",
                                     "0.9999", *REPORT)
    # seed 6 puts scenario3's estimate on the lower edge of its parameter box
    table["calibrate-scenario3-edge"] = (
        "calibrate", "--scenario", "scenario3", "--seed", "6", *REPORT)
    # the curvature remap projects the sampler's points onto that edge and penalises them
    table["calibrate-mcmc-scenario3-edge"] = (
        "calibrate", "--scenario", "scenario3", "--seed", "6", "--engine", "mcmc",
        *SHORT_MCMC, *REPORT)
    for scenario in SCENARIOS:
        for workers in (1, 2):
            table[f"simulate-{scenario}-w{workers}"] = (
                "simulate", "--scenario", scenario, "--replicates", "20",
                "--workers", str(workers), "--records", *REPORT, *SUMMARY)
    table["simulate-conditional-literal"] = (
        "simulate", "--scenario", "scenario2", "--variant", "conditional",
        "--conditional-form", "literal", "--replicates", "8", "--workers", "1",
        "--records", *REPORT, *SUMMARY)
    # the default chain length: one analysis keeps this run short
    # chunks of 7 + 7 + 6: the calling process and two forked children all run
    table["simulate-scenario1-w3"] = (
        "simulate", "--scenario", "scenario1", "--replicates", "20", "--workers", "3",
        "--records", *REPORT, *SUMMARY)
    table["simulate-mcmc"] = (
        "simulate", "--scenario", "simple-linear", "--engine", "mcmc",
        "--variant", "marginal", "--scaling", "magnitude", "--replicates", "2",
        "--workers", "1", "--records", *REPORT, *SUMMARY)
    table["simulate-mcmc-short"] = (
        "simulate", "--scenario", "scenario1", "--engine", "mcmc", *SHORT_MCMC,
        "--replicates", "2", "--workers", "1", "--records", *REPORT, *SUMMARY)
    table["simulate-conjugate"] = (
        "simulate", "--scenario", "scenario3", "--engine", "conjugate",
        "--replicates", "4", "--workers", "1", "--records", *REPORT, *SUMMARY)
    for workers in (1, 2):
        table[f"table1-w{workers}"] = (
            "table1", "--replicates", "400", "--workers", str(workers),
            *REPORT, *SUMMARY)
    # enough replicates that two workers each get CLOSED_FORM_PER_WORKER
    table["table1-w2-pooled"] = (
        "table1", "--replicates", "1000", "--workers", "2", *REPORT, *SUMMARY)
    # tau2 inside the spread of the n = 4 sampling variances: variance
    # matching is undefined for some replicates, which flags them and exits 1
    table["table1-prior-tau2"] = (
        "table1", "--replicates", "400", "--workers", "1", "--prior-in-interval",
        "--tau2", "0.05", *REPORT, *SUMMARY)
    # the second kernel family's grids, on the closed-form and the study paths
    table["table1-matern52"] = (
        "table1", "--kernel", "matern52", "--replicates", "400", "--workers", "1",
        *REPORT, *SUMMARY)
    table["simulate-matern52"] = (
        "simulate", "--scenario", "scenario2", "--kernel", "matern52", "--replicates", "8",
        "--workers", "1", "--records", *REPORT, *SUMMARY)
    # scenario1's uniform design: a grid and a fit's kernel for every replicate
    table["simulate-scenario1-matern52"] = (
        "simulate", "--scenario", "scenario1", "--kernel", "matern52", "--replicates", "8",
        "--workers", "1", "--records", *REPORT, *SUMMARY)
    # a straight line's theta* is its vertex on the quadrature rule, so it moves with the order
    table["table1-quad16"] = (
        "table1", "--quad-order", "16", "--replicates", "400", "--workers", "1",
        *REPORT, *SUMMARY)
    table["simulate-scenario3-quad16"] = (
        "simulate", "--scenario", "scenario3", "--quad-order", "16", "--replicates", "8",
        "--workers", "1", "--records", *REPORT, *SUMMARY)
    # 400 points or more: fit and calibrate run the smoother's eigh and solves on
    # the host's BLAS threads, a study slice on one, so both simulate runs agree
    table["fit-n450"] = ("fit", "--scenario", "scenario2", "--n", "450", *REPORT)
    table["calibrate-n420"] = ("calibrate", "--scenario", "scenario1", "--n", "420", *REPORT)
    for workers, suffix in ((1, ""), (2, "-w2")):
        table[f"simulate-n400{suffix}"] = (
            "simulate", "--scenario", "scenario2", "--n", "400", "--replicates", "2",
            "--workers", str(workers), "--records", *REPORT, *SUMMARY)
    # the conjugate engine needs a straight line: both commands exit 2
    conjugate = ("--scenario", "scenario1", "--engine", "conjugate", *REPORT)
    table["calibrate-conjugate-scenario1"] = ("calibrate", *conjugate)
    table["simulate-conjugate-scenario1"] = ("simulate", *conjugate, "--replicates", "2")
    return table


def capture(out_dir: Path, src: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for name, argv in runs().items():
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=False)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "l2calib.cli", *argv],
                              cwd=run_dir, env=env, capture_output=True, check=False)
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name:<34} exit {proc.returncode}  {time.perf_counter() - t0:5.2f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path, help="directory for the outputs; must not exist")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="package source to run (default: this checkout's src)")
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=False)
    capture(args.out_dir, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
