#!/usr/bin/env python3
"""Benchmark of the l2calib command line, end to end and layer by layer.

One run of one workload, as the benchmark contract in BENCHMARK.json asks::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it records spans around every module's public functions and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload and both modes in one command, with the environment, written
to ``perfbench-results.json`` at the repository root::

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

``--smoke`` shrinks every workload to a tiny size and skips the comparison
with the recorded reference outputs, which exist only for the full sizes.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ess import total_bulk_ess
from spans import MODULES, Tracer, capture_samples, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = ROOT / "perfbench-results.json"

POOL = 32            # CLI seeds 0..POOL-1 have recorded reference outputs
QUAD_ORDER = 64      # the CLI default
TOL = 1e-6           # deterministic outputs: |got - ref| <= TOL * max(1, |ref|)
# Monte Carlo outputs of the sampler, in units of the reference posterior sd
MC_TOL = {"post_mean": 0.3, "post_sd": 0.3, "interval": 1.0}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Host-speed probe: a quiet host runs it in about this long. Timings are
# scaled to this speed; see probe_seconds.
PROBE_REF_S = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "ess_per_s": "1/s"}
PER_LAYER = {
    "smoother.grid_builds": "count", "smoother.grid_build_ms": "ms",
    "smoother.selects": "count", "smoother.select_us": "us",
    "smoother.edge_ratio": "ratio",
    "calibration.estimates": "count", "calibration.estimate_ms": "ms",
    "calibration.loss_evals_per_estimate": "count",
    "calibration.loss_eval_us": "us", "numerics.minimize_ms": "ms",
    "models.eta_calls": "count", "models.eta_points": "count",
    "asymptotics.sandwich_us": "us", "scaling.adjust_us": "us",
    "posterior.laplace_us": "us",
    "posterior.mcmc_steps": "count", "posterior.mcmc_step_us": "us",
    "posterior.acceptance_rate": "ratio", "posterior.ess": "draws",
    "posterior.rhat_max": "ratio",
    "simharness.replicates": "count", "simharness.replicate_ms_p50": "ms",
    "simharness.replicate_ms_p95": "ms", "simharness.oracle_s": "s",
    "simharness.pool_efficiency": "ratio",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple       # CLI arguments, without --seed, --out and --workers
    scenario: str        # scenario whose one-off state set-up builds
    pooled: bool         # runs with one worker per CPU, like the CLI default
    units: int           # replicates, or Metropolis steps, per invocation

    def argv(self, seed: int, out: Path, workers: int) -> list[str]:
        argv = [*self.command, "--seed", str(seed), "--out", str(out)]
        return argv + ["--workers", str(workers)] if self.pooled else argv


def workloads(smoke: bool) -> dict[str, Workload]:
    replicates, table1_replicates, iterations = (3, 20, 400) if smoke else (16, 300, 2000)
    chains = 4
    return {w.name: w for w in (
        Workload("study-scenario1",
                 ("simulate", "--scenario", "scenario1",
                  "--replicates", str(replicates)),
                 "scenario1", True, replicates),
        Workload("table1",
                 ("table1", "--replicates", str(table1_replicates),
                  "--workers", "1"),
                 "simple-linear", False, table1_replicates),
        Workload("calibrate-mcmc",
                 ("calibrate", "--scenario", "scenario1", "--engine", "mcmc",
                  "--chains", str(chains), "--iterations", str(iterations),
                  "--thin", "4"),
                 "scenario1", False, 4 * chains * iterations),
    )}


def input_seeds(seed: int):
    """CLI seeds for one run: consecutive pool entries from a seed-chosen start."""
    start = (seed * 7) % POOL
    i = 0
    while True:
        yield (start + i) % POOL
        i += 1


# ---------------------------------------------------------------------------
# outputs and their checks
# ---------------------------------------------------------------------------

def summary(command: str, report: dict, rc: int) -> dict:
    """The outputs a run is checked on: exit code, estimates, coverages, lengths."""
    if command == "calibrate":
        return {"rc": rc, "theta_hat": report["theta_hat"],
                "theta_hat_ols": report["theta_hat_ols"],
                "analyses": {k: {f: a.get(f) for f in
                                 ("post_mean", "post_sd", "interval", "failed")}
                             for k, a in report["analyses"].items()}}
    fields = ("coverage", "mean_length", "mean_post_mean", "n_used")
    if command == "simulate":
        fields += ("n_failed",)
    return {"rc": rc, "oracle_theta": report["oracle_theta"],
            "replicate_flags": report["replicate_flags"],
            "analyses": {k: {f: a.get(f) for f in fields}
                         for k, a in report["analyses"].items()}}


def analysis_counts(command: str, report: dict) -> tuple[int, int]:
    """(analyses attempted, analyses failed) in one report."""
    analyses = report["analyses"].values()
    if command == "calibrate":
        return len(analyses), sum(bool(a.get("failed")) for a in analyses)
    if command == "simulate":
        return (sum(a["n_replicates"] for a in analyses),
                sum(a["n_failed"] for a in analyses))
    reps = report["config"]["replicates"]
    return reps * len(analyses), sum(reps - a["n_used"] for a in analyses)


def differences(ref, got, path: str, tol) -> list[str]:
    """Paths where ``got`` differs from ``ref``; numbers within ``tol(path, ref)``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [path]
        return [p for k in ref for p in differences(ref[k], got[k], f"{path}/{k}", tol)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [path]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in differences(r, g, f"{path}/{i}", tol)]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        return [] if abs(got - ref) <= tol(path, ref) else [path]
    return [] if ref == got else [path]


def tolerance(ref: dict):
    def tol(path: str, value: float) -> float:
        parts = path.split("/")   # "", "analyses", name, field, coordinate, ...
        if len(parts) >= 5 and parts[1] == "analyses" and parts[3] in MC_TOL:
            sd = ref["analyses"][parts[2]]["post_sd"][int(parts[4])]
            return MC_TOL[parts[3]] * sd
        return TOL * max(1.0, abs(value))
    return tol


class Book:
    """Counts attempted and failed analyses and checks, keeps the failures."""

    def __init__(self, wl: Workload, smoke: bool):
        self.attempted = self.failed = self.failed_checks = 0
        self.problems: list[str] = []
        self.reference = None
        if not smoke:
            recorded = json.loads(REFERENCE.read_text())[wl.name]
            if recorded["command"] != list(wl.command):
                raise SystemExit(f"{REFERENCE.name} was recorded for another "
                                 f"command: {recorded['command']}")
            self.reference = recorded["seeds"]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks += 1
            self.problems.append(what)

    def outputs(self, wl: Workload, seed: int, call: "Call") -> None:
        attempted, failed = analysis_counts(wl.command[0], call.report)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"seed {seed}: {failed} failed analyses")
        if self.reference is not None:
            ref = self.reference[str(seed)]
            got = summary(wl.command[0], call.report, call.rc)
            diff = differences(ref, got, "", tolerance(ref))
            self.check(not diff, f"seed {seed}: differs from the reference at {diff[:5]}")

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed / max(self.attempted, 1)


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

@dataclass
class Call:
    rc: int
    wall: float
    cpu: float
    text: str
    report: dict


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def invoke(wl: Workload, seed: int, workers: int, work: Path, tracer=None) -> Call:
    """One in-process call of ``l2calib.cli.main``, as a user would type it."""
    from l2calib import cli, simharness
    out = work / "report.json"
    argv = wl.argv(seed, out, workers)
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    # every CLI process computes the oracle afresh; so does every call here
    simharness._ORACLE_CACHE.clear()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    text = out.read_text()
    out.unlink()
    return Call(rc=rc, wall=wall, cpu=cpu, text=text, report=json.loads(text))


def probe_seconds() -> float:
    """Wall time of the host-speed probe: fixed numpy work on small arrays.

    On a shared host, other tenants slow every call, often by 30 to 70% and
    for seconds to minutes, and they slow the probe alike. It has two parts,
    one like the smoother's grid loop and one like the sampler's Metropolis
    loop, but it uses nothing of ``l2calib``, so a change to the program
    does not move it.
    """
    x = np.linspace(-3.0, 3.0, 16)
    q = np.outer(x, x) / 16.0
    xs = np.linspace(0.0, 1.0, 64)
    rng = np.random.default_rng(0)
    theta, logp, acc = np.zeros(2), -np.inf, 0.0
    t0 = time.perf_counter()
    for i in range(10000):
        z = q.T @ (x + 1e-3 * i)
        acc += float(np.exp(-0.5 * z * z).sum())
    for _ in range(4000):
        prop = theta + 0.3 * rng.standard_normal(2)
        if np.any(np.abs(prop) > 3.0):
            continue
        r = np.sin(prop[0] * xs) + (prop[1] - 1.0) * xs
        lp = -0.5 * float(r @ r)
        if np.log(rng.random()) < lp - logp:
            theta, logp = prop, lp
    return time.perf_counter() - t0


SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import l2calib.cli
from l2calib.models import make_scenario
from l2calib.numerics import build_rule
from l2calib.simharness import oracle_theta
model, system, defaults = make_scenario(sys.argv[2])
build_rule(model.x_box.lower, model.x_box.upper, int(sys.argv[3]))
oracle_theta(sys.argv[2], int(sys.argv[3]))
"""


def setup_seconds(wl: Workload) -> float:
    """Wall time of a fresh process that imports l2calib and builds the
    workload's one-off state: scenario, quadrature rule, oracle theta*."""
    # no timeout: with one, subprocess polls for the exit in 50 ms steps
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), wl.scenario,
                    str(QUAD_ORDER)], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def sample_ess(samples) -> float:
    return sum(total_bulk_ess(p.draws, p.chain_ids) for p in samples)


class HostSpeed:
    """Probes the host around each piece of timed work; see probe_seconds."""

    def __init__(self):
        probe_seconds()                   # untimed warm-up
        self.probe = probe_seconds()
        self.slowdowns: list[float] = []

    def slowdown(self) -> float:
        """How much slower than a quiet host this one ran since the last call:
        the mean of the probe times before and after, over PROBE_REF_S."""
        before, self.probe = self.probe, probe_seconds()
        self.slowdowns.append((before + self.probe) / (2 * PROBE_REF_S))
        return self.slowdowns[-1]


def run_untraced(wl: Workload, seed: int, seconds: float, smoke: bool,
                 work: Path) -> tuple[dict, int]:
    setup_seconds(wl)                     # fills the bytecode cache, untimed
    host = HostSpeed()
    setup = [setup_seconds(wl) / host.slowdown() for _ in range(1 if smoke else 5)]
    from l2calib import cli
    book = Book(wl, smoke)
    nproc = os.cpu_count() or 1
    seeds = input_seeds(seed)
    first_seed = next(seeds)
    # untimed warm-up at one worker: every call on this input must reproduce it
    first = invoke(wl, first_seed, 1, work)
    book.outputs(wl, first_seed, first)
    walls, cpus, timed, effective = [], [], [], []
    host.slowdown()                       # restart the probe after the warm-up
    s = first_seed
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        samples: list = []
        with capture_samples(cli, samples):
            call = invoke(wl, s, nproc, work)
        slowdown = host.slowdown()
        book.outputs(wl, s, call)
        if s == first_seed:
            book.check(call.text == first.text,
                       f"seed {s}: report at {nproc} workers differs from one worker")
        if samples:
            effective.append(sample_ess(samples))
        else:  # independent replicates: each used analysis is one draw
            attempted, failed = analysis_counts(wl.command[0], call.report)
            effective.append(attempted - failed)
        walls.append(call.wall / slowdown)
        cpus.append(call.cpu / slowdown)
        timed.append(call.wall)
        s = next(seeds)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = statistics.median(walls)
    print(f"host slowdown: median {statistics.median(host.slowdowns):.3f}, range "
          f"{min(host.slowdowns):.3f}-{max(host.slowdowns):.3f}; "
          f"median call as timed {statistics.median(timed):.4f} s")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "throughput": wl.units / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ratio": book.ok_ratio,
        "ess_per_s": statistics.median(effective) / wall,
    }
    return finish(book, metrics, END_TO_END, len(walls))


def layer_metrics(tr: Tracer) -> tuple[dict, dict]:
    """(counters, per-layer metrics) of one traced call."""
    steps = sum(p.settings.chains * p.settings.iterations for p in tr.samples)
    counts = {
        "smoother.grid_builds": tr.calls("smoother.grid_build"),
        "smoother.selects": tr.calls("smoother.select"),
        "smoother.edge_hits": tr.counts["smoother.edge_hits"],
        "calibration.estimates": tr.calls("calibration.estimate_theta"),
        "calibration.loss_evals": tr.counts["calibration.loss_evals_in_estimates"],
        "models.eta_calls": tr.calls("models.eta"),
        "models.eta_points": tr.counts["models.eta_points"],
        "posterior.mcmc_steps": steps,
        "posterior.ess": sample_ess(tr.samples),
        "simharness.replicates": tr.calls("simharness.run_replicate"),
    }
    replicate_ms = [1e3 * d for d in tr.durations.get("simharness.run_replicate", ())]
    metrics = {
        "smoother.grid_builds": counts["smoother.grid_builds"],
        "smoother.grid_build_ms": 1e3 * tr.mean("smoother.grid_build"),
        "smoother.selects": counts["smoother.selects"],
        "smoother.select_us": 1e6 * tr.mean("smoother.select"),
        "smoother.edge_ratio": (counts["smoother.edge_hits"]
                                / max(counts["smoother.selects"], 1)),
        "calibration.estimates": counts["calibration.estimates"],
        "calibration.estimate_ms": 1e3 * tr.mean("calibration.estimate_theta"),
        "calibration.loss_evals_per_estimate": (
            counts["calibration.loss_evals"] / max(counts["calibration.estimates"], 1)),
        "calibration.loss_eval_us": 1e6 * tr.mean("calibration.loss"),
        "numerics.minimize_ms": 1e3 * tr.mean("numerics.minimize_box"),
        "models.eta_calls": counts["models.eta_calls"],
        "models.eta_points": counts["models.eta_points"],
        "asymptotics.sandwich_us": 1e6 * tr.mean(
            "asymptotics.marginal_matrices", "asymptotics.conditional_matrices",
            "asymptotics.ols_matrices"),
        "scaling.adjust_us": 1e6 * tr.mean("scaling.magnitude_adjustment",
                                           "scaling.curvature_adjustment"),
        "posterior.laplace_us": 1e6 * tr.mean("posterior.laplace_approx"),
        "posterior.mcmc_steps": steps,
        "posterior.mcmc_step_us": (1e6 * tr.total("posterior.sample_posterior")
                                   / steps if steps else 0.0),
        "posterior.acceptance_rate": (statistics.fmean(
            p.acceptance_rate for p in tr.samples) if tr.samples else 0.0),
        "posterior.ess": counts["posterior.ess"],
        "posterior.rhat_max": max((float(p.rhat.max()) for p in tr.samples),
                                  default=0.0),
        "simharness.replicates": counts["simharness.replicates"],
        "simharness.replicate_ms_p50": percentile(replicate_ms, 50),
        "simharness.replicate_ms_p95": percentile(replicate_ms, 95),
        "simharness.oracle_s": tr.total("simharness.oracle_theta"),
        **{f"{m}.self_s": tr.self_s.get(m, 0.0) for m in MODULES},
    }
    return counts, metrics


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run_traced(wl: Workload, seed: int, seconds: float, smoke: bool,
               work: Path) -> tuple[dict, int]:
    book = Book(wl, smoke)
    nproc = os.cpu_count() or 1
    worker_counts = sorted({1, nproc}) if wl.pooled else [1]
    s = next(input_seeds(seed))
    untraced = {w: [] for w in worker_counts}
    traced_walls, per_call = [], []
    # untimed warm-up: every later report on this input must reproduce it
    warm = invoke(wl, s, 1, work)
    book.outputs(wl, s, warm)
    first_counts = None
    deadline = time.perf_counter() + seconds
    while len(per_call) < 2 or time.perf_counter() < deadline:
        calls = [(w, invoke(wl, s, w, work)) for w in worker_counts]
        tr = Tracer()
        with instrument(tr):
            traced = invoke(wl, s, 1, work, tracer=tr)
        counts, metrics = layer_metrics(tr)
        first_counts = first_counts or counts
        for w, call in calls:
            untraced[w].append(call.wall)
            book.check(call.text == warm.text,
                       f"seed {s}: report at {w} workers differs")
        book.check(traced.text == warm.text,
                   f"seed {s}: traced report differs from the untraced one")
        book.check(counts == first_counts, f"seed {s}: counters did not repeat: "
                                           f"{counts} vs {first_counts}")
        traced_walls.append(traced.wall)
        per_call.append(metrics)
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    one_worker = min(untraced[1])
    metrics["simharness.pool_efficiency"] = (
        one_worker / (nproc * min(untraced[nproc])) if wl.pooled else 0.0)
    metrics["trace.overhead_s"] = min(traced_walls) - one_worker
    return finish(book, metrics, PER_LAYER, len(per_call))


def finish(book: Book, values: dict, units: dict, calls: int) -> tuple[dict, int]:
    """The contract's result object, and the number of calls measured."""
    for problem in book.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics without a value or unit: {sorted(missing)}")
    return {"correct": book.failed_checks == 0,
            "attempted": book.attempted, "failed": book.failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}, calls


# ---------------------------------------------------------------------------
# environment and the one-command report
# ---------------------------------------------------------------------------

def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "l2calib").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "src_lines": src_lines,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def print_metrics(title: str, result: dict) -> None:
    print(f"{title}  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38}{m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    results = {"environment": {**environment(), "cpu_model": cpu_model()},
               "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
               "workloads": {}}
    ok = True
    for name in workloads(args.smoke):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
            print_metrics(f"{name} ({'traced' if trace else 'untraced'})", result)
            ok = ok and result["correct"]
    print("environment: " + json.dumps(results["environment"], sort_keys=True))
    RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULTS.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "l2calib" / "__init__.py").is_file():
        print(f"error: no l2calib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    table = workloads(args.smoke)
    if args.workload not in table:
        ap.error(f"--workload must be one of {sorted(table)}")
    wl = table[args.workload]
    run = run_traced if args.trace else run_untraced
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, calls = run(wl, args.seed, args.seconds, args.smoke, Path(tmp))
    print_metrics(f"{wl.name} seed={args.seed} trace={args.trace} calls={calls}",
                  result)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
