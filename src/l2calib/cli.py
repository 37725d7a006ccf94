"""Command-line front end.

Four commands: ``fit`` (smoother selection on one dataset), ``calibrate``
(full single-dataset pipeline with sandwich matrices and intervals),
``simulate`` (replicated coverage study) and ``table1`` (closed-form
coverage study on the straight-line scenario).

Configuration may come from flags, from a JSON file via ``--config``, or
both; explicit flags override file values. Exit codes: 0 success, 1 run
completed but raised warnings, 2 configuration error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .asymptotics import (conditional_matrices, marginal_matrices,
                          ols_matrices)
from .calibration import estimate_theta, l2_loss_fn
from .models import SCENARIO_NAMES, make_scenario
from .numerics import build_rule
from .posterior import (Prior, SamplerSettings, credible_interval,
                        laplace_approx, sample_posterior, write_draws_csv)
from .scaling import (ScalingError, curvature_adjustment,
                      magnitude_adjustment)
from .simharness import (ClosedFormStudyConfig, StudyConfig,
                         generate_replicate, run_closed_form_study,
                         run_study)
from .smoother import fit_smoother, read_dataset_csv


class ConfigError(Exception):
    pass


# flag defaults per command; None marks required-or-derived values
DEFAULTS = {
    "fit": {
        "scenario": None, "data": None, "n": None, "seed": 0,
        "kernel": "gaussian", "out": None,
    },
    "calibrate": {
        "scenario": None, "data": None, "n": None, "seed": 0,
        "engine": "laplace", "scaling": "both", "variant": "both",
        "interval": "quantile", "level": 0.95, "quad_order": 64,
        "kernel": "gaussian", "conditional_form": "derived",
        "chains": 4, "iterations": 20_000, "thin": 4,
        "out": None, "draws_out": None,
    },
    "simulate": {
        "scenario": None, "replicates": None, "n": None, "seed": 0,
        "engine": "laplace", "scaling": "both", "variant": "both",
        "interval": "quantile", "level": 0.95, "quad_order": 64,
        "kernel": "gaussian", "conditional_form": "derived",
        "workers": None, "out": None, "summary_out": None, "records": False,
    },
    "table1": {
        "replicates": 10_000, "seed": 0, "tau2": 1.0, "level": 0.95,
        "quad_order": 64, "kernel": "gaussian", "prior_in_interval": False,
        "workers": None, "out": None, "summary_out": None,
    },
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l2calib",
        description="Bayesian L2 calibration of inexact mathematical models.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p):
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--print-config", action="store_true",
                       help="echo the resolved configuration and exit")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="path for the JSON report")

    def add_data(p):
        p.add_argument("--scenario", choices=SCENARIO_NAMES)
        p.add_argument("--data", help="CSV dataset (x1..xk,y header)")
        p.add_argument("--n", type=int, help="sample size when generating data")
        p.add_argument("--kernel", choices=("gaussian", "matern52"))

    def add_analysis(p):
        p.add_argument("--engine", choices=("mcmc", "laplace", "conjugate"))
        p.add_argument("--scaling", choices=("magnitude", "curvature", "both"))
        p.add_argument("--variant", choices=("marginal", "conditional", "both"))
        p.add_argument("--interval", choices=("quantile", "hpd"))
        p.add_argument("--level", type=float)
        p.add_argument("--quad-order", type=int, dest="quad_order")
        p.add_argument("--conditional-form", choices=("derived", "literal"),
                       dest="conditional_form")

    p = sub.add_parser("fit", help="select a smoother by cross validation")
    add_common(p)
    add_data(p)

    p = sub.add_parser("calibrate", help="single-dataset calibration report")
    add_common(p)
    add_data(p)
    add_analysis(p)
    p.add_argument("--chains", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--draws-out", dest="draws_out",
                   help="CSV file for posterior draws (mcmc engine)")

    p = sub.add_parser("simulate", help="replicated coverage study")
    add_common(p)
    add_data(p)
    add_analysis(p)
    p.add_argument("--replicates", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--summary-out", dest="summary_out",
                   help="CSV file for the aggregate table")
    p.add_argument("--records", action="store_true",
                   help="include per-replicate records in the JSON report")

    p = sub.add_parser("table1", help="closed-form coverage study, straight line")
    add_common(p)
    p.add_argument("--replicates", type=int)
    p.add_argument("--tau2", type=float)
    p.add_argument("--level", type=float)
    p.add_argument("--quad-order", type=int, dest="quad_order")
    p.add_argument("--kernel", choices=("gaussian", "matern52"))
    p.add_argument("--prior-in-interval", action="store_true",
                   dest="prior_in_interval",
                   help="keep the normal prior inside the reported intervals")
    p.add_argument("--workers", type=int)
    p.add_argument("--summary-out", dest="summary_out")
    return ap


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags, then validate."""
    command = args.command
    merged = dict(DEFAULTS[command])
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key == "command":
                if value != command:
                    raise ConfigError(
                        f"config key 'command': file says {value!r}, "
                        f"command line says {command!r}")
                continue
            if key not in merged:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value
    for key in merged:
        flag_val = getattr(args, key, None)
        if flag_val is not None and flag_val is not False:
            merged[key] = flag_val
    merged["command"] = command
    validate_config(merged)
    return merged


def validate_config(cfg: dict) -> None:
    command = cfg["command"]

    def need(key, kind, pred=None, msg=None):
        v = cfg.get(key)
        if v is None:
            return
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
            cfg[key] = v
        if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
            raise ConfigError(f"config key '{key}': expected {kind.__name__}, "
                              f"got {type(v).__name__}")
        if pred is not None and not pred(v):
            raise ConfigError(msg or f"config key '{key}': invalid value {v!r}")

    need("seed", int)
    need("n", int, lambda v: v >= 1, "n must be >= 1")
    need("level", float, lambda v: 0.0 < v < 1.0, "level must be in (0,1)")
    need("quad_order", int, lambda v: v >= 2, "quad-order must be >= 2")
    need("replicates", int, lambda v: v >= 1, "replicates must be >= 1")
    need("workers", int, lambda v: v >= 1, "workers must be >= 1")
    need("tau2", float, lambda v: v > 0.0, "tau2 must be positive")
    need("chains", int, lambda v: v >= 2, "chains must be >= 2")
    need("iterations", int, lambda v: v >= 200, "iterations must be >= 200")
    need("thin", int, lambda v: v >= 1, "thin must be >= 1")
    for key, choices in (("kernel", ("gaussian", "matern52")),
                         ("engine", ("mcmc", "laplace", "conjugate")),
                         ("scaling", ("magnitude", "curvature", "both")),
                         ("variant", ("marginal", "conditional", "both")),
                         ("interval", ("quantile", "hpd")),
                         ("conditional_form", ("derived", "literal"))):
        v = cfg.get(key)
        if v is not None and v not in choices:
            raise ConfigError(f"config key '{key}': expected one of {choices}, "
                              f"got {v!r}")
    if command in ("fit", "calibrate", "simulate") and cfg.get("scenario") is None:
        raise ConfigError("config key 'scenario': required")
    if cfg.get("scenario") is not None and cfg["scenario"] not in SCENARIO_NAMES:
        raise ConfigError(f"config key 'scenario': unknown scenario "
                          f"{cfg['scenario']!r}; choose from {SCENARIO_NAMES}")
    if command == "simulate" and cfg.get("replicates") is None:
        raise ConfigError("config key 'replicates': required")
    if cfg.get("engine") == "conjugate" and cfg.get("scenario") is not None:
        model, _, _ = make_scenario(cfg["scenario"])
        if not model.scalar_linear:
            raise ConfigError("engine 'conjugate' needs a scalar linear model; "
                              f"scenario {cfg['scenario']!r} is not")


def analyses_from(cfg: dict) -> tuple:
    variants = (("marginal", "conditional") if cfg["variant"] == "both"
                else (cfg["variant"],))
    scalings = (("magnitude", "curvature") if cfg["scaling"] == "both"
                else (cfg["scaling"],))
    return tuple(f"{v}-{s}" for v in variants for s in scalings)


def load_or_generate(cfg: dict):
    """Return (model, system, data, n) for fit/calibrate commands."""
    model, system, defaults = make_scenario(cfg["scenario"])
    if cfg.get("data"):
        data = read_dataset_csv(cfg["data"])
        if data.k != model.x_box.lower.size:
            raise ConfigError(
                f"dataset has {data.k} input column(s); scenario "
                f"{cfg['scenario']!r} expects {model.x_box.lower.size}")
    else:
        n = cfg["n"] if cfg.get("n") is not None else defaults["n"]
        data = generate_replicate(system, n, cfg["seed"])
    return model, system, data


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_summary_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        _write_text(path, "")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _json_report(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2)


def cmd_fit(cfg: dict) -> int:
    model, system, data = load_or_generate(cfg)
    fit = fit_smoother(data, family=cfg["kernel"])
    report = {
        "schema": 1,
        "kind": "fit",
        "config": {k: cfg[k] for k in ("scenario", "seed", "kernel", "n", "data")},
        "n": data.n,
        "lambda": fit.lam,
        "rho": fit.kernel.rho.tolist(),
        "gcv": fit.gcv_value,
        "sigma2_hat": fit.sigma2_hat,
        "trace_hat": fit.trace_hat,
        "fitted": fit.predict(data.design).tolist(),
        "flags": list(fit.flags),
    }
    text = _json_report(report)
    if cfg["out"]:
        _write_text(cfg["out"], text)
    print(f"n={data.n}  lambda={fit.lam:.6g}  rho={fit.kernel.rho.tolist()}  "
          f"sigma2_hat={fit.sigma2_hat:.6g}  gcv={fit.gcv_value:.6g}")
    for fl in fit.flags:
        print(f"warning: {fl}", file=sys.stderr)
    return 1 if fit.flags else 0


def cmd_calibrate(cfg: dict) -> int:
    model, system, data = load_or_generate(cfg)
    rule = build_rule(model.x_box.lower, model.x_box.upper, cfg["quad_order"])
    fit = fit_smoother(data, family=cfg["kernel"])
    est = estimate_theta(fit, model, rule, method="l2", seed=cfg["seed"])
    est_ols = estimate_theta(fit, model, rule=None, method="ols", seed=cfg["seed"])
    flags = sorted(set(fit.flags))
    if not est.converged:
        flags.append("estimate-not-converged")

    sw_marg = marginal_matrices(est, fit, model, rule)
    w_block = {"marginal": sw_marg.W.tolist()}
    for form in ("derived", "literal"):
        sw_c = conditional_matrices(est, fit, model, rule, form=form)
        w_block[f"conditional-{form}"] = sw_c.W.tolist()
    sw_ols = ols_matrices(est_ols, fit, model, rule)
    w_block["ols"] = sw_ols.W.tolist()
    w_block["ols_extra"] = sw_ols.W_E.tolist()

    base_loss = l2_loss_fn(fit, model, rule)
    analyses = {}
    samples = {}
    worst = 0
    for name in analyses_from(cfg):
        variant, kind = name.split("-")
        entry: dict = {"flags": []}
        try:
            sw = (sw_marg if variant == "marginal" else
                  conditional_matrices(est, fit, model, rule,
                                       form=cfg["conditional_form"]))
            adj = (magnitude_adjustment(sw) if kind == "magnitude"
                   else curvature_adjustment(sw, est.theta))
            entry["gamma"] = adj.gamma if adj.kind == "magnitude" else None
            entry["Gamma"] = (adj.Gamma.tolist() if adj.Gamma is not None
                              else None)
            if cfg["engine"] == "mcmc":
                from .scaling import scaled_loss
                loss = scaled_loss(adj, base_loss, model.theta_box)
                settings = SamplerSettings(
                    chains=cfg["chains"], iterations=cfg["iterations"],
                    thin=cfg["thin"], init=est.theta,
                    init_cov=laplace_approx(est, adj, data.n).cov)
                post = sample_posterior(loss, Prior.uniform(model.theta_box),
                                        data.n, seed=cfg["seed"],
                                        settings=settings)
                entry["flags"].extend(post.flags)
                entry["acceptance_rate"] = post.acceptance_rate
                entry["rhat"] = post.rhat.tolist()
                mean = post.draws.mean(axis=0)
                sd = post.draws.std(axis=0, ddof=1)
                samples[name] = post
            else:
                post = laplace_approx(est, adj, data.n)
                mean, sd = post.mean, post.sd
                entry["flags"].extend(post.flags)
            ci = credible_interval(post, level=cfg["level"],
                                   mode=cfg["interval"])
            entry.update({"post_mean": mean.tolist(), "post_sd": sd.tolist(),
                          "interval": ci.tolist()})
        except (ScalingError, ValueError) as exc:
            entry["failed"] = True
            entry["flags"].append(f"analysis-failed: {exc}")
            worst = 1
        entry["flags"] = sorted(set(entry["flags"]))
        analyses[name] = entry
        flags.extend(entry["flags"])
    if cfg.get("draws_out") and samples:
        write_draws_csv(samples, cfg["draws_out"])

    report = {
        "schema": 1,
        "kind": "calibrate",
        "config": {k: cfg[k] for k in ("scenario", "seed", "engine", "scaling",
                                       "variant", "interval", "level",
                                       "quad_order", "kernel",
                                       "conditional_form", "n", "data")},
        "n": data.n,
        "theta_hat": est.theta.tolist(),
        "theta_hat_ols": est_ols.theta.tolist(),
        "loss_value": est.value,
        "lambda": fit.lam,
        "rho": fit.kernel.rho.tolist(),
        "sigma2_hat": fit.sigma2_hat,
        "V": sw_marg.V.tolist(),
        "W": w_block,
        "analyses": analyses,
        "flags": sorted(set(flags)),
    }
    text = _json_report(report)
    if cfg["out"]:
        _write_text(cfg["out"], text)
    theta_txt = ", ".join(f"{t:.6g}" for t in est.theta)
    print(f"theta_hat = [{theta_txt}]  (n={data.n}, lambda={fit.lam:.3g})")
    for name, entry in analyses.items():
        if entry.get("failed"):
            print(f"  {name}: failed")
            continue
        mean_txt = ", ".join(f"{m:.6g}" for m in entry["post_mean"])
        ivs = "; ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in entry["interval"])
        print(f"  {name}: mean [{mean_txt}]  {cfg['level']:.0%} {ivs}")
    for fl in report["flags"]:
        print(f"warning: {fl}", file=sys.stderr)
    return 1 if (worst or report["flags"]) else 0


def cmd_simulate(cfg: dict) -> int:
    workers = cfg["workers"] or os.cpu_count() or 1
    study = StudyConfig(
        scenario=cfg["scenario"], replicates=cfg["replicates"], n=cfg["n"],
        seed=cfg["seed"], analyses=analyses_from(cfg), engine=cfg["engine"],
        interval=cfg["interval"], level=cfg["level"],
        quad_order=cfg["quad_order"], kernel_family=cfg["kernel"],
        conditional_form=cfg["conditional_form"], workers=workers)
    report = run_study(study)
    if cfg["out"]:
        _write_text(cfg["out"], report.to_json(include_records=cfg["records"]))
    rows = report.summary_rows()
    if cfg["summary_out"]:
        _write_summary_csv(cfg["summary_out"], rows)
    print(f"{'analysis':<28}{'coord':>6}{'coverage':>10}{'mean_len':>12}{'n_used':>8}")
    for r in rows:
        cov = f"{r['coverage']:.4f}" if r["coverage"] != "" else "-"
        ln = f"{r['mean_length']:.5g}" if r["mean_length"] != "" else "-"
        print(f"{r['analysis']:<28}{str(r['coordinate']):>6}{cov:>10}{ln:>12}"
              f"{r['n_used']:>8}")
    warned = bool(report.replicate_flags) or any(
        agg.get("n_failed") or agg.get("flag_counts")
        for agg in report.analyses.values())
    for key, count in report.replicate_flags.items():
        print(f"warning: {key} ({count} replicate(s))", file=sys.stderr)
    return 1 if warned else 0


def cmd_table1(cfg: dict) -> int:
    workers = cfg["workers"] or os.cpu_count() or 1
    study = ClosedFormStudyConfig(
        replicates=cfg["replicates"], seed=cfg["seed"], tau2=cfg["tau2"],
        level=cfg["level"], quad_order=cfg["quad_order"],
        kernel_family=cfg["kernel"], prior_in_interval=cfg["prior_in_interval"],
        workers=workers)
    report = run_closed_form_study(study)
    if cfg["out"]:
        _write_text(cfg["out"], report.to_json())
    rows = []
    for key, agg in report.analyses.items():
        n_part, gamma_part = key.split(",")
        row = {"n": n_part.split("=")[1], "gamma": gamma_part.split("=")[1],
               "coverage": agg.get("coverage", ""),
               "coverage_se": agg.get("coverage_se", ""),
               "mean_length": agg.get("mean_length", ""),
               "mean_gamma": agg.get("mean_gamma", ""),
               "n_used": agg.get("n_used", 0)}
        rows.append(row)
    if cfg["summary_out"]:
        _write_summary_csv(cfg["summary_out"], rows)
    print(f"{'n':>3}{'gamma':>10}{'coverage':>10}{'mean_len':>10}{'n_used':>8}")
    for r in rows:
        cov = f"{r['coverage']:.4f}" if r["coverage"] != "" else "-"
        ln = f"{r['mean_length']:.4f}" if r["mean_length"] != "" else "-"
        print(f"{r['n']:>3}{r['gamma']:>10}{cov:>10}{ln:>10}{r['n_used']:>8}")
    for key, count in report.replicate_flags.items():
        print(f"warning: {key} ({count} replicate(s))", file=sys.stderr)
    return 1 if report.replicate_flags else 0


HANDLERS = {"fit": cmd_fit, "calibrate": cmd_calibrate,
            "simulate": cmd_simulate, "table1": cmd_table1}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        print(_json_report(cfg))
        return 0
    try:
        return HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = getattr(exc, "filename", None)
        where = f" ({path})" if path else ""
        print(f"error: I/O failure{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
