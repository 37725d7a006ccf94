"""Command-line front end.

Four commands: ``fit`` (smoother selection on one dataset), ``calibrate``
(full single-dataset pipeline with sandwich matrices and intervals),
``simulate`` (replicated coverage study) and ``table1`` (closed-form
coverage study on the straight-line scenario).

Configuration may come from flags, from a JSON file via ``--config``, or
both; explicit flags override file values. Each setting is declared once in
``SETTINGS`` and ``COMMANDS`` lists the settings of each command. Exit codes:
0 success, 1 run completed but raised warnings, 2 configuration error or bad
dataset, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from .asymptotics import (CONDITIONAL_FORMS, conditional_matrices,
                          marginal_matrices, ols_matrices)
from .calibration import estimate_theta, l2_loss_fn, linear_theta_hat
from .models import SCENARIO_NAMES, make_scenario
from .numerics import DEFAULT_QUAD_ORDER, build_rule
from .posterior import (INTERVAL_MODES, Prior, SamplerSettings,
                        conjugate_posterior, credible_interval, laplace_approx,
                        sample_posterior, write_draws_csv)
from .scaling import (ScalingError, curvature_adjustment,
                      magnitude_adjustment)
from .simharness import (ENGINES, SCALINGS, VARIANTS, ClosedFormStudyConfig,
                         StudyConfig, generate_replicate,
                         run_closed_form_study, run_study)
from .smoother import (KERNEL_FAMILIES, MIN_OBSERVATIONS, fit_smoother,
                       read_dataset_csv)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Setting:
    """One configuration key: value type, default, allowed values, a
    ``(test, message)`` bound on non-null values, and help text."""

    type: type
    default: object = None
    choices: tuple | None = None
    bound: tuple | None = None
    help: str | None = None


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low, f"must be >= {low}")


# defaults the library declares are read from it; None means unset
SETTINGS = {
    "seed": Setting(int, StudyConfig.seed, bound=_at_least(0)),
    "out": Setting(str, help="path for the JSON report"),
    "scenario": Setting(str, choices=SCENARIO_NAMES),
    "data": Setting(str, help="CSV dataset (x1..xk,y header)"),
    "n": Setting(int, bound=_at_least(MIN_OBSERVATIONS),
                 help="sample size when generating data"),
    "kernel": Setting(str, StudyConfig.kernel_family, choices=KERNEL_FAMILIES),
    "engine": Setting(str, StudyConfig.engine, choices=ENGINES),
    "scaling": Setting(str, "both", choices=SCALINGS + ("both",)),
    "variant": Setting(str, "both", choices=VARIANTS + ("both",)),
    "interval": Setting(str, StudyConfig.interval, choices=INTERVAL_MODES),
    "level": Setting(float, StudyConfig.level,
                     bound=(lambda v: 0.0 < v < 1.0, "must be in (0,1)")),
    "quad_order": Setting(int, DEFAULT_QUAD_ORDER, bound=_at_least(2)),
    "conditional_form": Setting(str, StudyConfig.conditional_form,
                                choices=CONDITIONAL_FORMS),
    "chains": Setting(int, SamplerSettings.chains, bound=_at_least(2)),
    "iterations": Setting(int, SamplerSettings.iterations, bound=_at_least(200)),
    "thin": Setting(int, SamplerSettings.thin, bound=_at_least(1)),
    "draws_out": Setting(str, help="CSV file for posterior draws (mcmc engine)"),
    "replicates": Setting(int, bound=_at_least(1)),
    "workers": Setting(int, bound=_at_least(1)),
    "summary_out": Setting(str, help="CSV file for the aggregate table"),
    "records": Setting(bool, False,
                       help="include per-replicate records in the JSON report"),
    "tau2": Setting(float, ClosedFormStudyConfig.tau2,
                    bound=(lambda v: v > 0.0, "must be positive")),
    "prior_in_interval": Setting(
        bool, ClosedFormStudyConfig.prior_in_interval,
        help="keep the normal prior inside the reported intervals"),
}
REQUIRED = ("scenario", "replicates")

_DATA = ("scenario", "data", "n", "kernel")
_ANALYSIS = ("engine", "scaling", "variant", "interval", "level", "quad_order",
             "conditional_form")
# command: (help, its settings in flag order, defaults that differ from SETTINGS)
COMMANDS = {
    "fit": ("select a smoother by cross validation", ("seed", "out") + _DATA, {}),
    "calibrate": ("single-dataset calibration report",
                  ("seed", "out") + _DATA + _ANALYSIS
                  + ("chains", "iterations", "thin", "draws_out"), {}),
    "simulate": ("replicated coverage study",
                 ("seed", "out", "scenario", "n", "kernel") + _ANALYSIS
                 + ("replicates", "workers", "summary_out", "records"), {}),
    "table1": ("closed-form coverage study, straight line",
               ("seed", "out", "replicates", "tau2", "level", "quad_order",
                "kernel", "prior_in_interval", "workers", "summary_out"),
               {"replicates": ClosedFormStudyConfig.replicates}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l2calib",
        description="Bayesian L2 calibration of inexact mathematical models.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_text, keys, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--print-config", action="store_true",
                       help="echo the resolved configuration and exit")
        for key in keys:
            s = SETTINGS[key]
            flag = "--" + key.replace("_", "-")
            if s.type is bool:
                p.add_argument(flag, action="store_true", default=None, help=s.help)
            else:
                p.add_argument(flag, type=s.type, choices=s.choices, help=s.help)
    return ap


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags, then validate."""
    command = args.command
    _, keys, overrides = COMMANDS[command]
    merged = {key: overrides.get(key, SETTINGS[key].default) for key in keys}
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
        file_command = file_cfg.pop("command", command)
        if file_command != command:
            raise ConfigError(f"config key 'command': file says {file_command!r}, "
                              f"command line says {command!r}")
        for key, value in file_cfg.items():
            if key not in merged:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value
    for key in keys:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    merged["command"] = command
    validate_config(merged)
    return merged


def validate_config(cfg: dict) -> None:
    for key, value in cfg.items():
        s = SETTINGS.get(key)
        if s is None or value is None and s.default is None:
            continue
        if s.type is float and type(value) is int:
            value = cfg[key] = float(value)
        if type(value) is not s.type:
            raise ConfigError(f"config key '{key}': expected {s.type.__name__}, "
                              f"got {type(value).__name__}")
        if s.choices is not None and value not in s.choices:
            raise ConfigError(f"config key '{key}': expected one of {s.choices}, "
                              f"got {value!r}")
        if s.bound is not None and not s.bound[0](value):
            raise ConfigError(f"{key.replace('_', '-')} {s.bound[1]}")
    for key in REQUIRED:
        if key in cfg and cfg[key] is None:
            raise ConfigError(f"config key '{key}': required")
    if cfg.get("data") and cfg.get("n") is not None:
        raise ConfigError("n and data are exclusive: a dataset has its own size")
    if cfg.get("engine") == "mcmc" and "iterations" in cfg:
        try:
            SamplerSettings(chains=cfg["chains"], iterations=cfg["iterations"],
                            thin=cfg["thin"]).check_kept_draws()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.get("engine") == "conjugate" and cfg.get("scenario") is not None:
        model, _, _ = make_scenario(cfg["scenario"])
        if not model.scalar_linear:
            raise ConfigError("engine 'conjugate' needs a scalar linear model; "
                              f"scenario {cfg['scenario']!r} is not")


def analyses_from(cfg: dict) -> tuple:
    variants = VARIANTS if cfg["variant"] == "both" else (cfg["variant"],)
    scalings = SCALINGS if cfg["scaling"] == "both" else (cfg["scaling"],)
    return tuple(f"{v}-{s}" for v in variants for s in scalings)


def load_or_generate(cfg: dict):
    """Return (model, system, data) for fit/calibrate commands."""
    model, system, defaults = make_scenario(cfg["scenario"])
    if cfg["data"]:
        try:
            data = read_dataset_csv(cfg["data"])
        except ValueError as exc:
            raise ConfigError(f"bad dataset: {exc}") from exc
        if data.k != model.x_box.lower.size:
            raise ConfigError(
                f"dataset has {data.k} input column(s); scenario "
                f"{cfg['scenario']!r} expects {model.x_box.lower.size}")
        if data.n < MIN_OBSERVATIONS:
            raise ConfigError(f"dataset has {data.n} row(s); at least "
                              f"{MIN_OBSERVATIONS} are needed")
    else:
        n = cfg["n"] if cfg["n"] is not None else defaults["n"]
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
    sw_cond = {form: conditional_matrices(est, fit, model, rule, form=form)
               for form in CONDITIONAL_FORMS}
    sw_ols = ols_matrices(est_ols, fit, model, rule)
    w_block = {"marginal": sw_marg.W.tolist(), "ols": sw_ols.W.tolist(),
               "ols_extra": sw_ols.W_E.tolist(),
               **{f"conditional-{f}": sw.W.tolist() for f, sw in sw_cond.items()}}

    base_loss = l2_loss_fn(fit, model, rule)
    analyses = {}
    samples = {}
    worst = 0
    for name in analyses_from(cfg):
        variant, kind = name.split("-")
        entry: dict = {"flags": []}
        sw = sw_marg if variant == "marginal" else sw_cond[cfg["conditional_form"]]
        try:
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
                entry["acceptance_rate"] = post.acceptance_rate
                entry["rhat"] = post.rhat.tolist()
                samples[name] = post
            elif cfg["engine"] == "conjugate":
                post = conjugate_posterior(linear_theta_hat(fit, rule), data.n,
                                           float("inf"), adj.scalar_gamma, rule)
            else:
                post = laplace_approx(est, adj, data.n)
            entry["flags"].extend(post.flags)
            ci = credible_interval(post, level=cfg["level"],
                                   mode=cfg["interval"])
            entry.update({"post_mean": post.mean.tolist(),
                          "post_sd": post.sd.tolist(), "interval": ci.tolist()})
        except (ScalingError, ValueError) as exc:
            entry["failed"] = True
            entry["flags"].append(f"analysis-failed: {exc}")
            worst = 1
        entry["flags"] = sorted(set(entry["flags"]))
        analyses[name] = entry
        flags.extend(entry["flags"])
    if cfg["draws_out"] and samples:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(_json_report(cfg))
            return 0
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
