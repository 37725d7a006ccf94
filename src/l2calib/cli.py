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
import functools
import json
import os
import sys
from dataclasses import dataclass

from .asymptotics import (CONDITIONAL_FORMS, conditional_matrices,
                          marginal_matrices, ols_matrices)
from .calibration import estimate_theta
from .models import SCENARIO_NAMES, make_scenario
from .numerics import build_rule
from .posterior import INTERVAL_MODES, SamplerSettings, sample_posterior, write_draws_csv
from .simharness import (ENGINES, SCALINGS, SHARED_BOUNDS, VARIANTS,
                         ClosedFormStudyConfig, StudyConfig, analysis_names,
                         check_engine, generate_replicate, report_json,
                         run_analyses, run_closed_form_study, run_study)
from .smoother import (KERNEL_FAMILIES, MIN_OBSERVATIONS, fit_smoother,
                       read_dataset_csv)

# not called here: perfbench/spans.py patches them on this module (ROADMAP item 1)
from .calibration import l2_loss_fn  # noqa: F401
from .posterior import credible_interval, laplace_approx  # noqa: F401
from .scaling import curvature_adjustment, magnitude_adjustment  # noqa: F401


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


# defaults the library declares are read from it; None means unset
SETTINGS = {
    "seed": Setting(int, StudyConfig.seed, bound=SHARED_BOUNDS["seed"]),
    "out": Setting(str, help="path for the JSON report"),
    "scenario": Setting(str, choices=SCENARIO_NAMES),
    "data": Setting(str, help="CSV dataset (x1..xk,y header)"),
    "n": Setting(int, bound=SHARED_BOUNDS["n"],
                 help="sample size when generating data"),
    "kernel": Setting(str, StudyConfig.kernel_family, choices=KERNEL_FAMILIES),
    "engine": Setting(str, StudyConfig.engine, choices=ENGINES),
    "scaling": Setting(str, "both", choices=SCALINGS + ("both",)),
    "variant": Setting(str, "both", choices=VARIANTS + ("both",)),
    "interval": Setting(str, StudyConfig.interval, choices=INTERVAL_MODES),
    "level": Setting(float, StudyConfig.level, bound=SHARED_BOUNDS["level"]),
    "quad_order": Setting(int, StudyConfig.quad_order, bound=SHARED_BOUNDS["quad_order"]),
    "conditional_form": Setting(str, StudyConfig.conditional_form,
                                choices=CONDITIONAL_FORMS),
    "chains": Setting(int, SamplerSettings.chains),
    "iterations": Setting(int, SamplerSettings.iterations),
    "thin": Setting(int, SamplerSettings.thin),
    "draws_out": Setting(str, help="CSV file for posterior draws (mcmc engine)"),
    "replicates": Setting(int, bound=SHARED_BOUNDS["replicates"]),
    "workers": Setting(int, bound=SHARED_BOUNDS["workers"]),
    "summary_out": Setting(str, help="CSV file for the aggregate table"),
    "records": Setting(bool, False,
                       help="include per-replicate records in the JSON report"),
    "tau2": Setting(float, ClosedFormStudyConfig.tau2, bound=SHARED_BOUNDS["tau2"]),
    "prior_in_interval": Setting(
        bool, ClosedFormStudyConfig.prior_in_interval,
        help="keep the normal prior inside the reported intervals"),
}
REQUIRED = ("scenario", "replicates")

_DATA = ("scenario", "data", "n", "kernel")
_ANALYSIS = ("engine", "scaling", "variant", "interval", "level", "quad_order",
             "conditional_form")
_SAMPLER = ("chains", "iterations", "thin")
# command: (help, its settings in flag order, defaults that differ from SETTINGS)
COMMANDS = {
    "fit": ("select a smoother by cross validation", ("seed", "out") + _DATA, {}),
    "calibrate": ("single-dataset calibration report",
                  ("seed", "out") + _DATA + _ANALYSIS + _SAMPLER + ("draws_out",), {}),
    "simulate": ("replicated coverage study",
                 ("seed", "out", "scenario", "n", "kernel") + _ANALYSIS + _SAMPLER
                 + ("replicates", "workers", "summary_out", "records"), {}),
    "table1": ("closed-form coverage study, straight line",
               ("seed", "out", "replicates", "tau2", "level", "quad_order",
                "kernel", "prior_in_interval", "workers", "summary_out"),
               {"replicates": ClosedFormStudyConfig.replicates}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call returns a fresh namespace."""
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
    if cfg.get("draws_out") and cfg.get("engine") != "mcmc":
        raise ConfigError("draws-out needs --engine mcmc: no other engine draws")
    if "engine" in cfg:
        try:
            check_engine(cfg["engine"], cfg["scenario"], chains=cfg["chains"],
                         iterations=cfg["iterations"], thin=cfg["thin"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def analyses_from(cfg: dict) -> tuple:
    return analysis_names(VARIANTS if cfg["variant"] == "both" else (cfg["variant"],),
                          SCALINGS if cfg["scaling"] == "both" else (cfg["scaling"],))


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


def _finish(cfg: dict, text: str, lines: list[str], warnings, rows=None,
            flagged: bool = False) -> int:
    """The tail of every command: write the report and the summary CSV where asked,
    print the lines and the warnings; exit 1 on a warning or another flag."""
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    if cfg.get("summary_out"):     # a study has at least one summary row
        with open(cfg["summary_out"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    print(*lines, sep="\n")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 1 if warnings or flagged else 0


def _finish_study(cfg: dict, report, header: str, row_line) -> int:
    """``_finish`` for a study: a header and a line per summary row, a warning
    per replicate flag, and exit 1 on the flags of an analysis as well."""
    rows = report.summary_rows()
    return _finish(cfg, report.to_json(include_records=cfg.get("records", False)),
                   [header, *map(row_line, rows)],
                   [f"{k} ({c} replicate(s))" for k, c in report.replicate_flags.items()],
                   rows, any(agg.get("flag_counts") for agg in report.analyses.values()))


def _cell(value, spec: str) -> str:
    """A summary value as printed; "-" where the row has none."""
    return "-" if value == "" else format(value, spec)


def _study_config(cls, cfg: dict, **fields):
    """A ``cls`` study config from the settings both studies share."""
    return cls(replicates=cfg["replicates"], seed=cfg["seed"], level=cfg["level"],
               quad_order=cfg["quad_order"], kernel_family=cfg["kernel"],
               workers=cfg["workers"] or os.cpu_count() or 1, **fields)


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
    return _finish(cfg, report_json(report),
                   [f"n={data.n}  lambda={fit.lam:.6g}  rho={fit.kernel.rho.tolist()}  "
                    f"sigma2_hat={fit.sigma2_hat:.6g}  gcv={fit.gcv_value:.6g}"],
                   report["flags"])


def cmd_calibrate(cfg: dict) -> int:
    model, system, data = load_or_generate(cfg)
    rule = build_rule(model.x_box.lower, model.x_box.upper, cfg["quad_order"])
    fit = fit_smoother(data, family=cfg["kernel"])
    est = estimate_theta(fit, model, rule, method="l2", seed=cfg["seed"])
    est_ols = estimate_theta(fit, model, rule=None, method="ols", seed=cfg["seed"])

    sw_marg = marginal_matrices(est, fit, model, rule)
    sw_cond = {form: conditional_matrices(est, fit, model, rule, form=form)
               for form in CONDITIONAL_FORMS}
    sw_ols = ols_matrices(est_ols, fit, model, rule)
    w_block = {"marginal": sw_marg.W.tolist(), "ols": sw_ols.W.tolist(),
               "ols_extra": sw_ols.W_E.tolist(),
               **{f"conditional-{f}": sw.W.tolist() for f, sw in sw_cond.items()}}

    results = run_analyses(
        analyses_from(cfg), est, fit, model, rule,
        {"marginal": sw_marg, "conditional": sw_cond[cfg["conditional_form"]]}.get,
        cfg["engine"], cfg["level"], cfg["interval"], cfg["seed"],
        SamplerSettings(cfg["chains"], cfg["iterations"], cfg["thin"]),
        sampler=sample_posterior)
    theta_txt = ", ".join(f"{t:.6g}" for t in est.theta)
    lines = [f"theta_hat = [{theta_txt}]  (n={data.n}, lambda={fit.lam:.3g})"]
    analyses, samples = {}, {}
    for name, (entry, adj, post) in results.items():
        analyses[name] = entry
        if adj is not None:
            entry["gamma"] = adj.gamma if adj.kind == "magnitude" else None
            entry["Gamma"] = adj.Gamma.tolist() if adj.Gamma is not None else None
        if cfg["engine"] == "mcmc" and post is not None:
            entry.update(acceptance_rate=post.acceptance_rate, rhat=post.rhat.tolist())
            samples[name] = post
        if entry.get("failed"):
            lines.append(f"  {name}: failed")
            continue
        mean_txt = ", ".join(f"{m:.6g}" for m in entry["post_mean"])
        ivs = "; ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in entry["interval"])
        lines.append(f"  {name}: mean [{mean_txt}]  {100 * cfg['level']:g}% {ivs}")
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
        "flags": sorted({*fit.flags, *est.flags,
                         *(f for entry in analyses.values() for f in entry["flags"])}),
    }
    return _finish(cfg, report_json(report), lines, report["flags"])


def cmd_simulate(cfg: dict) -> int:
    report = run_study(_study_config(
        StudyConfig, cfg, scenario=cfg["scenario"], n=cfg["n"],
        analyses=analyses_from(cfg), engine=cfg["engine"], interval=cfg["interval"],
        conditional_form=cfg["conditional_form"], mcmc_chains=cfg["chains"],
        mcmc_iterations=cfg["iterations"], mcmc_thin=cfg["thin"]))
    return _finish_study(
        cfg, report,
        f"{'analysis':<28}{'coord':>6}{'coverage':>10}{'mean_len':>12}{'n_used':>8}",
        lambda r: (f"{r['analysis']:<28}{str(r['coordinate']):>6}"
                   f"{_cell(r['coverage'], '.4f'):>10}{_cell(r['mean_length'], '.5g'):>12}"
                   f"{r['n_used']:>8}"))


def cmd_table1(cfg: dict) -> int:
    report = run_closed_form_study(_study_config(
        ClosedFormStudyConfig, cfg, tau2=cfg["tau2"],
        prior_in_interval=cfg["prior_in_interval"]))
    return _finish_study(
        cfg, report,
        f"{'n':>3}{'gamma':>10}{'coverage':>10}{'mean_len':>10}{'n_used':>8}",
        lambda r: (f"{r['n']:>3}{r['gamma']:>10}{_cell(r['coverage'], '.4f'):>10}"
                   f"{_cell(r['mean_length'], '.4f'):>10}{r['n_used']:>8}"))


HANDLERS = {"fit": cmd_fit, "calibrate": cmd_calibrate,
            "simulate": cmd_simulate, "table1": cmd_table1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(report_json(cfg))
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
