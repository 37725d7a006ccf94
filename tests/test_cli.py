import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2calib import cli
from l2calib.asymptotics import conditional_matrices, marginal_matrices
from l2calib.calibration import estimate_theta, linear_theta_hat
from l2calib.cli import SETTINGS, build_parser, main
from l2calib.numerics import DEFAULT_QUAD_ORDER, build_rule, set_blas_threads
from l2calib.posterior import SamplerSettings, conjugate_posterior
from l2calib import simharness
from l2calib.scaling import ScalingError, curvature_adjustment, magnitude_gamma
from l2calib.simharness import (SCALINGS, VARIANTS, StudyConfig, generate_replicate,
                                parse_analysis, run_study)
from l2calib.models import SCENARIO_NAMES, make_scenario
from l2calib.smoother import fit_smoother
from oracles import write_dataset_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_fit_generated_data(tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc = main(["fit", "--scenario", "simple-linear", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n=8")
    report = json.loads(out.read_text())
    assert report["schema"] == 1 and report["kind"] == "fit"
    assert report["lambda"] > 0
    assert len(report["fitted"]) == 8
    assert report["config"]["scenario"] == "simple-linear"


def test_fit_n_override(tmp_path):
    out = tmp_path / "fit.json"
    rc = main(["fit", "--scenario", "simple-linear", "--n", "12",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 12


def test_fit_reads_csv_dataset(tmp_path):
    _, system, _ = make_scenario("scenario2")
    data = generate_replicate(system, 30, seed=3)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    out = tmp_path / "fit.json"
    rc = main(["fit", "--scenario", "scenario2", "--data", str(path),
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 30


@pytest.mark.parametrize("text, message", [
    ("x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n", "input column"),
    ("x1,y\n0.1,1.0\n0.3,abc\n0.5,3.0\n", "non-numeric value"),
    ("x1,y\n0.1,1.0\n0.1,2.0\n0.5,3.0\n", "duplicate rows"),
    ("x1,y\n0.1,1.0\n0.3,2.0\n", "at least 3"),
], ids=["wrong-column-count", "non-numeric", "duplicate-rows", "two-rows"])
def test_fit_rejects_wrong_column_count(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    rc = main(["fit", "--scenario", "scenario2", "--data", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_calibrate_report(tmp_path, capsys):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--scenario", "simple-linear", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "calibrate"
    assert len(report["theta_hat"]) == 1
    assert set(report["W"]) == {"marginal", "conditional-derived",
                                "conditional-literal", "ols", "ols_extra"}
    assert set(report["analyses"]) == {"marginal-magnitude",
                                       "marginal-curvature",
                                       "conditional-magnitude",
                                       "conditional-curvature"}
    for entry in report["analyses"].values():
        assert not entry.get("failed")
        lo, hi = entry["interval"][0]
        assert lo < report["theta_hat"][0] < hi
    assert "theta_hat =" in capsys.readouterr().out


@pytest.mark.parametrize("level, printed", [(0.95, "95%"), (0.9999, "99.99%")])
def test_calibrate_prints_the_level_unrounded(capsys, level, printed):
    # a rounding format printed 0.9999 as 100%
    assert main(["calibrate", "--scenario", "simple-linear", "--level", str(level)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ": mean [" in ln]
    assert len(lines) == 4 and all(f"]  {printed} [" in ln for ln in lines)


def test_calibrate_conjugate_engine_uses_closed_form(tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--scenario", "simple-linear", "--seed", "2",
               "--engine", "conjugate", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    model, system, defaults = make_scenario("simple-linear")
    rule = build_rule(model.x_box.lower, model.x_box.upper, DEFAULT_QUAD_ORDER)
    data = generate_replicate(system, defaults["n"], 2)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, seed=2)
    sandwiches = {"marginal": marginal_matrices(est, fit, model, rule),
                  "conditional": conditional_matrices(est, fit, model, rule)}
    for name, entry in report["analyses"].items():
        variant, kind = name.split("-")
        sw = sandwiches[variant]
        gamma = (magnitude_gamma(sw) if kind == "magnitude"
                 else float(curvature_adjustment(sw, est.theta).Gamma[0, 0]) ** 2)
        exact = conjugate_posterior(linear_theta_hat(fit, rule), data.n,
                                    tau2=np.inf, gamma=gamma, rule=rule)
        assert entry["post_mean"] == exact.mean.tolist()
        assert entry["post_sd"] == exact.sd.tolist()


def test_calibrate_mcmc_engine_writes_draws(tmp_path):
    out = tmp_path / "cal.json"
    draws = tmp_path / "draws.csv"
    rc = main(["calibrate", "--scenario", "simple-linear", "--seed", "1",
               "--engine", "mcmc", "--chains", "2", "--iterations", "1000",
               "--thin", "2", "--scaling", "magnitude", "--variant", "marginal",
               "--out", str(out), "--draws-out", str(draws)])
    assert rc in (0, 1)  # short chains may trip the acceptance-band flag
    report = json.loads(out.read_text())
    entry = report["analyses"]["marginal-magnitude"]
    assert "acceptance_rate" in entry and "rhat" in entry
    with open(draws, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["analysis", "theta_1", "chain"]
    assert len(rows) - 1 == 2 * 250
    assert {r[0] for r in rows[1:]} == {"marginal-magnitude"}


def test_calibrate_draws_out_keeps_every_analysis(tmp_path):
    draws = tmp_path / "draws.csv"
    rc = main(["calibrate", "--scenario", "simple-linear", "--seed", "1",
               "--engine", "mcmc", "--chains", "2", "--iterations", "600",
               "--thin", "3", "--scaling", "both", "--variant", "marginal",
               "--draws-out", str(draws)])
    assert rc in (0, 1)
    with open(draws, newline="") as fh:
        counts = Counter(r["analysis"] for r in csv.DictReader(fh))
    kept = 2 * (600 // 2) // 3  # chains x post-burn-in iterations / thin
    assert counts == {"marginal-magnitude": kept, "marginal-curvature": kept}


@pytest.mark.parametrize("engine", ["laplace", "conjugate"])
def test_calibrate_refuses_draws_out_without_the_sampler(tmp_path, capsys, engine):
    draws = tmp_path / "draws.csv"
    rc = main(["calibrate", "--scenario", "simple-linear", "--engine", engine,
               "--draws-out", str(draws)])
    assert rc == 2
    assert "--engine mcmc" in capsys.readouterr().err
    assert not draws.exists()


def _singular_w(*args, **kwargs):
    raise ScalingError("W is singular")


def test_calibrate_exits_1_when_an_analysis_fails(tmp_path, monkeypatch, capsys):
    # the same run exits 0 in test_calibrate_report; the failed analyses'
    # flag alone must turn the exit code to 1
    monkeypatch.setattr(simharness, "curvature_adjustment", _singular_w)
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--scenario", "simple-linear", "--seed", "0",
               "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    for name, entry in report["analyses"].items():
        assert entry.get("failed", False) == name.endswith("-curvature")
    assert report["flags"] == ["analysis-failed: W is singular"]
    captured = capsys.readouterr()
    assert "marginal-curvature: failed" in captured.out
    assert "warning: analysis-failed: W is singular" in captured.err


def test_simulate_exits_1_when_an_analysis_fails(tmp_path, monkeypatch):
    # the same run exits 0 in test_simulate_records_flag
    monkeypatch.setattr(simharness, "curvature_adjustment", _singular_w)
    out = tmp_path / "study.json"
    rc = main(["simulate", "--scenario", "simple-linear", "--replicates", "1",
               "--seed", "0", "--workers", "1", "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["replicate_flags"] == {}
    for name, agg in report["analyses"].items():
        failed = int(name.endswith("-curvature"))
        assert agg["n_failed"] == failed
        assert agg["flag_counts"] == ({"analysis-failed": 1} if failed else {})


# what calibrate and a study's replicate share of each analysis entry
_SHARED_ENTRY = ("post_mean", "post_sd", "interval", "flags", "failed")


def _report_of(argv) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        assert main([*argv, "--out", out]) in (0, 1)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _shared_entries(analyses: dict) -> dict:
    return {name: {k: entry.get(k) for k in _SHARED_ENTRY}
            for name, entry in analyses.items()}


@pytest.mark.parametrize("scenario, engine", [
    *((scenario, "laplace") for scenario in SCENARIO_NAMES),
    ("simple-linear", "conjugate")])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_calibrate_agrees_with_a_one_replicate_simulate(scenario, engine, seed):
    # both commands run each analysis through the one shared path, so replicate
    # 0 of a study with calibrate's seed reports calibrate's posteriors
    argv = ["--scenario", scenario, "--engine", engine, "--seed", str(seed)]
    cal = _report_of(["calibrate", *argv])
    sim = _report_of(["simulate", *argv, "--replicates", "1", "--workers", "1",
                      "--records"])
    assert _shared_entries(cal["analyses"]) == \
        _shared_entries(sim["records"][0]["analyses"])


@pytest.mark.parametrize("scenario", ["scenario1", "simple-linear"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_calibrate_agrees_with_a_one_replicate_study_under_mcmc(scenario, seed):
    cal = _report_of(["calibrate", "--scenario", scenario, "--engine", "mcmc",
                      "--seed", str(seed), "--chains", "2", "--iterations", "200",
                      "--thin", "1"])
    study = run_study(StudyConfig(scenario=scenario, replicates=1, seed=seed,
                                  engine="mcmc", mcmc_chains=2, mcmc_iterations=200,
                                  mcmc_thin=1))
    assert _shared_entries(cal["analyses"]) == \
        _shared_entries(study.records[0]["analyses"])


def test_simulate_reports_and_summary(tmp_path, capsys):
    out = tmp_path / "study.json"
    summary = tmp_path / "summary.csv"
    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "2",
               "--seed", "11", "--workers", "1", "--out", str(out),
               "--summary-out", str(summary)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "study"
    assert "records" not in report
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["analysis"] for r in rows} == set(report["analyses"])
    table = capsys.readouterr().out
    assert "coverage" in table and "marginal-magnitude" in table


def test_simulate_records_flag(tmp_path):
    out = tmp_path / "study.json"
    rc = main(["simulate", "--scenario", "simple-linear", "--replicates", "1",
               "--seed", "0", "--workers", "1", "--records",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["records"]) == 1


def test_simulate_bytes_identical_across_workers(tmp_path):
    args = ["simulate", "--scenario", "simple-linear", "--replicates", "3",
            "--seed", "4"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("n", [399, 450])
def test_simulate_bytes_identical_across_workers_on_two_blas_threads(tmp_path, n):
    # a 2-thread eigh rounds differently from about n = 150 and a 2-thread solve
    # against it from about n = 385; the smoother pins only designs below 400
    # points, so from there on a study slice in this process must run as a pool
    # worker's does, on one thread
    previous = set_blas_threads(2)
    args = ["simulate", "--scenario", "scenario1", "--n", str(n), "--replicates", "2",
            "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    try:
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
    finally:
        if previous is not None:
            set_blas_threads(previous)
    assert out1.read_bytes() == out2.read_bytes()


def test_table1_small_run(tmp_path, capsys):
    out = tmp_path / "t1.json"
    summary = tmp_path / "t1.csv"
    rc = main(["table1", "--replicates", "50", "--seed", "1", "--workers", "1",
               "--out", str(out), "--summary-out", str(summary)])
    assert rc in (0, 1)
    report = json.loads(out.read_text())
    assert report["kind"] == "closed-form-study"
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {(r["n"], r["gamma"]) for r in rows} == {
        ("4", "1"), ("4", "15"), ("4", "matched"),
        ("8", "1"), ("8", "15"), ("8", "matched")}
    assert "coverage" in capsys.readouterr().out


def test_print_config(capsys):
    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "5",
               "--print-config"])
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["command"] == "simulate"
    assert cfg["scenario"] == "scenario2"
    assert cfg["replicates"] == 5
    assert cfg["level"] == 0.95


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"command": "simulate",
                                 "scenario": "scenario2",
                                 "replicates": 2, "level": 0.9}))
    rc = main(["simulate", "--config", str(cfile), "--level", "0.95",
               "--print-config"])
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["level"] == 0.95       # flag beats file
    assert cfg["replicates"] == 2     # file beats default


# simulate settings with a file value and a flag value, both unlike the default
_LAYERED = {"seed": (5, 7), "n": (20, 25), "level": (0.9, 0.8),
            "quad_order": (32, 16), "workers": (2, 3),
            "variant": ("marginal", "conditional"),
            "scaling": ("magnitude", "curvature")}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(sorted(_LAYERED))),
       st.sets(st.sampled_from(sorted(_LAYERED))))
def test_config_precedence_flag_over_file_over_default(in_file, on_flags):
    argv = ["simulate", "--scenario", "scenario2", "--replicates", "2",
            "--print-config"]
    for key in sorted(on_flags):
        argv += ["--" + key.replace("_", "-"), str(_LAYERED[key][1])]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({key: _LAYERED[key][0] for key in in_file}, fh)
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--config", path]) == 0
    shown = json.loads(out.getvalue())
    for key, (file_value, flag_value) in _LAYERED.items():
        expected = (flag_value if key in on_flags else
                    file_value if key in in_file else cli.SETTINGS[key].default)
        assert shown[key] == expected, key


def test_config_errors(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"scenario": "scenario2", "bogus": 1}))
    rc = main(["simulate", "--config", str(cfile), "--replicates", "2"])
    assert rc == 2
    assert "unknown config key: bogus" in capsys.readouterr().err

    cfile.write_text(json.dumps({"command": "fit"}))
    assert main(["simulate", "--config", str(cfile), "--scenario", "scenario2",
                 "--replicates", "2"]) == 2

    cfile.write_text("{not json")
    rc = main(["simulate", "--config", str(cfile), "--scenario", "scenario2",
               "--replicates", "2"])
    assert rc == 2
    assert "valid JSON" in capsys.readouterr().err

    rc = main(["simulate", "--config", str(tmp_path / "missing.json"),
               "--scenario", "scenario2", "--replicates", "2"])
    assert rc == 2


def test_validation_errors(capsys):
    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "2",
               "--level", "1.5"])
    assert rc == 2
    assert "level must be in (0,1)" in capsys.readouterr().err

    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "0"])
    assert rc == 2
    assert "replicates must be >= 1" in capsys.readouterr().err

    rc = main(["simulate", "--replicates", "2"])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err

    rc = main(["fit", "--scenario", "scenario2", "--seed", "-1"])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err

    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "2",
               "--n", "2"])
    assert rc == 2
    assert "n must be >= 3" in capsys.readouterr().err

    # the message ClosedFormStudyConfig gives
    rc = main(["table1", "--replicates", "2", "--tau2", "0"])
    assert rc == 2
    assert "tau2 must be > 0" in capsys.readouterr().err

    for command in ("fit", "calibrate"):
        rc = main([command, "--scenario", "scenario2", "--data", "data.csv",
                   "--n", "12"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n and data")


@pytest.mark.parametrize("command, extra", [("calibrate", []),
                                            ("simulate", ["--replicates", "2"])])
def test_conjugate_engine_needs_linear_scenario(monkeypatch, capsys, command, extra):
    monkeypatch.setattr(cli, "run_study", lambda *a: pytest.fail("study ran"))
    rc = main([command, "--scenario", "scenario2", "--engine", "conjugate", *extra])
    assert rc == 2
    assert capsys.readouterr().err == ("error: engine 'conjugate' needs a scalar linear "
                                       "model; scenario 'scenario2' is not\n")


@pytest.mark.parametrize("variant", SETTINGS["variant"].choices)
@pytest.mark.parametrize("scaling", SETTINGS["scaling"].choices)
def test_analysis_names_parse_back(variant, scaling):
    # every name the CLI builds is one the study config accepts, and reads
    # back as the variant and scaling it was built from
    variants = VARIANTS if variant == "both" else (variant,)
    scalings = SCALINGS if scaling == "both" else (scaling,)
    names = cli.analyses_from({"variant": variant, "scaling": scaling})
    assert [parse_analysis(name) for name in names] == \
        [(v, s, None) for v in variants for s in scalings]


@pytest.mark.parametrize("chains, iterations, thin, message", [
    (1, 2000, 4, "split R-hat needs at least 2"),   # 250 kept draws on one chain
    (4, 200, 50, "split R-hat needs 4"),        # 2 kept draws per chain
    (2, 200, 20, "interval needs 100"),          # 2 x 5 kept draws
    (3, 1000, 16, "interval needs 100"),         # 3 x 32 kept draws
])
def test_calibrate_rejects_too_few_kept_draws_before_sampling(
        monkeypatch, capsys, chains, iterations, thin, message):
    calls = []
    monkeypatch.setattr(cli, "sample_posterior", lambda *a, **k: calls.append(a))
    rc = main(["calibrate", "--scenario", "scenario2", "--engine", "mcmc",
               "--chains", str(chains), "--iterations", str(iterations),
               "--thin", str(thin)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("engine", ["mcmc", "laplace"])
# too few chains or kept draws, settings that do not build, and 2 x 100 kept draws
@pytest.mark.parametrize("chains, iterations, thin", [
    (1, 2000, 4), (2, 100, 1), (4, 199, 4), (4, 200, 50), (2, 200, 20),
    (0, 2000, 4), (2, 2000, 0), (4, 9, 1), (2, 200, 1)])
def test_calibrate_refuses_the_sampler_settings_the_study_config_refuses(
        capsys, engine, chains, iterations, thin):
    try:
        StudyConfig(scenario="scenario1", replicates=1, engine=engine, mcmc_chains=chains,
                    mcmc_iterations=iterations, mcmc_thin=thin)
        message = None
    except ValueError as exc:
        message = str(exc)
    rc = main(["calibrate", "--scenario", "scenario1", "--engine", engine,
               "--chains", str(chains), "--iterations", str(iterations),
               "--thin", str(thin), "--print-config"])
    assert rc == (0 if message is None else 2)
    if message is not None:
        assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_passes_its_sampler_flags_to_the_study(tmp_path):
    out = tmp_path / "study.json"
    rc = main(["simulate", "--scenario", "simple-linear", "--engine", "mcmc",
               "--variant", "marginal", "--scaling", "magnitude", "--replicates", "1",
               "--workers", "1", "--chains", "2", "--iterations", "200", "--thin", "1",
               "--out", str(out)])
    assert rc in (0, 1)    # short chains may trip the acceptance-band flag
    cfg = json.loads(out.read_text())["config"]
    assert (cfg["mcmc_chains"], cfg["mcmc_iterations"], cfg["mcmc_thin"]) == (2, 200, 1)


# one chain; 2 kept draws per chain; 2 x 5 kept draws
@pytest.mark.parametrize("chains, iterations, thin", [(1, 2000, 4), (4, 200, 50), (2, 200, 20)])
def test_simulate_refuses_too_few_kept_draws(monkeypatch, capsys, chains, iterations, thin):
    with pytest.raises(ValueError) as exc:
        SamplerSettings(chains, iterations, thin).check_kept_draws()
    monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("the study ran"))
    rc = main(["simulate", "--scenario", "scenario1", "--engine", "mcmc", "--replicates", "2",
               "--chains", str(chains), "--iterations", str(iterations), "--thin", str(thin)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_simulate_refuses_data_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "scenario2", "--replicates", "2",
              "--data", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--data" in capsys.readouterr().err


@pytest.mark.parametrize("command, required", [
    ("fit", ["--scenario", "scenario2"]),
    ("calibrate", ["--scenario", "scenario2"]),
    ("simulate", ["--scenario", "scenario2", "--replicates", "2"]),
    ("table1", []),
])
def test_parser_flags_match_printed_config(capsys, command, required):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {opt for action in sub.choices[command]._actions
             for opt in action.option_strings
             if opt not in ("-h", "--help", "--config", "--print-config")}
    assert main([command, *required, "--print-config"]) == 0
    keys = set(json.loads(capsys.readouterr().out)) - {"command"}
    assert flags == {"--" + key.replace("_", "-") for key in keys}


def test_consecutive_calls_match_fresh_calls(tmp_path, capsys):
    # the parser is built once per process; each command must still see only
    # its own flags and defaults, whatever ran before it
    runs = [
        ("table1", "--replicates", "5", "--workers", "1", "--prior-in-interval"),
        ("fit", "--scenario", "scenario2", "--n", "12"),
        ("calibrate", "--scenario", "simple-linear", "--engine", "conjugate"),
        ("simulate", "--scenario", "simple-linear", "--replicates", "2",
         "--workers", "1", "--records"),
        ("table1", "--replicates", "4", "--workers", "1", "--seed", "3"),
        ("fit", "--scenario", "simple-linear"),
    ]

    def run(argv, out):
        rc = main([*argv, "--out", str(out)])
        return rc, out.read_text(), capsys.readouterr()

    assert build_parser() is build_parser()
    consecutive = [run(argv, tmp_path / f"seq{k}.json") for k, argv in enumerate(runs)]
    for k, argv in enumerate(runs):
        build_parser.cache_clear()
        assert run(argv, tmp_path / f"seq{k}.json") == consecutive[k], argv


def test_config_type_check(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"scenario": "scenario2", "replicates": 2,
                                 "seed": "zero"}))
    rc = main(["simulate", "--config", str(cfile)])
    assert rc == 2
    assert "expected int" in capsys.readouterr().err


def test_io_failure(tmp_path, capsys):
    rc = main(["fit", "--scenario", "simple-linear",
               "--out", str(tmp_path / "no-such-dir" / "fit.json")])
    assert rc == 3
    assert "I/O failure" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    code = ("import sys, l2calib.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only a study with more than one worker imports the pool machinery
    code = ("import sys, l2calib.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_commands_keep_the_host_blas_thread_count(monkeypatch):
    # study slices are pinned to one BLAS thread; a command outside a study
    # keeps the host's count, which large fits (n in the thousands) need
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    seen = []
    monkeypatch.setitem(cli.HANDLERS, "fit",
                        lambda cfg: seen.append(set_blas_threads(2)) or 0)
    try:
        assert main(["fit", "--scenario", "simple-linear"]) == 0
        assert seen == [2]
    finally:
        set_blas_threads(previous)
