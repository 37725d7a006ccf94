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
from l2calib.cli import build_parser, main
from l2calib.numerics import DEFAULT_QUAD_ORDER, build_rule, set_blas_threads
from l2calib.posterior import conjugate_posterior
from l2calib.scaling import curvature_adjustment, magnitude_gamma
from l2calib.simharness import generate_replicate
from l2calib.models import make_scenario
from l2calib.smoother import fit_smoother, write_dataset_csv

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

    rc = main(["calibrate", "--scenario", "scenario2", "--engine", "conjugate"])
    assert rc == 2
    assert "conjugate" in capsys.readouterr().err

    rc = main(["fit", "--scenario", "scenario2", "--seed", "-1"])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err

    rc = main(["simulate", "--scenario", "scenario2", "--replicates", "2",
               "--n", "2"])
    assert rc == 2
    assert "n must be >= 3" in capsys.readouterr().err

    for command in ("fit", "calibrate"):
        rc = main([command, "--scenario", "scenario2", "--data", "data.csv",
                   "--n", "12"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n and data")


@pytest.mark.parametrize("chains, iterations, thin, message", [
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


def test_commands_keep_the_host_blas_thread_count(monkeypatch):
    # only pool workers are pinned; a command in this process keeps every
    # BLAS thread, which large fits (n in the thousands) need
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
