import dataclasses
import json
import multiprocessing
import os
import signal
import time
from functools import partial
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.calibration import (StraightLine, estimate_theta, linear_theta_hat,
                                 matched_gamma, normal_posterior)
from l2calib.models import DomainBox, PhysicalSystem, make_scenario
from l2calib.numerics import build_rule, set_blas_threads
from l2calib import simharness as sh
from l2calib.simharness import (ClosedFormStudyConfig, StudyConfig,
                                _closed_form_slice, _map_slices,
                                generate_replicate, oracle_theta,
                                parse_analysis, run_closed_form_study,
                                run_replicate, run_study)
from l2calib.smoother import SELECT_CHUNK, GcvGrid
from oracles import brute_force_theta, linear_estimator_variance


def test_parse_analysis():
    assert parse_analysis("marginal-magnitude") == ("marginal", "magnitude", None)
    assert parse_analysis("conditional-curvature") == ("conditional", "curvature", None)
    assert parse_analysis("unscaled") == (None, "none", None)
    assert parse_analysis("fixed-gamma:2.5") == (None, "fixed", 2.5)
    for bad in ("marginal-shrink", "fixed-gamma:abc", "fixed-gamma:-1",
                "banana", "curvature-marginal"):
        with pytest.raises(ValueError):
            parse_analysis(bad)


@pytest.mark.parametrize("field, value", [
    ("replicates", 0), ("level", 0.0), ("level", 1.5), ("tau2", 0.0),
    ("tau2", -1.0), ("tau2", float("nan")), ("workers", 0),
    # gamma 0 gave an infinite length, a negative one a NaN length, and two
    # values with one table label merged two cells
    ("gamma_fixed", (0.0,)), ("gamma_fixed", (-1.0,)),
    ("gamma_fixed", (float("inf"),)), ("gamma_fixed", (float("nan"),)),
    ("gamma_fixed", (1.0, 15.0, 1.0)), ("gamma_fixed", (1.0, 1.0000001)),
    # a repeated size gave 3 table cells and 6 summary rows, no size an empty
    # report, and a size below 3 or a float failed only inside the study
    ("sample_sizes", ()), ("sample_sizes", (4, 4)), ("sample_sizes", (2,)),
    ("sample_sizes", (4.5,)), ("sample_sizes", (4, 8.0)),
    # a negative seed failed only inside the study, and order 1 ran a one-node rule
    ("seed", -1), ("quad_order", 1)])
def test_closed_form_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        ClosedFormStudyConfig(**{"replicates": 5, "prior_in_interval": True,
                                 field: value})


def test_closed_form_config_accepts_flat_prior():
    assert ClosedFormStudyConfig(tau2=float("inf")).tau2 == float("inf")


def test_study_config_validation():
    ok = StudyConfig(scenario="scenario2", replicates=3)
    assert ok.analyses == ("marginal-magnitude", "marginal-curvature",
                           "conditional-magnitude", "conditional-curvature")
    with pytest.raises(ValueError, match="replicates"):
        StudyConfig(scenario="scenario2", replicates=0)
    with pytest.raises(ValueError, match="engine"):
        StudyConfig(scenario="scenario2", replicates=1, engine="exact")
    with pytest.raises(ValueError, match="level"):
        StudyConfig(scenario="scenario2", replicates=1, level=1.0)
    with pytest.raises(ValueError, match="workers"):
        StudyConfig(scenario="scenario2", replicates=1, workers=0)
    with pytest.raises(ValueError, match="analysis"):
        StudyConfig(scenario="scenario2", replicates=1, analyses=("bogus",))
    short = {"mcmc_chains": 4, "mcmc_iterations": 200, "mcmc_thin": 50}
    with pytest.raises(ValueError, match="split R-hat"):
        StudyConfig(scenario="scenario2", replicates=1, engine="mcmc", **short)
    with pytest.raises(ValueError, match="interval needs"):
        StudyConfig(scenario="scenario2", replicates=1, engine="mcmc",
                    mcmc_chains=2, mcmc_iterations=200, mcmc_thin=20)
    assert StudyConfig(scenario="scenario2", replicates=1, **short).mcmc_thin == 50
    # each failed only inside the study, ran a one-node rule, or was accepted;
    # the bounds are the CLI's
    for field, value, message in (("seed", -1, "seed must be >= 0"),
                                  ("n", 2, "n must be >= 3"),
                                  ("quad_order", 1, "quad_order must be >= 2"),
                                  ("scenario", "bogus", "unknown scenario 'bogus'"),
                                  ("n_starts", 0, "n_starts must be >= 1")):
        with pytest.raises(ValueError, match=message):
            StudyConfig(**{"scenario": "scenario2", "replicates": 1, field: value})
    # each parsed, and every replicate of it then failed its analysis
    for gamma in ("inf", "nan", "1e400"):
        with pytest.raises(ValueError, match="fixed gamma must be positive and finite"):
            StudyConfig(scenario="scenario2", replicates=1, analyses=(f"fixed-gamma:{gamma}",))
    assert StudyConfig(scenario="scenario2", replicates=1, n=None).n is None


@pytest.mark.parametrize("make, field", [
    (partial(StudyConfig, scenario="scenario2"), "conditional_form"),
    (partial(StudyConfig, scenario="scenario2"), "interval"),
    (partial(StudyConfig, scenario="scenario2"), "kernel_family"),
    (ClosedFormStudyConfig, "kernel_family")],
    ids=["study-conditional_form", "study-interval", "study-kernel_family",
         "closed_form-kernel_family"])
def test_configs_reject_unknown_choices(make, field):
    with pytest.raises(ValueError, match=f"unknown {field} 'bogus'"):
        make(replicates=2, **{field: "bogus"})


def test_generate_replicate_deterministic():
    _, system, _ = make_scenario("scenario2")
    a = generate_replicate(system, 30, seed=7)
    b = generate_replicate(system, 30, seed=7)
    c = generate_replicate(system, 30, seed=8)
    assert np.array_equal(a.design, b.design)
    assert np.array_equal(a.responses, b.responses)
    assert not np.array_equal(a.responses, c.responses)


def test_generate_replicate_equidistant_designs():
    _, system, _ = make_scenario("simple-linear")
    data = generate_replicate(system, 8, seed=0)
    assert_allclose(data.design[:, 0], np.linspace(0.0, 1.0, 8), rtol=0, atol=0)
    _, sys3, _ = make_scenario("scenario3")
    d3 = generate_replicate(sys3, 17, seed=0)
    assert_allclose(d3.design[:, 0], np.linspace(0.0, 0.8, 17), rtol=0, atol=0)


def test_generate_replicate_uniform_design():
    _, system, _ = make_scenario("scenario1")
    data = generate_replicate(system, 50, seed=1)
    assert data.design.shape == (50, 1)
    assert np.all(data.design >= 0.0) and np.all(data.design <= 1.0)
    # different seeds move the design points, not just the noise
    other = generate_replicate(system, 50, seed=2)
    assert not np.array_equal(data.design, other.design)


def test_generate_replicate_zero_noise():
    _, system, _ = make_scenario("scenario2")
    quiet = PhysicalSystem(name="quiet", mu=system.mu, sigma=0.0,
                           design=system.design)
    data = generate_replicate(quiet, 30, seed=4)
    assert_allclose(data.responses, system.mu(data.design), rtol=0, atol=0)


def test_generate_replicate_noise_is_unbiased():
    _, system, _ = make_scenario("scenario2")
    # mu(0) = 0 for this process; averaging y at x = 0 over many replicates
    # must recover it to within three standard errors
    first = np.array([generate_replicate(system, 30, seed=s).responses[0]
                      for s in range(10_000)])
    assert abs(first.mean()) < 3.0 * system.sigma / 100.0
    assert_allclose(first.std(), system.sigma, rtol=0.05)


def test_oracle_theta_values_and_cache():
    th = oracle_theta("simple-linear")
    assert_allclose(th, [3.565276647705146], rtol=1e-7)
    th[0] = -99.0
    again = oracle_theta("simple-linear")
    assert_allclose(again, [3.565276647705146], rtol=1e-7)
    assert_allclose(oracle_theta("scenario1"), [0.2, 0.3], atol=1e-4)


@pytest.mark.parametrize("quad_order", [8, 16, 64])
@pytest.mark.parametrize("scenario", ["scenario1", "simple-linear", "scenario3"])
def test_oracle_closed_forms_equal_the_estimate(monkeypatch, scenario, quad_order):
    # scenario1's truth is the model at theta0; the other two are straight lines
    monkeypatch.setattr(sh, "_ORACLE_CACHE", {})
    model, system, _ = make_scenario(scenario)
    rule = build_rule(model.x_box.lower, model.x_box.upper, quad_order)
    est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
    assert_allclose(oracle_theta(scenario, quad_order), est.theta, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("quad_order", [8, 16, 64])
def test_oracle_without_a_closed_form_is_the_estimate(monkeypatch, quad_order):
    monkeypatch.setattr(sh, "_ORACLE_CACHE", {})
    model, system, _ = make_scenario("scenario2")
    rule = build_rule(model.x_box.lower, model.x_box.upper, quad_order)
    est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
    assert np.array_equal(oracle_theta("scenario2", quad_order), est.theta)


@pytest.mark.parametrize("lower, upper", [(0.0, 3.0), (4.0, 5.0)])
def test_oracle_clips_a_straight_line_vertex_outside_the_box(monkeypatch, lower, upper):
    # the simple-linear vertex is near 3.565: below the first box, above the second
    model, system, defaults = make_scenario("simple-linear")
    model = dataclasses.replace(model, theta_box=DomainBox([lower], [upper]))
    monkeypatch.setattr(sh, "_ORACLE_CACHE", {})
    monkeypatch.setattr(sh, "make_scenario", lambda name: (model, system, defaults))
    edge = upper if lower == 0.0 else lower
    assert oracle_theta("simple-linear", 16).tolist() == [edge]
    rule = build_rule(model.x_box.lower, model.x_box.upper, 16)
    est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
    assert_allclose(est.theta, [edge], rtol=1e-12)


def test_brute_force_oracle_agrees():
    grid = brute_force_theta("simple-linear", grid_size=40001)
    assert_allclose(grid, oracle_theta("simple-linear"), atol=1e-3)
    with pytest.raises(ValueError, match="one-parameter"):
        brute_force_theta("scenario1")


def test_noiseless_replicate_recovers_oracle():
    model, system, _ = make_scenario("scenario2")
    quiet = PhysicalSystem(name="quiet", mu=system.mu, sigma=0.0,
                           design=system.design)
    data = generate_replicate(quiet, 30, seed=0)
    fit = GcvGrid(data.design).fit(data.responses)
    rule = build_rule(model.x_box.lower, model.x_box.upper, 64)
    est = estimate_theta(fit, model, rule, seed=0)
    assert abs(est.theta[0] - 1.8771) < 1e-2


def _tiny_study(**kw):
    base = dict(scenario="scenario2", replicates=3, seed=20, n_starts=4)
    base.update(kw)
    return StudyConfig(**base)


def test_run_study_report_structure():
    report = run_study(_tiny_study())
    d = report.to_dict()
    assert d["schema"] == 1 and d["kind"] == "study"
    assert d["provenance"]["package"] == "l2calib"
    assert "workers" not in d["config"]
    assert d["config"]["scenario"] == "scenario2"
    assert len(report.records) == 3
    for name in report.config["analyses"]:
        agg = report.analyses[name]
        assert agg["n_replicates"] == 3
        assert agg["n_used"] + agg["n_failed"] == 3
        if agg["n_used"]:
            assert 0.0 <= agg["coverage"][0] <= 1.0
    rows = report.summary_rows()
    assert len(rows) == len(report.config["analyses"])
    assert {r["analysis"] for r in rows} == set(report.config["analyses"])
    assert all(r["coordinate"] in ("", 1) for r in rows)


def test_run_study_single_replicate_aggregation_identity():
    report = run_study(_tiny_study(replicates=1))
    rec = report.records[0]
    for name, agg in report.analyses.items():
        row = rec["analyses"][name]
        assert agg["n_used"] == 1
        assert_allclose(agg["mean_post_mean"], row["post_mean"], rtol=1e-12)
        assert_allclose(agg["mean_length"], row["length"], rtol=1e-12)
        assert agg["coverage"][0] in (0.0, 1.0)
        assert agg["coverage"][0] == float(row["covers"][0])


def test_run_study_deterministic_and_partition_invariant():
    # one worker estimates a whole STUDY_CHUNK and a part, two and three
    # workers other cuts; scenario2 shares one GCV grid, scenario1 does not
    for scenario in ("scenario1", "scenario2"):
        kw = dict(scenario=scenario, replicates=sh.STUDY_CHUNK + 3)
        a = run_study(_tiny_study(**kw)).to_json(include_records=True)
        assert run_study(_tiny_study(**kw)).to_json(include_records=True) == a
        for workers in (2, 3):
            assert run_study(_tiny_study(workers=workers, **kw)).to_json(
                include_records=True) == a
        json.loads(a)  # stays parseable


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
def test_run_study_worker_invariant_on_large_designs(scenario):
    # 450 points: above smoother.ONE_BLAS_THREAD_BELOW, so only the study pins
    # BLAS; scenario1 draws a uniform design per replicate, scenario2 shares
    # one equidistant grid
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    try:
        one, two = (run_study(_tiny_study(scenario=scenario, n=450, replicates=2,
                                          workers=w)).to_json(include_records=True)
                    for w in (1, 2))
    finally:
        set_blas_threads(previous)
    assert one == two


def _one_replicate_at_a_time(config, theta_star, indices):
    """``_study_slice`` as a loop of single-replicate fits and estimates."""
    model, system, defaults = make_scenario(config.scenario)
    rule = build_rule(model.x_box.lower, model.x_box.upper, config.quad_order)
    records = []
    for i in indices:
        data = generate_replicate(system, defaults["n"], config.seed + i)
        fit = GcvGrid(data.design, family=config.kernel_family).fit(data.responses)
        est = estimate_theta(fit, model, rule, seed=config.seed + i,
                             n_starts=config.n_starts)
        records.append(run_replicate(i, config, model, rule, theta_star, fit, est))
    return records


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["scenario1", "scenario2"]), st.integers(0, 10**6),
       st.integers(1, 20))
def test_study_slice_equals_one_replicate_at_a_time(scenario, first, count):
    # up to 20 replicates: whole chunks of STUDY_CHUNK and a part
    config = _tiny_study(scenario=scenario, replicates=count, seed=first)
    theta_star = oracle_theta(scenario)
    indices = list(range(count))
    assert sh._study_slice(config, theta_star, indices) == \
        _one_replicate_at_a_time(config, theta_star, indices)


def test_run_study_conjugate_matches_laplace_for_linear_model():
    kw = dict(scenario="simple-linear", replicates=2, seed=3,
              analyses=("fixed-gamma:8",), n_starts=4)
    lap = run_study(StudyConfig(engine="laplace", **kw))
    con = run_study(StudyConfig(engine="conjugate", **kw))
    for rl, rc in zip(lap.records, con.records):
        al = rl["analyses"]["fixed-gamma:8"]
        ac = rc["analyses"]["fixed-gamma:8"]
        assert_allclose(ac["post_sd"], al["post_sd"], rtol=1e-9)
        assert_allclose(ac["post_mean"], al["post_mean"], rtol=1e-6)


def test_run_study_conjugate_requires_linear_model():
    # refused when the config is built, before any replicate is fitted
    for scenario in ("scenario1", "scenario2"):
        with pytest.raises(ValueError, match="needs a scalar linear model"):
            _tiny_study(scenario=scenario, engine="conjugate")
    for scenario in ("scenario3", "simple-linear"):
        assert _tiny_study(scenario=scenario, engine="conjugate").engine == "conjugate"


def test_run_study_mcmc_engine_agrees_with_laplace():
    kw = dict(scenario="simple-linear", replicates=1, seed=6,
              analyses=("fixed-gamma:8",), n_starts=4)
    lap = run_study(StudyConfig(engine="laplace", **kw))
    mc = run_study(StudyConfig(engine="mcmc", mcmc_chains=2,
                               mcmc_iterations=2000, mcmc_thin=2, **kw))
    al = lap.records[0]["analyses"]["fixed-gamma:8"]
    am = mc.records[0]["analyses"]["fixed-gamma:8"]
    assert not am.get("failed")
    assert_allclose(am["post_mean"], al["post_mean"], atol=4 * al["post_sd"][0] / 10)
    assert_allclose(am["post_sd"], al["post_sd"], rtol=0.25)


def test_closed_form_study_tables():
    cfg = ClosedFormStudyConfig(replicates=200, seed=1, workers=1)
    report = run_closed_form_study(cfg)
    assert report.to_dict()["kind"] == "closed-form-study"
    keys = {f"n={n},{g}" for n in (4, 8)
            for g in ("gamma=1", "gamma=15", "gamma=matched")}
    assert keys <= set(report.analyses)
    for n in (4, 8):
        assert report.analyses[f"n={n},gamma=1"]["mean_gamma"] == 1.0
        assert report.analyses[f"n={n},gamma=15"]["mean_gamma"] == 15.0
        assert report.analyses[f"n={n},gamma=matched"]["mean_gamma"] > 1.0
        # nested intervals: smaller gamma can only cover more often
        c1 = report.analyses[f"n={n},gamma=1"]["coverage"]
        cm = report.analyses[f"n={n},gamma=matched"]["coverage"]
        c15 = report.analyses[f"n={n},gamma=15"]["coverage"]
        assert c1 >= c15
        assert c1 >= cm - 0.02 and cm >= c15 - 0.02
        # flat-prior interval length: 2 z sqrt(3 / (2 n gamma)) on average
        exp_len = 2 * 1.959963984540054 * np.sqrt(3.0 / (2.0 * n))
        assert_allclose(report.analyses[f"n={n},gamma=1"]["mean_length"],
                        exp_len, rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([4, 8]), st.integers(0, 2**32 - 1))
def test_closed_form_slice_matches_linear_estimator(n, seed):
    # the study's cached per-bandwidth closed form against the per-fit functions
    cfg = ClosedFormStudyConfig(replicates=4, seed=seed)
    est = _closed_form_slice(cfg, [0, 1, 2, 3])[cfg.sample_sizes.index(n)]
    assert est.shape == (4, 2)
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule(model.x_box.lower, model.x_box.upper, cfg.quad_order)
    xs = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    grid = GcvGrid(xs)
    for i, (theta_hat, var_hat) in enumerate(est):
        rng = np.random.default_rng(seed + i)
        y = np.asarray(system.mu(xs), dtype=float) + system.sigma * rng.standard_normal(n)
        fit = grid.fit(y)
        assert theta_hat == linear_theta_hat(fit, rule)
        assert var_hat == linear_estimator_variance(fit, rule, sigma2=system.sigma**2)


def test_closed_form_study_deterministic_and_partition_invariant(monkeypatch):
    monkeypatch.setattr(sh, "CLOSED_FORM_PER_WORKER", 1)    # so two workers run
    cfg = ClosedFormStudyConfig(replicates=60, seed=5, workers=1)
    a = run_closed_form_study(cfg).to_json()
    b = run_closed_form_study(ClosedFormStudyConfig(replicates=60, seed=5,
                                                    workers=1)).to_json()
    c = run_closed_form_study(ClosedFormStudyConfig(replicates=60, seed=5,
                                                    workers=2)).to_json()
    assert a == b == c


@pytest.mark.parametrize("n, tau2, prior", [
    (4, 1.0, False), (4, 0.05, True), (8, 0.025, False), (8, 1.0, True)])
def test_closed_form_slice_is_the_same_in_any_batch(n, tau2, prior):
    # a slice over two chunks and a part of GCV selection against one-index
    # slices; a tau2 below 1 sits inside the spread of var_hat, which leaves
    # variance matching undefined for some rows and not for others
    cfg = ClosedFormStudyConfig(replicates=2 * SELECT_CHUNK + 7, seed=11, sample_sizes=(n,),
                                tau2=tau2, prior_in_interval=prior)
    indices = list(range(3, 3 + cfg.replicates))
    est = _closed_form_slice(cfg, indices)[0]
    assert np.array_equal(est, np.concatenate([_closed_form_slice(cfg, [i])[0]
                                               for i in indices]))
    # each table entry from the scalar closed forms of these rows' estimates:
    # the study at seed 14 draws replicate r as this slice draws index 3 + r
    model, _, _ = make_scenario("simple-linear")
    den = StraightLine(build_rule(model.x_box.lower, model.x_box.upper, cfg.quad_order)).den
    prior_prec = 1.0 / tau2 if prior else 0.0
    z = NormalDist().inv_cdf(0.5 + cfg.level / 2.0)
    theta_star = oracle_theta("simple-linear", cfg.quad_order)[0]
    posteriors = {"gamma=1": [], "gamma=15": [], "gamma=matched": []}
    flagged = 0
    for theta_hat, var_hat in est:
        gammas = {"gamma=1": 1.0, "gamma=15": 15.0}
        if var_hat < tau2:
            gammas["gamma=matched"] = matched_gamma(var_hat, n, den, tau2)
        else:
            flagged += 1
        for label, g in gammas.items():
            prec, mean = normal_posterior(theta_hat, n, g, den, prior_prec)
            posteriors[label].append((mean, np.sqrt(1.0 / prec), g))
    report = run_closed_form_study(dataclasses.replace(cfg, seed=14))
    assert list(report.analyses) == [f"n={n},{label}" for label in posteriors]
    for label, rows in posteriors.items():
        agg = report.analyses[f"n={n},{label}"]
        if not rows:
            assert agg == {"n_used": 0}
            continue
        mean, sd, g = map(np.array, zip(*rows))
        c = np.mean([abs(m - theta_star) <= z * s for m, s in zip(mean, sd)])
        assert agg == {"n_used": len(rows), "coverage": c,
                       "coverage_se": np.sqrt(c * (1 - c) / len(rows)),
                       "mean_length": np.mean([2.0 * z * s for s in sd]),
                       "mean_post_mean": np.mean(mean), "mean_gamma": np.mean(g)}
    undefined = {f"n={n}:variance-matching-undefined": flagged} if flagged else {}
    assert report.replicate_flags == undefined
    assert (0 < flagged < len(indices)) == (tau2 < 1.0)


@pytest.mark.parametrize("prior", [False, True])
def test_closed_form_study_partition_invariant_across_chunks(monkeypatch, prior):
    # 77 replicates: 39 + 38 at two workers, neither a multiple of the chunk
    monkeypatch.setattr(sh, "CLOSED_FORM_PER_WORKER", 1)    # so two workers run
    cfg = ClosedFormStudyConfig(replicates=77, seed=9, prior_in_interval=prior)
    assert 77 % SELECT_CHUNK and 39 > SELECT_CHUNK
    one = run_closed_form_study(cfg).to_json()
    two = run_closed_form_study(dataclasses.replace(cfg, workers=2))
    assert two.to_json() == one


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tau2", [0.05, 0.025])
def test_closed_form_sizes_share_a_noise_stream(monkeypatch, workers, tau2):
    # each size's cells and flags from one table over both sizes equal those
    # of the table run at that size alone: size n reads the first n draws of
    # the one stream a replicate draws for the largest size; tau2 0.05 sits
    # inside the spread of var_hat at n = 4, and 0.025 inside it at n = 8
    monkeypatch.setattr(sh, "CLOSED_FORM_PER_WORKER", 1)    # so two workers run
    cfg = ClosedFormStudyConfig(replicates=45, seed=6, sample_sizes=(4, 8), tau2=tau2,
                                prior_in_interval=True, workers=workers)
    both = run_closed_form_study(cfg)
    for n in cfg.sample_sizes:
        alone = run_closed_form_study(dataclasses.replace(cfg, sample_sizes=(n,)))
        assert alone.analyses == {k: v for k, v in both.analyses.items()
                                  if k.startswith(f"n={n},")}
        assert alone.replicate_flags == {k: v for k, v in both.replicate_flags.items()
                                         if k.startswith(f"n={n}:")}
        assert alone.oracle_theta == both.oracle_theta
    assert 0 < sum(both.replicate_flags.values()) < 2 * cfg.replicates


@pytest.mark.parametrize("replicates, workers, pooled", [
    (9, 4, 1), (10, 4, 2), (14, 4, 2), (40, 3, 3), (40, 1, 1)])
def test_closed_form_study_pools_only_workers_with_enough_replicates(
        monkeypatch, replicates, workers, pooled):
    # a worker needs CLOSED_FORM_PER_WORKER replicates; the report is the same
    monkeypatch.setattr(sh, "CLOSED_FORM_PER_WORKER", 5)
    cfg = ClosedFormStudyConfig(replicates=replicates, seed=4, workers=workers)
    one = run_closed_form_study(dataclasses.replace(cfg, workers=1)).to_json()
    seen = []

    def recording(slice_fn, w, *args):
        seen.append(w)
        return _map_slices(slice_fn, w, *args)

    monkeypatch.setattr(sh, "_map_slices", recording)
    assert run_closed_form_study(cfg).to_json() == one
    assert seen == [pooled]


def test_closed_form_summary_rows():
    # one row per table cell, in table order, n and gamma named by the config;
    # tau2 0.01 leaves variance matching undefined everywhere, so those rows
    # have no statistics
    cfg = ClosedFormStudyConfig(replicates=30, seed=4, sample_sizes=(8, 4),
                                gamma_fixed=(2.5,), tau2=0.01)
    report = run_closed_form_study(cfg)
    rows = report.summary_rows()
    assert list(rows[0]) == ["n", "gamma", "coverage", "coverage_se", "mean_length",
                             "mean_gamma", "n_used"]
    assert [(r["n"], r["gamma"]) for r in rows] == [
        (8, "2.5"), (8, "matched"), (4, "2.5"), (4, "matched")]
    for r in rows[::2]:
        agg = report.analyses[f"n={r['n']},gamma=2.5"]
        assert r["n_used"] == 30 and r["mean_gamma"] == 2.5
        assert (r["coverage"], r["coverage_se"], r["mean_length"]) == (
            agg["coverage"], agg["coverage_se"], agg["mean_length"])
    for r in rows[1::2]:
        assert r["n_used"] == 0
        assert r["coverage"] == r["coverage_se"] == r["mean_length"] == r["mean_gamma"] == ""


def test_closed_form_study_prior_in_interval():
    cfg = ClosedFormStudyConfig(replicates=40, seed=2, prior_in_interval=True)
    report = run_closed_form_study(cfg)
    # with the N(0, 1) prior kept in the interval, the gamma = 1, n = 4
    # posterior sd is sqrt(3/11) for every replicate
    expected = 2 * 1.959963984540054 * np.sqrt(3.0 / 11.0)
    assert_allclose(report.analyses["n=4,gamma=1"]["mean_length"], expected,
                    rtol=1e-9)
    flat = run_closed_form_study(ClosedFormStudyConfig(replicates=40, seed=2))
    assert abs(report.analyses["n=4,gamma=1"]["mean_post_mean"]) < \
        abs(flat.analyses["n=4,gamma=1"]["mean_post_mean"])


def _nan_above_3(base):
    """``base`` with eta NaN wherever theta > 3."""
    def eta(theta, x):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta[..., :1] > 3.0, np.nan, base.eta(theta, x))

    return dataclasses.replace(base, eta=eta)


def test_replicate_flags_estimate_not_converged_on_non_finite_model(monkeypatch):
    # eta is NaN for theta > 3 while the loss minimiser sits near 3.57: the
    # estimate stalls on the edge of the finite region, and the replicate is
    # flagged instead of crashing
    base, system, defaults = make_scenario("simple-linear")
    model = _nan_above_3(base)
    monkeypatch.setattr(sh, "make_scenario", lambda name: (model, system, defaults))
    config = StudyConfig(scenario="simple-linear", replicates=1, quad_order=32,
                         analyses=("marginal-magnitude",))
    [record] = sh._study_slice(config, np.array([3.5]), [0])
    assert "estimate-not-converged" in record["flags"]
    assert record["theta_hat"][0] <= 3.0
    analysis = record["analyses"]["marginal-magnitude"]
    assert "post_mean" in analysis
    # the Laplace analysis carries the estimate's flag, as calibrate's does
    assert "estimate-not-converged" in analysis["flags"]


def _index_records(indices):
    return [{"index": i} for i in indices]


def _index_array(indices):
    return np.array(indices)


@pytest.mark.parametrize("workers", [2, 3])
def test_map_slices_keeps_index_order_on_uneven_chunks(workers):
    # 5 replicates cut into chunks of 3 + 2 (two workers) or 2 + 2 + 1 (three);
    # each chunk's result comes back whole, in chunk order, whatever its type
    chunks = {2: [[0, 1, 2], [3, 4]], 3: [[0, 1], [2, 3], [4]]}[workers]
    parts = _map_slices(_index_records, workers, 5)
    assert [[r["index"] for r in part] for part in parts] == chunks
    arrays = _map_slices(_index_array, workers, 5)
    assert all(type(a) is np.ndarray for a in arrays)
    assert [a.tolist() for a in arrays] == chunks


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # 2 replicates at 6 workers are two chunks of one: this process runs the
    # first and a single forked child the second
    started = []
    fork = multiprocessing.get_context("fork").Process
    start = fork.start

    def recording(self):
        started.append(self)
        start(self)

    one = run_study(_tiny_study(replicates=2)).to_json(include_records=True)
    monkeypatch.setattr(fork, "start", recording)
    six = run_study(_tiny_study(replicates=2, workers=6)).to_json(include_records=True)
    assert len(started) == 1
    assert six == one
    assert multiprocessing.active_children() == []


def _blas_threads_of_worker(indices):
    # setting the count a slice already runs on returns it
    return [set_blas_threads(1) for _ in indices]


def test_pool_workers_run_blas_on_one_thread():
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    try:
        # the first chunk runs in this process, the second in a forked child
        assert _map_slices(_blas_threads_of_worker, 2, 4) == [[1, 1], [1, 1]]
        assert set_blas_threads(2) == 2        # the parent keeps its count
        # and a slice run in this process alone is pinned as a child is
        assert _map_slices(_blas_threads_of_worker, 1, 2) == [[1, 1]]
        assert set_blas_threads(2) == 2
    finally:
        set_blas_threads(previous)


def _os_threads_of_worker(indices):
    # after a BLAS call of its own: the OS threads this slice's process runs on,
    # and its BLAS count (setting the count the slice already has returns it)
    a = np.arange(10000.0).reshape(100, 100) / 1e4
    a @ a
    return [(len(os.listdir("/proc/self/task")), set_blas_threads(1)) for _ in indices]


class SliceError(Exception):
    pass


def _raise_in_worker(indices):
    raise SliceError(f"slice {indices} failed")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count a process's threads")
def test_pool_workers_start_no_blas_helper_thread():
    # a helper thread started in a forked child would spin beside it on its CPU
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    try:
        a = np.arange(40000.0).reshape(200, 200) / 4e4
        a @ a                       # the parent's BLAS threads are running
        here, *children = _map_slices(_os_threads_of_worker, 3, 6)
        assert children == [[(1, 1)] * 2] * 2
        # the first chunk runs in this process, which keeps the OS threads it
        # had before (the test runner's among them), so only its BLAS count is
        # checked: one thread, as in every child
        assert [blas for _, blas in here] == [1, 1]
        assert set_blas_threads(2) == 2
        with pytest.raises(SliceError, match="failed"):
            _map_slices(_raise_in_worker, 2, 4)
        assert set_blas_threads(2) == 2     # restored when a slice raises
    finally:
        set_blas_threads(previous)


def _hung(signum, frame):
    raise TimeoutError("_map_slices did not return within 60 s")


@pytest.fixture
def two_blas_threads():
    """This process on two BLAS threads, which the test must leave on two, and
    an alarm that turns a hang into a failure (a forked child has no alarm)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    previous = set_blas_threads(2)
    handler = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    if previous is not None:
        assert set_blas_threads(previous) == 2


def _pid_of_slice(indices):
    return os.getpid()


def test_first_chunk_runs_here_and_the_others_in_children(two_blas_threads):
    here, *children = _map_slices(_pid_of_slice, 3, 7)
    assert here == os.getpid()
    assert len(set(children)) == 2 and os.getpid() not in children
    assert multiprocessing.active_children() == []


def test_without_fork_every_index_runs_here(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _map_slices(_pid_of_slice, 3, 7) == [os.getpid()]
    assert _map_slices(_index_array, 3, 7)[0].tolist() == list(range(7))


def _raise_in_child(indices):
    if indices[0] == 0:         # this process's chunk
        return indices
    raise SliceError(f"slice {indices} failed")


def test_child_exception_is_raised_here_with_its_type_and_message(two_blas_threads):
    with pytest.raises(SliceError, match=r"^slice \[3, 4\] failed$"):
        _map_slices(_raise_in_child, 2, 5)
    assert multiprocessing.active_children() == []


def _raise_here_sleep_in_children(error, indices):
    if indices[0] != 0:
        time.sleep(60)
    raise error("this process's chunk failed")


@pytest.mark.parametrize("error", [SliceError, KeyboardInterrupt])
def test_failing_chunk_here_leaves_no_child(two_blas_threads, error):
    t0 = time.perf_counter()
    with pytest.raises(error, match="this process's chunk failed"):
        _map_slices(_raise_here_sleep_in_children, 3, 6, error)
    assert time.perf_counter() - t0 < 30        # the sleeping children were killed
    assert multiprocessing.active_children() == []


class TwoArgumentError(Exception):
    def __init__(self, message, code):      # pickles, but unpickling calls it with one
        super().__init__(message)
        self.code = code


def _raise_unpicklable(kind, indices):
    if indices[0] == 0:
        return indices
    if kind == "lambda":
        exc = SliceError("holds a lambda")
        exc.hook = lambda: None
        raise exc
    raise TwoArgumentError("needs two arguments", 7)


@pytest.mark.parametrize("kind, text", [("lambda", "SliceError: holds a lambda"),
                                        ("init", "TwoArgumentError: needs two arguments")])
def test_unpicklable_child_exception_is_a_runtime_error(two_blas_threads, kind, text):
    with pytest.raises(RuntimeError, match=text):
        _map_slices(_raise_unpicklable, 2, 4, kind)
    assert multiprocessing.active_children() == []


def _exit_in_child(indices):
    if indices[0] != 0:
        os._exit(3)
    return indices


def test_child_that_exits_without_sending_names_its_exit_code(two_blas_threads):
    with pytest.raises(RuntimeError, match="exited with code 3"):
        _map_slices(_exit_in_child, 2, 4)
    assert multiprocessing.active_children() == []
