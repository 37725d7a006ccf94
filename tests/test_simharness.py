import dataclasses
import json
from functools import partial
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.calibration import (StraightLine, estimate_theta, linear_theta_hat,
                                 matched_gamma, normal_posterior)
from l2calib.models import PhysicalSystem, make_scenario
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
    ("gamma_fixed", (1.0, 15.0, 1.0)), ("gamma_fixed", (1.0, 1.0000001))])
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
    cfg = _tiny_study(engine="conjugate", replicates=1)
    report = run_study(cfg)
    for agg in report.analyses.values():
        assert agg["n_used"] == 0 and agg["n_failed"] == 1
        assert agg["flag_counts"].get("analysis-failed") == 1


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
    est = _closed_form_slice(cfg, n, [0, 1, 2, 3])
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


def test_closed_form_study_deterministic_and_partition_invariant():
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
    est = _closed_form_slice(cfg, n, indices)
    assert np.array_equal(est, np.concatenate([_closed_form_slice(cfg, n, [i])
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
def test_closed_form_study_partition_invariant_across_chunks(prior):
    # 77 replicates: 39 + 38 at two workers, neither a multiple of the chunk
    cfg = ClosedFormStudyConfig(replicates=77, seed=9, prior_in_interval=prior)
    assert 77 % SELECT_CHUNK and 39 > SELECT_CHUNK
    one = run_closed_form_study(cfg).to_json()
    two = run_closed_form_study(dataclasses.replace(cfg, workers=2))
    assert two.to_json() == one


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


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    started = []

    class Recording(sh.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    one = run_study(_tiny_study(replicates=2)).to_json(include_records=True)
    monkeypatch.setattr(sh, "ProcessPoolExecutor", Recording)
    six = run_study(_tiny_study(replicates=2, workers=6)).to_json(include_records=True)
    assert started == [2]
    assert six == one


def _blas_threads_of_worker(indices):
    # setting the count the initializer should already have set returns it
    return [set_blas_threads(1) for _ in indices]


def test_pool_workers_run_blas_on_one_thread():
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    try:
        assert _map_slices(_blas_threads_of_worker, 2, 4) == [[1, 1], [1, 1]]
        assert set_blas_threads(2) == 2        # the parent keeps its count
    finally:
        set_blas_threads(previous)
