"""End-to-end acceptance checks for the calibration pipeline.

Each test prints one `[acceptance]` summary line so a verbose run reads as a
checklist. The closed-form coverage table is checked against its published
targets; two of the twelve cell checks are known to sit outside tolerance
under this (faithful) implementation — see the README for the analysis.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from l2calib.asymptotics import conditional_matrices, marginal_matrices
from l2calib.calibration import (CalibrationEstimate, estimate_theta,
                                 l2_loss_fn, linear_theta_hat)
from l2calib.models import make_scenario
from l2calib.numerics import build_rule
from l2calib.posterior import (SamplerSettings, conjugate_posterior, laplace_approx,
                               sample_posterior)
from l2calib.scaling import curvature_adjustment, fixed_gamma, scaled_loss
from l2calib.simharness import (CLOSED_FORM_PER_WORKER, ClosedFormStudyConfig, StudyConfig,
                                generate_replicate, oracle_theta,
                                run_closed_form_study, run_study)
from l2calib.smoother import GcvGrid, fit_smoother
from oracles import (NormalPrior, batch_mcse, brute_force_theta, estimator_cov,
                     linear_estimator_variance, validate_derivatives)

_WORKERS = os.cpu_count() or 1


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def test_sampler_matches_closed_form_posterior():
    # straight-line model, n = 4, N(0, 1) prior: the generalised posterior is
    # exactly normal, so 200k MCMC draws must match it to Monte Carlo error
    t0 = time.time()
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 4, seed=0)
    fit = fit_smoother(data)
    base = l2_loss_fn(fit, model, rule)
    prior = NormalPrior([0.0], [1.0])
    ok = True
    details = []
    for g in (1.0, 15.0):
        exact = conjugate_posterior(linear_theta_hat(fit, rule), n=4, tau2=1.0,
                                    gamma=g, rule=rule)
        loss = scaled_loss(fixed_gamma(g), base)
        settings = SamplerSettings(chains=4, iterations=100_000, thin=1)
        post = sample_posterior(loss, prior, n=4, start=exact, seed=42, settings=settings)
        assert post.n_draws == 200_000
        per = [post.draws[post.chain_ids == c, 0] for c in range(4)]
        mcse_mean = np.sqrt(sum(batch_mcse(x) ** 2 for x in per)) / 4
        mcse_m2 = np.sqrt(sum(batch_mcse(x * x) ** 2 for x in per)) / 4
        mean_err = abs(post.draws.mean() - exact.mean[0])
        var_err = abs(post.draws.var(ddof=1) - exact.cov[0, 0])
        var_tol = 3.0 * (mcse_m2 + 2.0 * abs(exact.mean[0]) * mcse_mean)
        good = mean_err < 3.0 * mcse_mean and var_err < var_tol
        ok = ok and good
        details.append(f"gamma={g:g} dmean {mean_err:.1e}<{3 * mcse_mean:.1e}"
                       f" dvar {var_err:.1e}<{var_tol:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report("sampler-vs-closed-form", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_curvature_posterior_covariance_equals_estimator_covariance():
    # the whole point of the curvature remap: the large-sample posterior
    # covariance must reproduce the sandwich V^-1 W V^-1 exactly
    t0 = time.time()
    worst = 0.0
    for name in ("simple-linear", "scenario1", "scenario2", "scenario3"):
        model, system, defaults = make_scenario(name)
        rule = build_rule(model.x_box.lower, model.x_box.upper, 64)
        data = generate_replicate(system, defaults["n"], seed=1)
        fit = fit_smoother(data)
        est = estimate_theta(fit, model, rule, seed=1)
        for sw in (marginal_matrices(est, fit, model, rule),
                   conditional_matrices(est, fit, model, rule, form="derived")):
            adj = curvature_adjustment(sw, est.theta)
            lap = laplace_approx(est, adj, fit.data.n)
            target = estimator_cov(sw)
            rel = (np.linalg.norm(lap.cov - target)
                   / np.linalg.norm(target))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report("curvature-covariance-identity", ok,
            f"worst rel err {worst:.2e}; {elapsed:.1f}s")
    assert ok


def test_population_minimisers():
    t0 = time.time()
    th1 = oracle_theta("scenario1")
    err1 = float(np.max(np.abs(th1 - np.array([0.2, 0.3]))))
    th2 = float(oracle_theta("scenario2")[0])
    err2 = abs(th2 - 1.8771)
    th3 = float(oracle_theta("scenario3")[0])
    grid3 = float(brute_force_theta("scenario3")[0])
    err3 = abs(th3 - grid3)
    elapsed = time.time() - t0
    ok = err1 < 1e-4 and err2 < 2e-3 and err3 < 1e-4 and elapsed < 10.0
    _report("population-minimisers", ok,
            f"scenario1 max|err| {err1:.1e}; scenario2 {th2:.5f} "
            f"(target 1.8771, err {err2:.1e}); scenario3 {th3:.5f} vs grid "
            f"{grid3:.5f} (err {err3:.1e}; published values 3.5609 and 3.565 "
            f"sit {abs(th3 - 3.5609):.4f} and {abs(th3 - 3.565):.4f} away); "
            f"{elapsed:.1f}s")
    assert ok


# published coverage (%) and mean interval length targets per table cell
TABLE_TARGETS = {
    (4, "gamma=1"): (93.0, 2.3),
    (4, "gamma=matched"): (93.0, 0.9),
    (4, "gamma=15"): (81.0, 0.6),
    (8, "gamma=1"): (98.0, 1.7),
    (8, "gamma=matched"): (93.0, 0.6),
    (8, "gamma=15"): (84.0, 0.4),
}


def test_closed_form_coverage_table():
    t0 = time.time()
    cfg = ClosedFormStudyConfig(replicates=10_000, seed=0, workers=_WORKERS)
    report = run_closed_form_study(cfg)
    misses = []
    for (n, label), (cov_t, len_t) in TABLE_TARGETS.items():
        agg = report.analyses[f"n={n},{label}"]
        cov = 100.0 * agg["coverage"]
        ln = agg["mean_length"]
        cov_ok = abs(cov - cov_t) <= 3.0
        len_ok = abs(ln - len_t) <= 0.15
        print(f"[acceptance]   n={n} {label:<14} coverage {cov:5.1f}% "
              f"(target {cov_t:.0f}+-3) {'ok  ' if cov_ok else 'MISS'} "
              f"length {ln:.3f} (target {len_t:.2f}+-0.15) "
              f"{'ok' if len_ok else 'MISS'}")
        if not cov_ok:
            misses.append(f"n={n},{label}:coverage={cov:.1f}")
        if not len_ok:
            misses.append(f"n={n},{label}:length={ln:.3f}")
    elapsed = time.time() - t0
    _report("closed-form-coverage-table", not misses and elapsed < 120.0,
            f"{len(misses)} of 12 checks outside tolerance; {elapsed:.1f}s")
    assert elapsed < 120.0
    if misses:
        pytest.fail("coverage table misses: " + "; ".join(misses)
                    + " (known discrepancy, see README)")


def test_nonlinear_scenario_coverage_and_spread():
    t0 = time.time()
    cfg = StudyConfig(scenario="scenario2", replicates=200, seed=0,
                      workers=_WORKERS)
    report = run_study(cfg)
    ok = True
    details = []
    for name in cfg.analyses:
        agg = report.analyses[name]
        cov = agg["coverage"][0]
        sd = agg["mean_post_sd"][0]
        good = (agg["n_failed"] == 0 and 0.90 <= cov <= 0.98
                and 0.0046 / 1.5 <= sd <= 0.0046 * 1.5)
        ok = ok and good
        details.append(f"{name} cov {cov:.3f} sd {sd:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 900.0
    _report("nonlinear-coverage", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_conditional_beats_marginal_under_slow_weight_decay():
    # scenario3's near-interpolating smoother breaks the marginal variance
    # story; the conditional form must restore most of the coverage
    t0 = time.time()
    cfg = StudyConfig(scenario="scenario3", replicates=200, seed=0,
                      analyses=("marginal-magnitude", "conditional-magnitude"),
                      workers=_WORKERS)
    report = run_study(cfg)
    cov_m = report.analyses["marginal-magnitude"]["coverage"][0]
    cov_c = report.analyses["conditional-magnitude"]["coverage"][0]
    len_m = report.analyses["marginal-magnitude"]["mean_length"][0]
    len_c = report.analyses["conditional-magnitude"]["mean_length"][0]
    elapsed = time.time() - t0
    ok = (cov_c - cov_m) >= 0.30 and cov_m < 0.35 and elapsed < 600.0
    _report("conditional-vs-marginal-coverage", ok,
            f"marginal cov {cov_m:.3f} len {len_m:.4f}; conditional cov "
            f"{cov_c:.3f} len {len_c:.4f}; {elapsed:.1f}s")
    assert ok


def test_model_derivatives_match_finite_differences():
    t0 = time.time()
    worst_g = worst_h = 0.0
    for name in ("simple-linear", "scenario1", "scenario2", "scenario3"):
        model, _, _ = make_scenario(name)
        rep = validate_derivatives(model, seed=7, n_points=50, rel_tol=1e-4)
        worst_g = max(worst_g, rep["max_grad_rel_err"])
        worst_h = max(worst_h, rep["max_hess_rel_err"])
    elapsed = time.time() - t0
    ok = worst_g < 1e-4 and worst_h < 1e-4 and elapsed < 60.0
    _report("model-derivative-consistency", ok,
            f"worst grad rel {worst_g:.2e}, worst hess rel {worst_h:.2e}; "
            f"{elapsed:.1f}s")
    assert ok


def test_linear_sandwich_matches_sampling_variance():
    # 2000 fixed-design replicates of the straight-line scenario: the
    # conditional sandwich evaluated at the true noise level must predict
    # the spread of the closed-form estimator, and must agree with the
    # direct variance formula replicate by replicate
    t0 = time.time()
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    n, sigma2 = 8, system.sigma ** 2
    den = float(np.sum(rule.weights * rule.nodes[:, 0] ** 2))
    v = np.array([[2.0 * den]])
    reps = 2000
    thetas = np.empty(reps)
    sandwich = np.empty(reps)
    worst_rel = 0.0
    grid = GcvGrid(np.linspace(0.0, 1.0, n).reshape(-1, 1))
    for i in range(reps):
        data = generate_replicate(system, n, seed=1000 + i)
        fit = grid.fit(data.responses)
        th = linear_theta_hat(fit, rule)
        est = CalibrationEstimate(theta=np.array([th]), value=0.0,
                                  method="l2", hessian=v, converged=True)
        sw = conditional_matrices(est, replace(fit, sigma2_hat=sigma2), model,
                                  rule, form="derived")
        var_sw = float(estimator_cov(sw)[0, 0])
        var_direct = linear_estimator_variance(fit, rule, sigma2=sigma2)
        worst_rel = max(worst_rel, abs(var_sw - var_direct) / var_direct)
        thetas[i] = th
        sandwich[i] = var_sw
    emp = float(np.var(thetas, ddof=1))
    mean_sw = float(sandwich.mean())
    ratio_err = abs(emp - mean_sw) / mean_sw
    elapsed = time.time() - t0
    # the two routes order the Phi solve and the quadrature sum differently,
    # so they drift apart at eps * cond(Phi); with ridge values down to 1e-8
    # the worst of 2000 replicates measures 6.9e-9, hence the 1e-7 bound
    ok = ratio_err <= 0.10 and worst_rel < 1e-7 and elapsed < 180.0
    _report("sandwich-variance-calibration", ok,
            f"empirical var {emp:.3e} vs mean sandwich {mean_sw:.3e} "
            f"(rel {ratio_err:.3f}); worst per-replicate rel {worst_rel:.1e}; "
            f"{elapsed:.1f}s")
    assert ok


def test_reports_reproducible_across_runs_and_workers():
    t0 = time.time()
    kw = dict(scenario="scenario2", replicates=6, seed=9)
    a = run_study(StudyConfig(workers=1, **kw)).to_json(include_records=True)
    b = run_study(StudyConfig(workers=1, **kw)).to_json(include_records=True)
    c = run_study(StudyConfig(workers=3, **kw)).to_json(include_records=True)
    # scenario1 is the one uniform design, so its per-replicate eigh is the
    # one that could see the BLAS thread count: every study slice runs BLAS on
    # one thread, in this process and in a pool worker alike
    s1 = dict(scenario="scenario1", replicates=4, seed=3)
    f = run_study(StudyConfig(workers=1, **s1)).to_json(include_records=True)
    g = run_study(StudyConfig(workers=2, **s1)).to_json(include_records=True)
    # table1 starts a pool only when each worker gets CLOSED_FORM_PER_WORKER
    # replicates, so workers=2 pools here and workers=1 does not
    t_kw = dict(replicates=2 * CLOSED_FORM_PER_WORKER, seed=2)
    d = run_closed_form_study(ClosedFormStudyConfig(workers=1, **t_kw)).to_json()
    e = run_closed_form_study(ClosedFormStudyConfig(workers=2, **t_kw)).to_json()
    elapsed = time.time() - t0
    ok = (a == b == c) and (d == e) and (f == g) and elapsed < 120.0
    _report("byte-identical-reports", ok,
            f"study {len(a)} + {len(f)} bytes, closed-form {len(d)} bytes; "
            f"{elapsed:.1f}s")
    assert ok
