from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from l2calib import asymptotics
from l2calib.asymptotics import (SingularCurvatureError, conditional_matrices,
                                 marginal_matrices, ols_matrices)
from l2calib.calibration import estimate_theta
from l2calib.models import make_scenario
from l2calib.numerics import build_rule, check_definite
from l2calib.simharness import generate_replicate
from l2calib.smoother import Dataset, KernelSpec, fit_smoother
from oracles import estimator_cov, fit_smoother_fixed, linear_estimator_variance


def _pipeline(name, n, seed, method="l2"):
    model, system, _ = make_scenario(name)
    rule = build_rule(model.x_box.lower, model.x_box.upper, 64)
    data = generate_replicate(system, n, seed)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, method=method, seed=seed)
    return model, system, rule, data, fit, est


def test_marginal_values_linear_model():
    # V = 2 int x^2 dx = 2/3; W = 4 sigma2 int x^2 dx / n = 4 sigma2 / (3 n)
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    sw = marginal_matrices(est, replace(fit, sigma2_hat=0.0625), model, rule)
    assert_allclose(sw.V, [[2.0 / 3.0]], atol=1e-10)
    assert_allclose(sw.W, [[4.0 * 0.0625 / (3.0 * 8)]], atol=1e-10)
    assert_allclose(sw.W, [[0.0104167]], atol=1e-6)
    assert sw.variant == "marginal"
    assert sw.n == 8 and sw.sigma2 == 0.0625


def test_marginal_uses_fit_noise_estimate_by_default():
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    sw = marginal_matrices(est, fit, model, rule)
    assert sw.sigma2 == fit.sigma2_hat
    assert_allclose(sw.W, [[4.0 * fit.sigma2_hat / (3.0 * 8)]], atol=1e-12)


def test_scenario1_w_rank():
    model, system, rule, data, fit, est = _pipeline("scenario1", 50, 5)
    sw = marginal_matrices(est, fit, model, rule)
    eig = np.linalg.eigvalsh(sw.W)
    assert eig.min() > -1e-12
    assert sw.W.shape == (2, 2)


def test_conditional_derived_matches_closed_form_variance():
    # the sandwich with the derived middle matrix reproduces the exact
    # conditional variance of the closed-form straight-line estimator
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    sw = conditional_matrices(est, fit, model, rule, form="derived")
    closed = linear_estimator_variance(fit, rule)
    assert_allclose(estimator_cov(sw)[0, 0], closed, rtol=1e-8)


def test_conditional_forms_differ_in_general():
    model, system, rule, data, fit, est = _pipeline("scenario3", 17, 7)
    der = conditional_matrices(est, fit, model, rule, form="derived")
    lit = conditional_matrices(est, fit, model, rule, form="literal")
    assert der.variant == "conditional-derived"
    assert lit.variant == "conditional-literal"
    # same curvature, different middle matrices
    assert_allclose(der.V, lit.V, atol=1e-12)
    assert not np.allclose(der.W, lit.W, rtol=0.05)


def test_conditional_single_observation_rank_one():
    # one observation, lam = 0: weights g(x) = kappa(x, x1); both forms stay
    # computable and PSD
    model, _, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    one = Dataset(design=np.array([[0.5]]), responses=np.array([2.0]))
    fit = fit_smoother_fixed(one, KernelSpec("gaussian", np.array([0.4])), 0.0)
    est = estimate_theta(fit, model, rule, method="l2", seed=0)
    for form in ("derived", "literal"):
        sw = conditional_matrices(est, replace(fit, sigma2_hat=1.0), model, rule,
                                  form=form)
        assert np.linalg.eigvalsh(sw.W).min() >= -1e-12
        assert np.all(np.isfinite(estimator_cov(sw)))


def test_conditional_rejects_unknown_form():
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    with pytest.raises(ValueError, match="form"):
        conditional_matrices(est, fit, model, rule, form="exact")


def test_ols_matrices_requires_ols_estimate():
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    with pytest.raises(ValueError, match="ols"):
        ols_matrices(est, fit, model, rule)


def test_ols_inflation_positive_under_discrepancy():
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3,
                                                    method="ols")
    sw = ols_matrices(est, fit, model, rule)
    assert sw.W_E is not None
    assert sw.W_E[0, 0] > 0.0
    # W_E = (4/n) int (mu_hat - theta x)^2 x^2 dx by quadrature
    nodes, w = rule.nodes, rule.weights
    bias = fit.predict(nodes) - est.theta[0] * nodes[:, 0]
    direct = 4.0 / data.n * float(np.sum(w * bias**2 * nodes[:, 0] ** 2))
    assert_allclose(sw.W_E[0, 0], direct, rtol=1e-10)
    # total middle matrix adds the inflation
    assert_allclose(sw.w_total(), sw.W + sw.W_E, atol=0)


def test_ols_inflation_small_without_discrepancy():
    # scenario 1 truth lies inside the model class, so the extra term fades
    # relative to W; at n = 300 the residual smoothing error keeps the
    # measured ratio near 0.012 rather than exactly zero
    model, system, _ = make_scenario("scenario1")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 300, seed=11)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, method="ols", seed=1)
    sw = ols_matrices(est, fit, model, rule)
    assert np.linalg.norm(sw.W_E) < 0.05 * np.linalg.norm(sw.W)


def test_estimator_cov_is_symmetric_sandwich():
    model, system, rule, data, fit, est = _pipeline("scenario1", 50, 2)
    sw = marginal_matrices(est, fit, model, rule)
    cov = estimator_cov(sw)
    assert_allclose(cov, cov.T, atol=1e-14)
    vinv = np.linalg.inv(sw.V)
    assert_allclose(cov, vinv @ sw.W @ vinv, atol=1e-12)


def test_singular_curvature_raises():
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3)
    # singular, then negative definite with its largest eigenvalue below -1
    for hessian in ([[0.0]], [[-2.0]]):
        bad = type(est)(theta=est.theta, value=est.value, method="l2",
                        hessian=np.array(hessian), converged=True)
        with pytest.raises(SingularCurvatureError,
                           match="loss Hessian at the estimate is not positive definite"):
            marginal_matrices(bad, fit, model, rule)


@pytest.mark.parametrize("sigma2", [-1.0, np.nan])
@pytest.mark.parametrize("sandwich", [marginal_matrices, conditional_matrices,
                                      ols_matrices])
def test_invalid_noise_variance_raises(sandwich, sigma2):
    method = "ols" if sandwich is ols_matrices else "l2"
    model, system, rule, data, fit, est = _pipeline("simple-linear", 8, 3, method)
    with pytest.raises(ValueError, match="noise variance"):
        sandwich(est, replace(fit, sigma2_hat=sigma2), model, rule)


@pytest.mark.parametrize("what", ["W", "W_E"])
@pytest.mark.parametrize("largest", [0.5, 2.0])
def test_semidefinite_check_boundary(what, largest):
    # W and W_E may be singular: the smallest eigenvalue may reach
    # -1e-10 max(|largest|, 1) and no further
    bound = 1e-10 * max(largest, 1.0)
    fail = asymptotics._not_psd(what)
    for zero in (0.0, -0.99 * bound):
        w = np.diag([zero, largest])
        assert check_definite(w, fail, semi=True).tobytes() == w.tobytes()
    with pytest.raises(ValueError, match=f"^{what} is not positive semidefinite; eigenvalues"):
        check_definite(np.diag([-1.01 * bound, largest]), fail, semi=True)
    with pytest.raises(ValueError):     # the definite test refuses a zero eigenvalue
        check_definite(np.diag([0.0, largest]), fail)
