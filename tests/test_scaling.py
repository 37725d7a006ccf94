import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.asymptotics import SandwichMatrices, marginal_matrices
from l2calib.calibration import estimate_theta, l2_loss_fn
from l2calib.models import SCENARIO_NAMES, DomainBox, make_scenario
from l2calib.numerics import build_rule
from l2calib.scaling import (ScalingAdjustment, ScalingError,
                             curvature_adjustment, fixed_gamma, magnitude_gamma,
                             no_scaling, scaled_loss)
from l2calib.simharness import generate_replicate
from l2calib.smoother import fit_smoother
from oracles import linear_estimator_variance, variance_matching_gamma


def _sw(v, w, n=8, sigma2=0.0625):
    return SandwichMatrices(V=np.atleast_2d(np.asarray(v, float)),
                            W=np.atleast_2d(np.asarray(w, float)),
                            variant="marginal", n=n, sigma2=sigma2)


def test_magnitude_gamma_linear_closed_form():
    # V = 2/3, W = 4 sigma2/(3 n) -> gamma = 1 / (2 sigma2), free of n
    sigma2 = 0.0625
    for n in (4, 8, 32):
        sw = _sw(2.0 / 3.0, 4.0 * sigma2 / (3.0 * n), n=n, sigma2=sigma2)
        assert_allclose(magnitude_gamma(sw), 1.0 / (2.0 * sigma2), rtol=1e-12)
    assert_allclose(magnitude_gamma(_sw(2 / 3, 4 * 0.0625 / 24, n=8)), 8.0,
                    rtol=1e-12)


def test_magnitude_gamma_fixed_point():
    # W = V / n leaves the loss unscaled
    v = np.array([[2.0, 0.3], [0.3, 1.0]])
    sw = SandwichMatrices(V=v, W=v / 12, variant="marginal", n=12, sigma2=1.0)
    assert_allclose(magnitude_gamma(sw), 1.0, rtol=1e-12)


def test_magnitude_gamma_halves_when_noise_doubles():
    base = magnitude_gamma(_sw(2 / 3, 4 * 0.0625 / 24, sigma2=0.0625))
    doubled = magnitude_gamma(_sw(2 / 3, 2 * 4 * 0.0625 / 24, sigma2=0.125))
    assert_allclose(doubled, base / 2.0, rtol=1e-12)


def test_magnitude_gamma_rejects_degenerate():
    with pytest.raises(ScalingError):
        magnitude_gamma(_sw(1.0, 0.0))


def test_curvature_scalar_value():
    # p = 1: Gamma = sqrt(V / (n W)) = sqrt(gamma)
    sigma2 = 0.0625
    sw = _sw(2.0 / 3.0, 4.0 * sigma2 / (3.0 * 8), n=8, sigma2=sigma2)
    adj = curvature_adjustment(sw, anchor=[3.0])
    assert_allclose(adj.Gamma, [[np.sqrt(1.0 / (2.0 * sigma2))]], rtol=1e-12)
    assert_allclose(adj.Gamma, [[2.8284271247461903]], rtol=1e-12)
    assert_allclose(adj.Gamma[0, 0] ** 2, magnitude_gamma(sw), rtol=1e-12)


def test_curvature_identity_fixed_point():
    v = np.array([[1.5, 0.2], [0.2, 0.9]])
    sw = SandwichMatrices(V=v, W=v / 20, variant="marginal", n=20, sigma2=1.0)
    adj = curvature_adjustment(sw, anchor=[0.0, 0.0])
    assert_allclose(adj.Gamma, np.eye(2), atol=1e-10)


def test_curvature_defining_property_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(15):
        b = rng.standard_normal((3, 3))
        v = b @ b.T + 0.5 * np.eye(3)
        c = rng.standard_normal((3, 3))
        w = (c @ c.T + 0.1 * np.eye(3)) / 40
        sw = SandwichMatrices(V=v, W=w, variant="marginal", n=40, sigma2=1.0)
        adj = curvature_adjustment(sw, anchor=np.zeros(3))
        target = v @ np.linalg.solve(40 * w, v)
        lhs = adj.Gamma.T @ v @ adj.Gamma
        assert np.linalg.norm(lhs - target) < 1e-8 * np.linalg.norm(target)
        # posterior covariance equals the estimator sandwich
        post_cov = np.linalg.inv(40 * lhs)
        vinv = np.linalg.inv(v)
        assert_allclose(post_cov, vinv @ w @ vinv, rtol=1e-8)


def test_curvature_scenario1_matrices():
    model, system, _ = make_scenario("scenario1")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 50, seed=5)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, seed=5)
    sw = marginal_matrices(est, fit, model, rule)
    adj = curvature_adjustment(sw, est.theta)
    target = sw.V @ np.linalg.solve(sw.n * sw.W, sw.V)
    lhs = adj.Gamma.T @ sw.V @ adj.Gamma
    assert np.linalg.norm(lhs - target) < 1e-8 * np.linalg.norm(target)


def test_curvature_rejects_singular_w():
    v = np.eye(2)
    # singular, then negative definite with its largest eigenvalue below -1
    for w in (np.array([[1.0, 0.0], [0.0, 0.0]]) / 10, -2.0 * np.eye(2)):
        sw = SandwichMatrices(V=v, W=w, variant="marginal", n=10, sigma2=1.0)
        with pytest.raises(ScalingError, match="W is singular.*use magnitude"):
            curvature_adjustment(sw, anchor=[0.0, 0.0])


def test_scaled_loss_magnitude():
    base = lambda th: float((th[0] - 1.0) ** 2)
    adj = fixed_gamma(5.0)
    loss = scaled_loss(adj, base)
    assert loss([3.0]) == pytest.approx(5.0 * base([3.0]))
    assert scaled_loss(fixed_gamma(1.0), base)([2.2]) == pytest.approx(base([2.2]))
    assert scaled_loss(no_scaling(), base) is base


def test_scaled_loss_curvature_preserves_minimiser_and_curvature():
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 8, seed=3)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, seed=0)
    base = l2_loss_fn(fit, model, rule)
    sw = marginal_matrices(est, fit, model, rule)
    adj = curvature_adjustment(sw, est.theta)
    loss = scaled_loss(adj, base, model.theta_box)
    th = est.theta[0]
    # minimum stays put
    assert loss([th]) <= loss([th + 1e-3]) and loss([th]) <= loss([th - 1e-3])
    # second derivative is Gamma^2 times the base curvature
    h = 1e-3
    second = (loss([th + h]) - 2 * loss([th]) + loss([th - h])) / h**2
    base_second = (base([th + h]) - 2 * base([th]) + base([th - h])) / h**2
    assert_allclose(second, adj.Gamma[0, 0] ** 2 * base_second, rtol=1e-5)


def test_scaled_loss_curvature_gamma_two_quadruples_hessian():
    base = lambda th: float((th[0] - 0.5) ** 2)
    adj_like = curvature_adjustment(
        _sw(1.0, 1.0 / (4 * 8), n=8), anchor=[0.5])
    assert_allclose(adj_like.Gamma, [[2.0]], rtol=1e-12)
    from l2calib.models import DomainBox
    box = DomainBox(np.array([-10.0]), np.array([10.0]))
    loss = scaled_loss(adj_like, base, box)
    h = 1e-4
    second = (loss([0.5 + h]) - 2 * loss([0.5]) + loss([0.5 - h])) / h**2
    assert_allclose(second, 4.0 * 2.0, rtol=1e-4)


def test_scaled_loss_curvature_needs_box():
    base = lambda th: float(th[0] ** 2)
    adj = curvature_adjustment(_sw(1.0, 1.0 / 16, n=4), anchor=[0.0])
    with pytest.raises(ScalingError, match="box"):
        scaled_loss(adj, base)


def test_scaled_loss_curvature_keeps_non_finite_base_inside_box():
    # no penalty term on rows the remap keeps inside the box, so an infinite
    # base loss there stays +inf (0 * inf would make it NaN) without warnings
    base = lambda th: np.where(th[:, 0] > 0.0, np.inf, th[:, 0] ** 2)
    adj = ScalingAdjustment(kind="curvature", Gamma=np.eye(1), anchor=np.zeros(1))
    box = DomainBox(np.array([-1.0]), np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = scaled_loss(adj, base, box)(np.array([[0.5], [-0.5], [-3.0]]))
    assert vals[0] == np.inf and vals[1] == 0.25
    assert vals[2] == 1.0 + 4.0 * 1e3 * 2.0


def test_scaled_loss_curvature_finite_outside_box():
    model, _, _ = make_scenario("simple-linear")
    base = lambda th: float((th[0] - 3.0) ** 2)
    adj = curvature_adjustment(_sw(2 / 3, 2 / 3 / 64, n=8), anchor=[3.0])
    loss = scaled_loss(adj, base, model.theta_box)
    # remapped argument escapes the box; the wrapped loss stays finite and grows
    val_edge = loss([9.9])
    val_out = loss([30.0])
    assert np.isfinite(val_edge) and np.isfinite(val_out)
    assert val_out > val_edge


def test_variance_matching_linear_pipeline():
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 8, seed=3)
    fit = fit_smoother(data)
    var = linear_estimator_variance(fit, rule, sigma2=0.0625)
    g = variance_matching_gamma(fit, model, rule, tau2=1.0, sigma2=0.0625)
    den = 1.0 / 3.0
    assert_allclose(g, (1.0 / (2 * 8 * den)) * (1.0 / var - 1.0), rtol=1e-10)
    assert g > 0
    # posterior variance under the matched gamma equals the sampling variance
    post_var = 1.0 / (2 * 8 * g * den + 1.0)
    assert_allclose(post_var, var, rtol=1e-10)


def test_variance_matching_flat_prior_limit():
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    data = generate_replicate(system, 8, seed=3)
    fit = fit_smoother(data)
    var = linear_estimator_variance(fit, rule, sigma2=0.0625)
    g = variance_matching_gamma(fit, model, rule, tau2=np.inf, sigma2=0.0625)
    assert_allclose(g, 3.0 / (2 * 8 * var), rtol=1e-8)


def test_variance_matching_rejects_nonlinear_and_boundary():
    model2, system2, _ = make_scenario("scenario2")
    rule = build_rule([0.0], [1.0], 64)
    data2 = generate_replicate(system2, 30, seed=1)
    fit2 = fit_smoother(data2)
    with pytest.raises(ScalingError, match="linear"):
        variance_matching_gamma(fit2, model2, rule, tau2=1.0)

    model, system, _ = make_scenario("simple-linear")
    data = generate_replicate(system, 8, seed=3)
    fit = fit_smoother(data)
    var = linear_estimator_variance(fit, rule, sigma2=0.0625)
    with pytest.raises(ScalingError, match="prior variance"):
        variance_matching_gamma(fit, model, rule, tau2=var / 2, sigma2=0.0625)
    with pytest.raises(ScalingError):
        variance_matching_gamma(fit, model, rule, tau2=-1.0)


def test_adjustment_validation():
    with pytest.raises(ValueError, match="kind"):
        from l2calib.scaling import ScalingAdjustment
        ScalingAdjustment(kind="shrink")
    with pytest.raises(ScalingError):
        fixed_gamma(0.0)
    with pytest.raises(ScalingError):
        fixed_gamma(-2.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SCENARIO_NAMES), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_scaled_loss_batch_rows_equal_single_theta(name, chains, seed):
    model, system, _ = make_scenario(name)
    box = model.theta_box
    base = l2_loss_fn(system.mu, model,
                      build_rule(model.x_box.lower, model.x_box.upper, 16))
    rng = np.random.default_rng(seed)
    p, width = box.dim, box.upper - box.lower
    anchor = box.lower + rng.random(p) * width
    gamma_mat = np.eye(p) + rng.uniform(-0.5, 0.5, (p, p))
    curvature = ScalingAdjustment(kind="curvature", Gamma=gamma_mat, anchor=anchor)
    # rows from twice the box, and one that the remap sends far outside it
    thetas = box.lower - 0.5 * width + 2.0 * rng.random((chains, p)) * width
    thetas = np.vstack([thetas, anchor + 1e6 * width])
    mapped = anchor + (thetas - anchor) @ gamma_mat.T
    assert not box.contains(mapped[-1])
    # rows the remap keeps inside the box, near the anchor; rows it sends to
    # within about 1e-12 of a face, on either side
    inside = anchor + 1e-6 * width * rng.uniform(-1.0, 1.0, (chains, p))
    face_pts = box.lower + rng.random((chains, p)) * width
    j = rng.integers(p, size=chains)
    face = np.where(rng.random(chains) < 0.5, box.lower[j], box.upper[j])
    face_pts[np.arange(chains), j] = face + rng.uniform(-1e-12, 1e-12, chains)
    near_face = anchor + np.linalg.solve(gamma_mat, (face_pts - anchor).T).T
    for rows in (thetas, inside, near_face):
        for adj in (no_scaling(), fixed_gamma(rng.uniform(0.1, 10.0)), curvature):
            loss = scaled_loss(adj, base, box)
            batch = loss(rows)
            assert batch.shape == (rows.shape[0],)
            # with the far row appended no batch is wholly inside the box
            assert np.array_equal(loss(np.vstack([rows, thetas[-1]]))[:-1], batch)
            for i in range(rows.shape[0]):
                assert batch[i] == loss(rows[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_curvature_gamma_solves_its_defining_equation(p, n, seed):
    # Gamma^T V Gamma = V (n W)^-1 V for random SPD V and W
    rng = np.random.default_rng(seed)
    v, w = (b @ b.T + 0.1 * np.eye(p) for b in rng.standard_normal((2, p, p)))
    sw = SandwichMatrices(V=v, W=w, variant="marginal", n=n, sigma2=1.0)
    gamma_mat = curvature_adjustment(sw, anchor=np.zeros(p)).Gamma
    target = v @ np.linalg.inv(n * w) @ v
    assert_allclose(gamma_mat.T @ v @ gamma_mat, target,
                    atol=1e-9 * np.abs(target).max())
