import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib import calibration
from l2calib.calibration import (StraightLine, estimate_many, estimate_theta,
                                 l2_loss_fn, l2_loss_hess, l2_loss_terms,
                                 linear_theta_hat, ols_loss_fn, ols_loss_hess,
                                 ols_loss_terms, sampler_l2_loss)
from l2calib.models import SCENARIO_NAMES, make_scenario
from l2calib.numerics import build_rule
from l2calib.simharness import generate_replicate
from l2calib.smoother import (KERNEL_FAMILIES, Dataset, GcvGrid, KernelSpec, fit_smoother,
                              kernel_matrix)
from oracles import linear_estimator_variance


def _rule(model, order=64):
    return build_rule(model.x_box.lower, model.x_box.upper, order)


def test_l2_loss_zero_when_mean_equals_model():
    model, _, _ = make_scenario("simple-linear")
    rule = _rule(model)
    mu = lambda pts: 4.0 * pts[:, 0]
    assert l2_loss_fn(mu, model, rule)([4.0]) == pytest.approx(0.0, abs=1e-15)


def test_l2_loss_linear_closed_form():
    # mean 4x against theta x: loss = (4 - theta)^2 / 3
    model, _, _ = make_scenario("simple-linear")
    rule = _rule(model)
    mu = lambda pts: 4.0 * pts[:, 0]
    assert_allclose(l2_loss_fn(mu, model, rule)([1.0]), 3.0, atol=1e-12)
    assert_allclose(l2_loss_fn(mu, model, rule)([-2.0]), 12.0, atol=1e-12)


def test_l2_loss_quadratic_in_theta_for_linear_model():
    model, _, _ = make_scenario("simple-linear")
    rule = _rule(model)
    mu = lambda pts: 4.0 * pts[:, 0] + np.sin(pts[:, 0])
    loss = l2_loss_fn(mu, model, rule)
    h = 0.25
    second = (loss([2.0 + h]) - 2 * loss([2.0]) + loss([2.0 - h])) / h**2
    assert_allclose(second, 2.0 / 3.0, atol=1e-9)
    assert_allclose(l2_loss_hess([2.0], mu, model, rule), [[2.0 / 3.0]],
                    atol=1e-12)


def test_l2_loss_dense_grid_cross_check():
    # quadrature vs trapezoid on a fine grid, independent integration route
    model, system, _ = make_scenario("scenario2")
    rule = _rule(model)
    theta = np.array([1.3])
    val = l2_loss_fn(system.mu, model, rule)(theta)
    xs = np.linspace(0.0, 1.0, 200_001).reshape(-1, 1)
    integrand = (np.asarray(system.mu(xs)) - model.eta(theta, xs)) ** 2
    dense = np.trapezoid(integrand, xs[:, 0])
    assert_allclose(val, dense, rtol=1e-6)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for name in ("simple-linear", "scenario1", "scenario2", "scenario3"):
        model, system, _ = make_scenario(name)
        rule = _rule(model)
        terms = l2_loss_terms(system.mu, model, rule)
        loss = l2_loss_fn(system.mu, model, rule, terms=terms)
        p = model.n_params
        lo, hi = model.theta_box.lower, model.theta_box.upper
        h = 1e-6
        for _ in range(10):
            theta = lo + (0.05 + 0.9 * rng.random(p)) * (hi - lo)
            g = terms.grad_hess(theta)[0]
            for j in range(p):
                d = np.zeros(p)
                d[j] = h * max(1.0, abs(theta[j]))
                fd = (loss(theta + d) - loss(theta - d)) / (2 * d[j])
                assert abs(fd - g[j]) <= 1e-5 * max(1.0, abs(fd))


def test_hessian_matches_finite_differences_of_gradient():
    model, system, _ = make_scenario("scenario1")
    rule = _rule(model)
    theta = np.array([0.12, 0.34])
    hmat = l2_loss_hess(theta, system.mu, model, rule)
    assert_allclose(hmat, hmat.T, atol=1e-12)
    terms = l2_loss_terms(system.mu, model, rule)
    h = 1e-6
    for j in range(2):
        d = np.zeros(2)
        d[j] = h
        col = (terms.grad_hess(theta + d)[0] - terms.grad_hess(theta - d)[0]) / (2 * h)
        assert_allclose(col, hmat[:, j], rtol=1e-5, atol=1e-7)


def test_grad_hess_evaluates_the_model_once_and_matches_grad_and_hess():
    model, system, _ = make_scenario("scenario1")
    calls = {"eta": 0, "grad_eta": 0, "hess_eta": 0}

    def counted(name):
        fn = getattr(model, name)
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    model = dataclasses.replace(model, **{k: counted(k) for k in calls})
    terms = l2_loss_terms(system.mu, model, _rule(model))
    theta = np.array([0.12, 0.34])
    g, h = terms.grad_hess(theta)
    assert calls == {"eta": 1, "grad_eta": 1, "hess_eta": 1}
    assert np.array_equal(g, terms.grad_hess(theta)[0])
    assert np.array_equal(h, l2_loss_hess(theta, system.mu, model, _rule(model)))


def test_discrepancy_term_shifts_hessian():
    # for a curved model the Hessian is not the gradient Gram matrix alone
    model, system, _ = make_scenario("scenario2")
    rule = _rule(model)
    theta = np.array([1.877])
    g = model.grad_eta(theta, rule.nodes)
    gram_only = 2.0 * (g * rule.weights[:, None]).T @ g
    full = l2_loss_hess(theta, system.mu, model, rule)
    assert abs(full[0, 0] - gram_only[0, 0]) > 1.0


def test_ols_loss_values():
    model, _, _ = make_scenario("simple-linear")
    one = Dataset(design=np.array([[1.0]]), responses=np.array([2.0]))
    assert ols_loss_fn(one, model)([1.0]) == pytest.approx(1.0)
    x = np.linspace(0.1, 1.0, 5).reshape(-1, 1)
    exact = Dataset(design=x, responses=3.0 * x[:, 0])
    assert ols_loss_fn(exact, model)([3.0]) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(1)
    noisy = Dataset(design=x, responses=rng.standard_normal(5))
    assert ols_loss_fn(noisy, model)([2.0]) >= 0.0


def test_ols_derivatives_linear_model():
    model, _, _ = make_scenario("simple-linear")
    x = np.linspace(0.1, 1.0, 6).reshape(-1, 1)
    y = 2.0 + x[:, 0]
    data = Dataset(design=x, responses=y)
    theta = np.array([1.7])
    r = y - 1.7 * x[:, 0]
    assert_allclose(ols_loss_terms(data, model).grad_hess(theta)[0],
                    [-2.0 * np.mean(r * x[:, 0])], atol=1e-14)
    assert_allclose(ols_loss_hess(theta, data, model),
                    [[2.0 * np.mean(x[:, 0] ** 2)]], atol=1e-14)


def test_estimate_matches_closed_form_linear():
    model, system, _ = make_scenario("simple-linear")
    rule = _rule(model)
    data = generate_replicate(system, 8, seed=3)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, method="l2", seed=0)
    assert est.converged
    assert_allclose(est.theta, [linear_theta_hat(fit, rule)], atol=1e-6)
    grad = l2_loss_terms(fit, model, rule).grad_hess(est.theta)[0]
    assert np.max(np.abs(grad)) < 1e-6


def test_estimate_ols_closed_form_linear():
    model, system, _ = make_scenario("simple-linear")
    data = generate_replicate(system, 8, seed=3)
    est = estimate_theta(data, model, method="ols", seed=0)
    x, y = data.design[:, 0], data.responses
    assert_allclose(est.theta, [float(x @ y) / float(x @ x)], atol=1e-8)


def test_population_minimiser_scenario1_exact():
    model, system, _ = make_scenario("scenario1")
    rule = _rule(model)
    est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
    assert_allclose(est.theta, [0.2, 0.3], atol=1e-4)


def test_population_minimiser_scenario2():
    model, system, _ = make_scenario("scenario2")
    rule = _rule(model)
    est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
    assert_allclose(est.theta, [1.8771], atol=2e-3)
    # frozen to full precision from an independent grid-refinement oracle
    assert_allclose(est.theta, [1.877202027], atol=1e-6)


def test_estimate_argument_validation():
    model, system, _ = make_scenario("simple-linear")
    with pytest.raises(ValueError, match="quadrature"):
        estimate_theta(system.mu, model, rule=None, method="l2")
    with pytest.raises(TypeError):
        estimate_theta(system.mu, model, method="ols")
    with pytest.raises(ValueError, match="unknown method"):
        estimate_theta(system.mu, model, _rule(model), method="map")


def test_loss_rejects_rule_outside_model_box():
    model, system, _ = make_scenario("scenario3")  # x box is [0, 1]
    wide = build_rule([0.0], [1.5], 16)
    with pytest.raises(ValueError, match="outside"):
        l2_loss_fn(system.mu, model, wide)([3.0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SCENARIO_NAMES), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_l2_loss_batch_rows_equal_single_theta(name, chains, seed):
    model, system, _ = make_scenario(name)
    grad_hess = l2_loss_terms(system.mu, model, _rule(model)).grad_hess
    box = model.theta_box
    rng = np.random.default_rng(seed)
    thetas = box.lower + rng.random((chains, box.dim)) * (box.upper - box.lower)
    for loss in (l2_loss_fn(system.mu, model, _rule(model)),
                 sampler_l2_loss(system.mu, model, _rule(model))):
        batch = loss(thetas)
        assert batch.shape == (chains,)
        for i in range(chains):
            assert batch[i] == loss(thetas[i])
    g, h = grad_hess(thetas)
    assert (g.shape, h.shape) == ((chains, box.dim), (chains, box.dim, box.dim))
    for i in range(chains):
        gi, hi = grad_hess(thetas[i])
        assert np.array_equal(g[i], gi) and np.array_equal(h[i], hi)


def _linear_model_nan_above(cut):
    """simple-linear's model, with eta NaN wherever theta > cut."""
    base, system, _ = make_scenario("simple-linear")

    def eta(theta, x):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta[..., :1] > cut, np.nan, base.eta(theta, x))

    return dataclasses.replace(base, eta=eta, features=None, coefs=None), system


def test_estimate_survives_non_finite_loss_on_part_of_box():
    # NaN loss on theta > 6; the minimiser (about 3.57) lies in the finite part
    model, system = _linear_model_nan_above(6.0)
    clean, _, _ = make_scenario("simple-linear")
    rule = _rule(model)
    est = estimate_theta(system.mu, model, rule, seed=4)
    ref = estimate_theta(system.mu, clean, rule, seed=4)
    assert est.converged and est.flags == ()
    assert_allclose(est.theta, ref.theta, atol=1e-10)


def test_estimate_not_converged_when_minimiser_is_non_finite():
    # NaN loss on theta > 3 hides the minimiser: the descent stalls at the
    # edge of the finite region, which is no stationary point
    model, system = _linear_model_nan_above(3.0)
    est = estimate_theta(system.mu, model, _rule(model), seed=4)
    assert not est.converged and est.flags == ("estimate-not-converged",)
    assert np.isfinite(est.value) and 2.9 < est.theta[0] <= 3.0
    # a start keeps the shift a NaN trial forced, so it does not step back into
    # the NaN region after each accepted step: 4,457 loss points without that
    assert est.n_evals <= 900


@functools.cache
def _estimate_sources(kind):
    """(model, rule, sources) for batched estimates. Under "nan-above-3" a
    replicate fit's minimiser (about 3.57) hides in the NaN region, so its
    estimate stalls unconverged; the means a x have their minimisers in the
    finite part, and a NaN mean leaves no finite start at all."""
    if kind == "nan-above-3":
        model, system = _linear_model_nan_above(3.0)
        sources = [fit_smoother(generate_replicate(system, 8, 0)),
                   lambda x: 2.0 * x[:, 0], lambda x: np.full(len(x), np.nan),
                   lambda x: -1.0 * x[:, 0], lambda x: 2.5 * x[:, 0]]
    else:
        model, system, defaults = make_scenario(kind)
        sources = [fit_smoother(generate_replicate(system, defaults["n"], s))
                   for s in range(6)]
    return model, _rule(model), sources


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["scenario1", "scenario2", "nan-above-3"]),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=20),
       st.integers(1, 10))
def test_estimate_many_rows_equal_estimate_theta(kind, problems, n_starts):
    # each problem of the lockstep minimisation ends where its own estimate
    # does, whatever its neighbours; the non-finite ones included
    model, rule, pool = _estimate_sources(kind)
    sources = [pool[i % len(pool)] for i, _ in problems]
    seeds = [seed for _, seed in problems]
    batch = estimate_many(sources, model, rule, seeds, n_starts)
    assert len(batch) == len(sources)
    for est, source, seed in zip(batch, sources, seeds):
        ref = estimate_theta(source, model, rule, seed=seed, n_starts=n_starts)
        assert np.array_equal(est.theta, ref.theta)
        assert np.array_equal(est.value, ref.value, equal_nan=True)
        assert np.array_equal(est.hessian, ref.hessian, equal_nan=True)
        assert (est.converged, est.n_evals, est.best_start) == \
            (ref.converged, ref.n_evals, ref.best_start)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["scenario1", "simple-linear", "scenario3"]), st.integers(0, 5),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_sampler_loss_of_a_feature_linear_model_is_the_l2_loss(kind, source, rows, seed):
    # the quadratic form in coefs(theta) against the residual sum over the
    # nodes: rows inside the box, on its faces and next to the minimiser
    model, rule, sources = _estimate_sources(kind)
    fit, box = sources[source], model.theta_box
    rng = np.random.default_rng(seed)
    thetas = box.lower + rng.random((rows, box.dim)) * (box.upper - box.lower)
    face = rng.random(thetas.shape) < 0.3
    thetas[face] = np.where(rng.random(thetas.shape) < 0.5, box.lower, box.upper)[face]
    near = rng.random(rows) < 0.3
    spread = 1e-3 * (box.upper - box.lower) * rng.standard_normal((rows, box.dim))
    thetas[near] = box.clip(estimate_theta(fit, model, rule).theta + spread)[near]
    got = sampler_l2_loss(fit, model, rule)(thetas)
    assert_allclose(got, l2_loss_terms(fit, model, rule).value(thetas), rtol=1e-10, atol=0)


def test_sampler_loss_of_a_model_without_features_is_l2_loss_fns_closure(monkeypatch):
    model, system, _ = make_scenario("scenario2")
    assert model.features is None and model.coefs is None
    closures = []

    def recording(*args, **kwargs):
        closures.append(l2_loss_fn(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(calibration, "l2_loss_fn", recording)
    loss = sampler_l2_loss(system.mu, model, _rule(model))
    assert len(closures) == 1 and loss is closures[0]


def test_estimate_many_covers_stalled_and_non_finite_problems():
    # the property above sees all three outcomes under "nan-above-3"
    model, rule, pool = _estimate_sources("nan-above-3")
    stalled, finite, nan = estimate_many(pool[:3], model, rule, [4, 4, 4])
    assert not stalled.converged and 2.9 < stalled.theta[0] <= 3.0
    assert finite.converged and finite.theta[0] == pytest.approx(2.0)
    assert not nan.converged and np.isnan(nan.value)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([n for n in SCENARIO_NAMES
                        if make_scenario(n)[0].n_params == 1]),
       st.integers(0, 2**31 - 1))
def test_estimate_loss_at_most_grid_minimum(name, seed):
    model, system, defaults = make_scenario(name)
    rule = _rule(model)
    data = generate_replicate(system, defaults["n"], seed)
    fit = fit_smoother(data)
    est = estimate_theta(fit, model, rule, seed=seed)
    grid = np.linspace(model.theta_box.lower[0], model.theta_box.upper[0], 2001)
    assert est.converged
    assert est.value <= l2_loss_fn(fit, model, rule)(grid[:, None]).min()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["simple-linear", "scenario3"]), st.integers(4, 50),
       st.sampled_from([16, 64]), st.integers(0, 2**32 - 1))
def test_straight_line_closed_form_matches_quadrature_definition(name, n, order, seed):
    model, system, _ = make_scenario(name)
    rule = _rule(model, order)
    fit = fit_smoother(generate_replicate(system, n, seed))
    x, w = rule.nodes[:, 0], rule.weights
    den = float(np.sum(w * x * x))
    # the definitions: int x mu_hat dx / int x^2 dx, sigma^2 ||Phi^-1 q||^2 / den^2
    theta_ref = float(np.sum(w * x * fit.predict(rule.nodes))) / den
    q = kernel_matrix(fit.kernel, rule.nodes, fit.data.design).T @ (w * x)
    phi_inv_q = fit.solve_phi(q)
    var_ref = 0.3 * float(phi_inv_q @ phi_inv_q) / den**2
    assert_allclose(linear_estimator_variance(fit, rule, sigma2=0.3), var_ref,
                    rtol=1e-8)
    # Both routes round Q'q and Q'y, and 1 / (d + lam) scales that error by
    # up to 1e8 at the smallest ridge: each is eps * kappa from the exact
    # value (checked against 50-digit arithmetic), so neither is the better
    # reference where kappa * eps passes 1e-8.
    line = StraightLine(rule)
    qt_q, z, d, lam = line.fit_terms(fit)
    kappa = np.linalg.norm(qt_q) * np.linalg.norm(z / (d + lam)) / abs(theta_ref * den)
    rel = abs(linear_theta_hat(fit, rule) - theta_ref) / abs(theta_ref)
    assert rel <= max(1e-8, 8 * np.finfo(float).eps * kappa)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 60), st.sampled_from(KERNEL_FAMILIES), st.sampled_from([16, 64]),
       st.sampled_from(["equidistant", "uniform"]), st.integers(0, 2**32 - 1))
def test_straight_line_qt_q_of_a_grid_stack_equals_each_bandwidths_call(n, family, order,
                                                                         design, seed):
    # the closed-form study takes Q'q for a grid's whole stack from one call
    model, _, _ = make_scenario("simple-linear")
    line = StraightLine(_rule(model, order))
    rng = np.random.default_rng(seed)
    x = (np.linspace(0.0, 1.0, n) if design == "equidistant" else rng.random(n)).reshape(-1, 1)
    grid = GcvGrid(x, family=family)
    stack = line.qt_q(KernelSpec(family, grid.rho_grid), x, grid.eig_vectors)
    assert stack.shape == grid.eig_values.shape
    for rho, q, row in zip(grid.rho_grid, grid.eig_vectors, stack):
        spec = KernelSpec(family, rho)
        assert np.array_equal(row, line.qt_q(spec, x, q))
        assert np.array_equal(row, q.T @ (kernel_matrix(spec, line.nodes, x).T @ line.wx))
