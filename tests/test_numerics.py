import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import qmc

from l2calib import numerics
from l2calib.calibration import l2_loss_terms, ols_loss_terms
from l2calib.models import SCENARIO_NAMES, make_scenario
from l2calib.numerics import (FTOL, GTOL, MAX_NEWTON_ITER, FactorError,
                              _latin_starts, build_rule, gauss_legendre_01,
                              minimize_box, minimize_boxes, set_blas_threads,
                              sym_psd_factor)
from l2calib.simharness import generate_replicate
from l2calib.smoother import fit_smoother

# antiderivative of x sin 5x is (sin 5x - 5x cos 5x) / 25
INT_X_SIN5X = (np.sin(5.0) - 5.0 * np.cos(5.0)) / 25.0


def test_gauss_legendre_01_order2_exact_for_cubics():
    x, w = gauss_legendre_01(2)
    assert_allclose(np.sum(w * x**3), 0.25, rtol=0, atol=1e-15)


def test_weights_sum_to_volume():
    for order in (1, 2, 5, 64):
        _, w = gauss_legendre_01(order)
        assert_allclose(w.sum(), 1.0, atol=1e-14)
    rule = build_rule([0.0, -1.0], [2.0, 3.0], order=8)
    assert_allclose(rule.weights.sum(), 8.0, atol=1e-12)


def test_build_rule_tensor_product_exactness():
    rule = build_rule([0.0, 0.0], [1.0, 1.0], order=4)
    val = np.sum(rule.weights * rule.nodes[:, 0] ** 2 * rule.nodes[:, 1] ** 2)
    assert_allclose(val, 1.0 / 9.0, atol=1e-14)


def test_build_rule_rejects_bad_boxes():
    with pytest.raises(ValueError):
        build_rule([0.0], [0.0])
    with pytest.raises(ValueError):
        build_rule([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def _integrate(f, rule):
    """Quadrature of f, evaluated on all nodes at once, over the rule's box."""
    return np.tensordot(rule.weights, f(rule.nodes), axes=1)


def test_integrate_constant():
    rule = build_rule([0.0], [1.0], order=16)
    assert_allclose(_integrate(lambda x: np.ones(len(x)), rule), 1.0, atol=1e-14)


def test_integrate_matches_antiderivative():
    rule = build_rule([0.0], [1.0], order=64)
    val = _integrate(lambda x: x[:, 0] * np.sin(5.0 * x[:, 0]), rule)
    assert_allclose(val, INT_X_SIN5X, rtol=0, atol=1e-12)
    # frozen value of the same antiderivative, guards against silent edits
    assert_allclose(val, -0.09508940807917078, atol=1e-14)


def test_integrate_first_moment_of_wiggly_line():
    # 3 int (4x + x sin 5x) x dx equals the population minimiser of the
    # straight-line fit to that mean over [0, 1]
    rule = build_rule([0.0], [1.0], order=64)
    x = rule.nodes[:, 0]
    val = np.sum(rule.weights * 3.0 * (4.0 * x + x * np.sin(5.0 * x)) * x)
    assert_allclose(val, 3.565276647705146, atol=1e-10)


def test_integrate_matrix_valued():
    rule = build_rule([0.0], [1.0], order=8)
    x = rule.nodes[:, 0]
    out = _integrate(lambda _: np.stack([np.stack([np.ones_like(x), x], -1),
                                         np.stack([x, x ** 2], -1)], -2), rule)
    assert_allclose(out, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-13)


def _quadratic(centre, curv, cross=0.0):
    """f and grad_hess of sum_j curv_j (t_j - centre_j)^2 + cross t_0 t_1."""
    centre, curv = np.asarray(centre, float), np.asarray(curv, float)
    mix = np.zeros((centre.size, centre.size))
    if centre.size == 2:
        mix[0, 1] = mix[1, 0] = cross
    f = lambda t: float(np.sum(curv * (t - centre) ** 2) + 0.5 * t @ mix @ t)
    grad = lambda t: 2.0 * curv * (t - centre) + mix @ t
    return f, lambda t: (grad(t), np.diag(2.0 * curv) + mix)


def _rows(f, grad_hess):
    """The batch forms minimize_box calls, from single-point f and grad_hess."""
    return (lambda ts: np.array([f(t) for t in ts]),
            lambda ts: tuple(np.array(a) for a in zip(*[grad_hess(t) for t in ts])))


def test_minimize_box_quadratic():
    res = minimize_box(*_rows(*_quadratic([3.5], [1.0])), [2.0], [4.0], seed=0)
    assert res.converged
    assert_allclose(res.x, [3.5], atol=1e-8)


def test_minimize_box_boundary_argmin():
    res = minimize_box(*_rows(*_quadratic([9.0], [1.0])), [0.0], [4.0], seed=0)
    assert_allclose(res.x, [4.0], atol=1e-8)
    assert res.converged


def test_minimize_box_boundary_argmin_two_dim():
    # unconstrained minimiser (1.7, 0.4): the first coordinate stops on its
    # upper bound, the second stays interior and still converges
    f, grad_hess = _quadratic([1.7, 0.4], [1.0, 3.0], cross=0.2)
    res = minimize_box(*_rows(f, grad_hess), [0.0, 0.0], [1.0, 1.0], seed=2,
                       n_starts=6)
    assert res.converged
    assert res.x[0] == 1.0
    # interior coordinate solves its own first-order condition on the face
    assert_allclose(res.x[1], 0.4 - 0.2 / 6.0, atol=1e-10)
    assert grad_hess(res.x)[0][0] < 0


def test_minimize_box_two_dim_with_coupling():
    f, grad_hess = _quadratic([0.3, 0.7], [1.0, 2.0], cross=0.1)
    res = minimize_box(*_rows(f, grad_hess), [0.0, 0.0], [1.0, 1.0], seed=1,
                       n_starts=5)
    g = np.array([2.0 * (res.x[0] - 0.3) + 0.1 * res.x[1],
                  4.0 * (res.x[1] - 0.7) + 0.1 * res.x[0]])
    assert np.max(np.abs(g)) < 1e-6
    assert res.converged


def test_minimize_box_multimodal_finds_global():
    # a bimodal curve with the deeper well near t = -2
    f = lambda t: float(np.cos(3.0 * t[0]) + 0.05 * (t[0] + 2.0) ** 2)
    grad_hess = lambda t: (np.array([-3.0 * np.sin(3.0 * t[0]) + 0.1 * (t[0] + 2.0)]),
                           np.array([[-9.0 * np.cos(3.0 * t[0]) + 0.1]]))
    res = minimize_box(*_rows(f, grad_hess), [-4.0, ], [4.0], seed=0, n_starts=12)
    grid = np.linspace(-4, 4, 20001)
    brute = grid[np.argmin([f([t]) for t in grid])]
    assert_allclose(res.x[0], brute, atol=1e-4)
    assert res.converged and 0 <= res.best_start < 12


def test_minimize_box_deterministic():
    f = lambda t: float(np.sin(7 * t[0]) + t[0] ** 2)
    grad_hess = lambda t: (np.array([7 * np.cos(7 * t[0]) + 2 * t[0]]),
                           np.array([[-49 * np.sin(7 * t[0]) + 2.0]]))
    a = minimize_box(*_rows(f, grad_hess), [-3.0], [3.0], seed=5, n_starts=8)
    b = minimize_box(*_rows(f, grad_hess), [-3.0], [3.0], seed=5, n_starts=8)
    assert np.array_equal(a.x, b.x) and a.value == b.value
    assert (a.n_evals, a.best_start) == (b.n_evals, b.best_start)


def test_minimize_box_counts_evaluations():
    calls = []
    f, grad_hess = _quadratic([0.2, 0.6], [1.0, 1.0])
    counted = lambda t: calls.append(1) or f(t)
    res = minimize_box(*_rows(counted, grad_hess), [0.0, 0.0], [1.0, 1.0], seed=3,
                       n_starts=4)
    assert res.n_evals == len(calls) >= 4


def test_minimize_box_ties_go_to_smallest_point():
    # a flat f: every start is stationary where it begins, all values tie
    zero = lambda t: 0.0
    res = minimize_box(*_rows(zero, lambda t: (np.zeros(2), np.zeros((2, 2)))),
                       [0.0, 0.0], [1.0, 1.0], seed=7, n_starts=6)
    starts = [np.array([0.5, 0.5]), *_latin_starts(np.zeros(2), np.ones(2), 5, 7)]
    first = min(range(6), key=lambda i: tuple(starts[i]))
    assert res.converged and res.best_start == first
    assert np.array_equal(res.x, starts[first])


def test_minimize_box_iteration_cap_is_not_converged():
    # a Hessian that overstates the curvature a million-fold makes every
    # accepted step 1e-6 long, so the descent runs out of iterations far
    # from the bound where f = -t has its minimum
    res = minimize_box(*_rows(lambda t: float(-t[0]),
                              lambda t: (np.array([-1.0]), np.array([[1e6]]))),
                       [0.0], [1.0], seed=0, n_starts=1)
    assert not res.converged
    assert 0.5 < res.x[0] < 0.51


@pytest.mark.parametrize("lower, upper, n_starts, match", [
    ([0.0], [0.0], 3, "positive side lengths"),
    ([0.0], [1.0], 0, "n_starts"),
    (np.zeros(63), np.ones(63), 3, "at most 62 parameters"),
])
def test_minimize_box_rejects_bad_arguments(lower, upper, n_starts, match):
    f, grad_hess = _quadratic(np.zeros(np.size(lower)), np.ones(np.size(lower)))
    with pytest.raises(ValueError, match=match):
        minimize_box(*_rows(f, grad_hess), lower, upper, n_starts=n_starts)


def test_minimize_box_no_finite_start():
    f = lambda t: float("nan")
    res = minimize_box(*_rows(f, lambda t: (np.zeros(1), np.eye(1))),
                       [0.0], [1.0], seed=0, n_starts=3)
    assert not res.converged and np.isnan(res.value)
    assert res.n_evals == 3


@pytest.mark.filterwarnings("error")
def test_minimize_box_saddle_start_stops_without_a_nan_trial():
    # the box centre is a saddle: zero gradient, curvature -2 along t_1;
    # every Newton shift leaves no step there, so that start ends unconverged
    f, grad_hess = _quadratic([0.5, 0.5], [1.0, -1.0])
    rows = []
    f_rows, gh_rows = _rows(f, grad_hess)
    counted = lambda ts: rows.extend(ts) or f_rows(ts)
    alone = minimize_box(counted, gh_rows, [0.0, 0.0], [1.0, 1.0], n_starts=1)
    assert not alone.converged and alone.n_evals == 1
    assert np.array_equal(alone.x, [0.5, 0.5])
    res = minimize_box(counted, gh_rows, [0.0, 0.0], [1.0, 1.0], seed=4, n_starts=5)
    assert np.isfinite(rows).all()
    assert res.converged and res.value == -0.25 and res.x[0] == 0.5
    # a gradient too small to move e_0 + shift off 0 (2^-53 from the saddle)
    # gets the same floor, and the start then leaves the saddle
    near = minimize_box(*_rows(*_quadratic([0.5, 0.5 + 2.0**-53], [1.0, -1.0])),
                        [0.0, 0.0], [1.0, 1.0], n_starts=1)
    assert near.converged and np.array_equal(near.x, [0.5, 0.0])


def _newton_descent(f, grad_hess, x, lower, upper):
    """The step-by-step reference: one start, one point per call."""
    fx, evals = f(x), 1
    for _ in range(MAX_NEWTON_ITER):
        if not np.isfinite(fx):
            break
        g, h = grad_hess(x)
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            break
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        if not free.any():
            return x, fx, True, evals
        gf = g[free]
        eig, vec = np.linalg.eigh(h[free][:, free])
        if np.abs(gf).max() <= GTOL and eig[0] >= 0.0:
            return x, fx, True, evals
        gv = vec.T @ gf
        diam = np.linalg.norm(upper[free] - lower[free])
        shift = np.linalg.norm(gf) / diam - eig[0]
        if eig[0] + shift <= 0.0:      # a zero gradient at negative curvature
            shift *= 2.0
        shift = max(0.0, shift)
        while True:
            trial = x.copy()
            trial[free] = np.clip(x[free] - vec @ (gv / (eig + shift)),
                                  lower[free], upper[free])
            if np.array_equal(trial, x):
                return x, fx, shift == 0.0, evals
            ft = f(trial)
            evals += 1
            if ft <= fx:
                break
            if shift == 0.0:
                if 0.5 * np.sum(gv * gv / eig) <= FTOL * abs(fx):
                    return x, fx, True, evals
                shift = np.abs(eig).max()
            else:
                shift *= 4.0
        x, fx = trial, ft
    return x, fx, False, evals


def _reference_minimize(f, grad_hess, lower, upper, seed, n_starts):
    """minimize_box with each start descending alone, in turn."""
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    starts = [0.5 * (lower + upper)]
    if n_starts > 1:
        starts.extend(_latin_starts(lower, upper, n_starts - 1, seed))
    best, n_evals = None, 0
    for i, x0 in enumerate(starts):
        x, val, ok, evals = _newton_descent(f, grad_hess, x0, lower, upper)
        n_evals += evals
        cand = (float(val), tuple(x), ok, i)
        if np.isfinite(cand[0]) and (best is None or cand[:2] < best[:2]):
            best = cand
    if best is None:
        best = (float("nan"), tuple(starts[0]), False, 0)
    return best, n_evals


def _quadratic_problem(rng, p, bad):
    """An offset quadratic on [0, 1]^p. Its centre may lie outside the box,
    so bounds hold coordinates, or on the first start, the box centre; its
    curvature may be indefinite. A large offset leaves Newton steps near the
    minimum below f's rounding level. Beyond a cut in the first coordinate f,
    and sometimes its gradient, is ``bad`` (NaN or +-inf) when that is given."""
    centre = rng.uniform(-1.0, 2.0, p) if rng.random() < 0.7 else np.full(p, 0.5)
    a = rng.standard_normal((p, p))
    curv = a @ a.T + rng.uniform(-1.0, 1.0) * np.eye(p)
    offset = rng.choice([0.0, 1e4])
    cut, bad_grad = rng.uniform(0.2, 0.9), rng.random() < 0.5

    def f(t):
        if bad is not None and t[0] > cut:
            return bad
        return float(offset + (t - centre) @ curv @ (t - centre))

    def grad_hess(t):
        g, h = 2.0 * curv @ (t - centre), 2.0 * curv
        if bad is not None and bad_grad and t[0] > cut:
            return np.full(p, bad), h
        return g, h

    return f, grad_hess, np.zeros(p), np.ones(p)


def _scenario_problem(name, method, seed):
    model, system, defaults = make_scenario(name)
    data = generate_replicate(system, defaults["n"], seed)
    if method == "l2":
        rule = build_rule(model.x_box.lower, model.x_box.upper, 32)
        terms = l2_loss_terms(fit_smoother(data), model, rule)
    else:
        terms = ols_loss_terms(data, model)
    return terms.value, terms.grad_hess, model.theta_box.lower, model.theta_box.upper


_PROBLEMS = ([("scenario", name, method) for name in SCENARIO_NAMES
              for method in ("l2", "ols")]
             + [("quadratic", p, bad) for p in (1, 2, 3)
                for bad in (None, float("nan"), float("inf"), -float("inf"))])


# no start divides by zero, not even one on an exact saddle
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PROBLEMS), st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_lockstep_equals_stepwise_reference(problem, seed, n_starts):
    kind, a, b = problem
    if kind == "scenario":
        # the model's batch rows equal its single-point calls, so the
        # lockstep sees each start's numbers exactly
        f, grad_hess, lower, upper = _scenario_problem(a, b, seed % 1000)
        batch_f, batch_gh = f, grad_hess
    else:
        f, grad_hess, lower, upper = _quadratic_problem(
            np.random.default_rng(seed), a, b)
        batch_f, batch_gh = _rows(f, grad_hess)
    (value, x, ok, start), n_evals = _reference_minimize(
        f, grad_hess, lower, upper, seed, n_starts)
    res = minimize_box(batch_f, batch_gh, lower, upper, seed=seed, n_starts=n_starts)
    assert np.array_equal(res.x, np.array(x))
    assert np.array_equal(res.value, value, equal_nan=True)
    assert (res.converged, res.n_evals, res.best_start) == (ok, n_evals, start)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from([None, float("nan"), float("inf")]),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
       st.integers(1, 6))
def test_minimize_boxes_solves_each_problem_as_minimize_box(p, problems, n_starts):
    # quadratics on one box, some non-finite beyond a cut: each problem ends
    # where minimize_box on it alone does, whatever its neighbours
    made = [_quadratic_problem(np.random.default_rng(seed), p, bad)
            for bad, seed in problems]
    seeds = [seed for _, seed in problems]

    def f(x, rows):
        return np.array([made[k][0](t) for t, k in zip(x, rows)])

    def grad_hess(x, rows):
        return tuple(np.array(a) for a in zip(*[made[k][1](t) for t, k in zip(x, rows)]))

    results = minimize_boxes(f, grad_hess, np.zeros(p), np.ones(p), seeds, n_starts)
    assert len(results) == len(made)
    for (fk, ghk, lower, upper), seed, res in zip(made, seeds, results):
        ref = minimize_box(*_rows(fk, ghk), lower, upper, seed=seed, n_starts=n_starts)
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.value, ref.value, equal_nan=True)
        assert (res.converged, res.n_evals, res.best_start) == \
            (ref.converged, ref.n_evals, ref.best_start)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 25))
def test_latin_starts_match_scipy_latin_hypercube(seed, d, n):
    lower, upper = np.zeros(d), np.ones(d)
    expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
    assert np.array_equal(_latin_starts(lower, upper, n, seed), expected)


def test_sym_psd_factor_identity_and_scalar():
    assert_allclose(sym_psd_factor(np.eye(3)), np.eye(3), atol=1e-12)
    assert_allclose(sym_psd_factor(np.array([[4.0]])), [[2.0]], atol=1e-14)


def test_sym_psd_factor_reconstructs():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = sym_psd_factor(a)
    assert_allclose(f.T @ f, a, atol=1e-12)


def test_sym_psd_factor_random_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rng.standard_normal((4, 4))
        a = b.T @ b
        f = sym_psd_factor(a)
        assert_allclose(f.T @ f, a, atol=1e-10 * max(1.0, np.abs(a).max()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_sym_psd_factor_reconstructs_any_psd(p, rank, seed):
    # full rank and rank-deficient (down to the zero matrix)
    b = np.random.default_rng(seed).standard_normal((p, min(rank, p)))
    a = b @ b.T
    f = sym_psd_factor(a)
    assert f.shape == (p, p)
    assert_allclose(f.T @ f, a, atol=1e-9 * max(1.0, np.abs(a).max()))


def test_sym_psd_factor_rejects_asymmetric_and_indefinite():
    with pytest.raises(FactorError):
        sym_psd_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(FactorError):
        sym_psd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(FactorError):
        sym_psd_factor(np.zeros((2, 3)))


def test_set_blas_threads_returns_the_previous_count():
    outer = set_blas_threads(2)
    if outer is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    try:
        assert set_blas_threads(1) == 2
        assert set_blas_threads(3) == 1
        assert set_blas_threads(2) == 3
    finally:
        set_blas_threads(outer)


@pytest.mark.parametrize("found", ["nothing", "missing-file", "no-symbols"])
def test_set_blas_threads_fails_soft_without_the_library(monkeypatch, tmp_path,
                                                         found):
    path = {"nothing": None, "missing-file": tmp_path / "missing.so",
            "no-symbols": "libm.so.6"}[found]
    monkeypatch.setattr(numerics, "_openblas_path", lambda: path)
    assert set_blas_threads(1) is None
