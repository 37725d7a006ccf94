import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import qmc

from l2calib.numerics import (FactorError, _latin_starts, build_rule,
                              gauss_legendre_01, minimize_box, sym_psd_factor)

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
    """f, grad, hess of sum_j curv_j (t_j - centre_j)^2 + cross t_0 t_1."""
    centre, curv = np.asarray(centre, float), np.asarray(curv, float)
    mix = np.zeros((centre.size, centre.size))
    if centre.size == 2:
        mix[0, 1] = mix[1, 0] = cross
    f = lambda t: float(np.sum(curv * (t - centre) ** 2) + 0.5 * t @ mix @ t)
    grad = lambda t: 2.0 * curv * (t - centre) + mix @ t
    hess = lambda t: np.diag(2.0 * curv) + mix
    return f, grad, hess


def test_minimize_box_quadratic():
    res = minimize_box(*_quadratic([3.5], [1.0]), [2.0], [4.0], seed=0)
    assert res.converged
    assert_allclose(res.x, [3.5], atol=1e-8)


def test_minimize_box_boundary_argmin():
    res = minimize_box(*_quadratic([9.0], [1.0]), [0.0], [4.0], seed=0)
    assert_allclose(res.x, [4.0], atol=1e-8)
    assert res.converged


def test_minimize_box_boundary_argmin_two_dim():
    # unconstrained minimiser (1.7, 0.4): the first coordinate stops on its
    # upper bound, the second stays interior and still converges
    f, grad, hess = _quadratic([1.7, 0.4], [1.0, 3.0], cross=0.2)
    res = minimize_box(f, grad, hess, [0.0, 0.0], [1.0, 1.0], seed=2, n_starts=6)
    assert res.converged
    assert res.x[0] == 1.0
    # interior coordinate solves its own first-order condition on the face
    assert_allclose(res.x[1], 0.4 - 0.2 / 6.0, atol=1e-10)
    assert grad(res.x)[0] < 0


def test_minimize_box_two_dim_with_coupling():
    f, grad, hess = _quadratic([0.3, 0.7], [1.0, 2.0], cross=0.1)
    res = minimize_box(f, grad, hess, [0.0, 0.0], [1.0, 1.0], seed=1, n_starts=5)
    g = np.array([2.0 * (res.x[0] - 0.3) + 0.1 * res.x[1],
                  4.0 * (res.x[1] - 0.7) + 0.1 * res.x[0]])
    assert np.max(np.abs(g)) < 1e-6
    assert res.converged


def test_minimize_box_multimodal_finds_global():
    # a bimodal curve with the deeper well near t = -2
    f = lambda t: float(np.cos(3.0 * t[0]) + 0.05 * (t[0] + 2.0) ** 2)
    grad = lambda t: np.array([-3.0 * np.sin(3.0 * t[0]) + 0.1 * (t[0] + 2.0)])
    hess = lambda t: np.array([[-9.0 * np.cos(3.0 * t[0]) + 0.1]])
    res = minimize_box(f, grad, hess, [-4.0, ], [4.0], seed=0, n_starts=12)
    grid = np.linspace(-4, 4, 20001)
    brute = grid[np.argmin([f([t]) for t in grid])]
    assert_allclose(res.x[0], brute, atol=1e-4)
    assert res.converged and 0 <= res.best_start < 12


def test_minimize_box_deterministic():
    f = lambda t: float(np.sin(7 * t[0]) + t[0] ** 2)
    grad = lambda t: np.array([7 * np.cos(7 * t[0]) + 2 * t[0]])
    hess = lambda t: np.array([[-49 * np.sin(7 * t[0]) + 2.0]])
    a = minimize_box(f, grad, hess, [-3.0], [3.0], seed=5, n_starts=8)
    b = minimize_box(f, grad, hess, [-3.0], [3.0], seed=5, n_starts=8)
    assert np.array_equal(a.x, b.x) and a.value == b.value
    assert (a.n_evals, a.best_start) == (b.n_evals, b.best_start)


def test_minimize_box_counts_evaluations():
    calls = []
    f, grad, hess = _quadratic([0.2, 0.6], [1.0, 1.0])
    counted = lambda t: calls.append(1) or f(t)
    res = minimize_box(counted, grad, hess, [0.0, 0.0], [1.0, 1.0], seed=3,
                       n_starts=4)
    assert res.n_evals == len(calls) >= 4


def test_minimize_box_ties_go_to_smallest_point():
    # a flat f: every start is stationary where it begins, all values tie
    zero = lambda t: 0.0
    res = minimize_box(zero, lambda t: np.zeros(2), lambda t: np.zeros((2, 2)),
                       [0.0, 0.0], [1.0, 1.0], seed=7, n_starts=6)
    starts = [np.array([0.5, 0.5]), *_latin_starts(np.zeros(2), np.ones(2), 5, 7)]
    first = min(range(6), key=lambda i: tuple(starts[i]))
    assert res.converged and res.best_start == first
    assert np.array_equal(res.x, starts[first])


def test_minimize_box_iteration_cap_is_not_converged():
    # a Hessian that overstates the curvature a million-fold makes every
    # accepted step 1e-6 long, so the descent runs out of iterations far
    # from the bound where f = -t has its minimum
    res = minimize_box(lambda t: float(-t[0]), lambda t: np.array([-1.0]),
                       lambda t: np.array([[1e6]]), [0.0], [1.0], seed=0,
                       n_starts=1)
    assert not res.converged
    assert 0.5 < res.x[0] < 0.51


def test_minimize_box_no_finite_start():
    f = lambda t: float("nan")
    res = minimize_box(f, lambda t: np.zeros(1), lambda t: np.eye(1),
                       [0.0], [1.0], seed=0, n_starts=3)
    assert not res.converged and np.isnan(res.value)
    assert res.n_evals == 3


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
