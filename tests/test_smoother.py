import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.models import make_scenario
from l2calib.simharness import generate_replicate
from l2calib.smoother import (JITTER, SELECT_CHUNK, Dataset,
                              DegenerateSmootherError, GcvGrid, KernelSpec,
                              default_rho_grid,
                              fit_smoother, fit_smoother_fixed,
                              kernel_matrix, read_dataset_csv)
from oracles import write_dataset_csv


def _line_data(n=8, slope=3.0, noise=0.0, seed=0):
    x = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    y = slope * x[:, 0] + noise * rng.standard_normal(n)
    return Dataset(design=x, responses=y)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangular", np.array([1.0]))
    with pytest.raises(ValueError):
        KernelSpec("gaussian", np.array([0.0]))


def test_kernel_matrix_values():
    spec = KernelSpec("gaussian", np.array([0.5]))
    a = np.array([[0.0], [0.5]])
    k = kernel_matrix(spec, a, a)
    assert_allclose(np.diag(k), [1.0, 1.0], atol=1e-15)
    # distance exactly one bandwidth -> exp(-1)
    assert_allclose(k[0, 1], np.exp(-1.0), atol=1e-15)
    assert_allclose(k, k.T, atol=1e-15)


def test_kernel_matrix_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    pts = rng.random((10, 2))
    for family in ("gaussian", "matern52"):
        spec = KernelSpec(family, np.array([0.3, 0.9]))
        k = kernel_matrix(spec, pts, pts)
        assert_allclose(k, k.T, atol=1e-14)
        assert np.all(k <= 1.0 + 1e-12) and np.all(k > 0.0)
        eig = np.linalg.eigvalsh(k + JITTER * np.eye(10))
        assert eig.min() > 0


def test_matern52_value_at_zero_and_decay():
    spec = KernelSpec("matern52", np.array([1.0]))
    k = kernel_matrix(spec, np.array([[0.0]]), np.array([[0.0], [1.0], [3.0]]))
    assert_allclose(k[0, 0], 1.0, atol=1e-15)
    assert k[0, 0] > k[0, 1] > k[0, 2] > 0


def test_dataset_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(design=np.array([[0.1], [0.1]]), responses=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(design=np.array([[0.1], [0.2]]), responses=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Dataset(design=np.array([[0.1], [0.2]]), responses=np.array([1.0]))
    one = Dataset(design=np.array([[0.4]]), responses=np.array([2.0]))
    assert one.n == 1 and one.k == 1


def test_dataset_duplicate_check_does_not_overflow():
    design = np.array([[1e200, 3e200], [2e200, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Dataset(design=design, responses=np.array([0.0, 1.0])).n == 2
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(design=np.vstack([design, design[:1]]), responses=np.zeros(3))


def test_csv_round_trip(tmp_path):
    data = _line_data(n=6, noise=0.1, seed=2)
    path = tmp_path / "d.csv"
    write_dataset_csv(path, data)
    back = read_dataset_csv(path)
    assert_allclose(back.design, data.design, atol=0)
    assert_allclose(back.responses, data.responses, atol=0)


@st.composite
def _finite_datasets(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    value = st.floats(allow_nan=False, allow_infinity=False)
    design = draw(st.lists(st.lists(value, min_size=k, max_size=k),
                           min_size=n, max_size=n))
    responses = draw(st.lists(value, min_size=n, max_size=n))
    try:
        return Dataset(design=np.array(design), responses=np.array(responses))
    except ValueError:      # duplicate rows
        assume(False)


# row differences overflow (harmlessly, to inf) for coordinates of opposite
# sign beyond about 9e307
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_finite_datasets())
def test_csv_round_trip_is_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
    assert back.design.shape == data.design.shape
    assert back.design.tobytes() == data.design.tobytes()
    assert back.responses.tobytes() == data.responses.tobytes()


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset_csv(p)
    p.write_text("x1,y\n1,2\n3\n")
    with pytest.raises(ValueError, match=":3"):
        read_dataset_csv(p)
    p.write_text("x1,y\n1,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_dataset_csv(p)
    p.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_dataset_csv(p)


def _gcv_score(data, spec, lam):
    return fit_smoother_fixed(data, spec, lam).gcv_value


def test_gcv_score_zero_response():
    data = _line_data(n=5, slope=0.0)
    spec = KernelSpec("gaussian", np.array([0.5]))
    assert _gcv_score(data, spec, 1e-3) == 0.0


def test_gcv_score_matches_direct_hat_matrix_formula():
    # dual route: eigendecomposition path vs literal (I - A) algebra
    data = _line_data(n=9, noise=0.3, seed=4)
    spec = KernelSpec("gaussian", np.array([0.4]))
    n = data.n
    for lam in (1e-6, 1e-2, 1.0):
        kmat = kernel_matrix(spec, data.design, data.design) + JITTER * np.eye(n)
        a = kmat @ np.linalg.inv(kmat + lam * np.eye(n))
        resid = (np.eye(n) - a) @ data.responses
        direct = n * float(resid @ resid) / np.trace(np.eye(n) - a) ** 2
        assert_allclose(_gcv_score(data, spec, lam), direct, rtol=1e-9)


def test_sigma2_hat_matches_direct_hat_matrix_formula():
    # dual route: sigma2_hat from the eigen path vs literal (I - A) algebra
    data = _line_data(n=9, noise=0.3, seed=4)
    fit = fit_smoother(data)
    n = data.n
    kmat = kernel_matrix(fit.kernel, data.design, data.design) + JITTER * np.eye(n)
    a = kmat @ np.linalg.inv(kmat + fit.lam * np.eye(n))
    resid = (np.eye(n) - a) @ data.responses
    direct = n * float(resid @ resid) / np.trace(np.eye(n) - a) ** 2
    assert_allclose(fit.sigma2_hat, direct, rtol=1e-9)


def test_gcv_score_large_lambda_limit():
    data = _line_data(n=7, noise=0.2, seed=1)
    spec = KernelSpec("gaussian", np.array([0.5]))
    y = data.responses
    assert_allclose(_gcv_score(data, spec, 1e12), float(y @ y) / data.n, rtol=1e-6)


def test_gcv_minimum_interior_on_seeded_small_sample():
    model, system, _ = make_scenario("simple-linear")
    data = generate_replicate(system, 4, seed=0)
    spec = KernelSpec("gaussian", np.array([0.8]))
    lams = np.logspace(-8, 1, 19)
    scores = np.array([_gcv_score(data, spec, l) for l in lams])
    k = int(np.argmin(scores))
    assert 0 < k < lams.size - 1
    assert scores[k] < scores[0] and scores[k] < scores[-1]


def test_fit_smoother_near_interpolation_on_noiseless_line():
    data = _line_data(n=12, slope=2.5)
    fit = fit_smoother(data)
    resid = fit.predict(data.design) - data.responses
    assert np.max(np.abs(resid)) < 1e-3


def test_fit_smoother_selection_invariant_to_grid_order(tmp_path):
    data = _line_data(n=10, noise=0.2, seed=7)
    lam = np.logspace(-8, 1, 19)
    rho = default_rho_grid(data.design)
    fit1 = fit_smoother(data, lambda_grid=lam, rho_grid=rho)
    rng = np.random.default_rng(0)
    fit2 = fit_smoother(data, lambda_grid=lam[rng.permutation(lam.size)],
                        rho_grid=rho[rng.permutation(rho.shape[0])])
    assert fit1.lam == fit2.lam
    assert_allclose(fit1.kernel.rho, fit2.kernel.rho, atol=0)


@st.composite
def _permuted_designs(draw):
    n, k = draw(st.integers(3, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, k))
    # without signal GCV is often flat across cells, which makes exact ties
    signal = draw(st.sampled_from([0.0, 1.0])) * np.sin(3.0 * x).sum(axis=1)
    y = signal + rng.standard_normal(n)
    return x, y, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(_permuted_designs())
def test_gcv_choice_invariant_to_row_permutation(case):
    x, y, perm = case
    grid = GcvGrid(x)
    idx, lam, best = grid.select(y)[:3]
    p_idx, p_lam = GcvGrid(x[perm]).select(y[perm])[:2]
    if (p_idx, p_lam) != (idx, lam):
        # rounding may break an exact tie the other way; the permuted choice
        # must then score the minimum on the unpermuted design too
        spec = grid.bandwidths[p_idx][0]
        score = fit_smoother_fixed(Dataset(x, y), spec, p_lam).gcv_value
        assert abs(score - best) <= 1e-12 * best


def test_sigma2_hat_order_of_magnitude():
    # The GCV-score estimator stays close to calibrated even at n = 8: over
    # 100 replicates the mean lands within a factor 2 of the true 0.0625 and
    # the (right-skew-robust) median within a factor 3.
    model, system, _ = make_scenario("simple-linear")
    vals = []
    for i in range(100):
        data = generate_replicate(system, 8, seed=1000 + i)
        vals.append(fit_smoother(data).sigma2_hat)
    assert 0.0625 / 2 < float(np.mean(vals)) < 0.0625 * 2
    assert 0.0625 / 3 < float(np.median(vals)) < 0.0625 * 3


def test_sigma2_hat_consistent_at_moderate_sample_size():
    _, system, _ = make_scenario("scenario2")
    vals = [fit_smoother(generate_replicate(system, 30, seed=2000 + i)).sigma2_hat
            for i in range(100)]
    med = float(np.median(vals))
    assert 0.04 / 2 < med < 0.04 * 2


def test_predict_zero_coefficients():
    data = _line_data(n=5, slope=0.0)
    fit = fit_smoother_fixed(data, KernelSpec("gaussian", np.array([0.5])), 1e-3)
    assert_allclose(fit.coef, 0.0, atol=1e-15)
    assert_allclose(fit.predict(np.array([[0.3]])), [0.0], atol=1e-15)


def test_predict_interpolates_at_lambda_zero():
    data = _line_data(n=6, noise=0.5, seed=9)
    fit = fit_smoother_fixed(data, KernelSpec("gaussian", np.array([0.4])), 0.0)
    assert_allclose(fit.predict(data.design), data.responses, atol=1e-6)


def test_predict_linear_in_responses():
    x = np.linspace(0, 1, 7).reshape(-1, 1)
    rng = np.random.default_rng(5)
    y1, y2 = rng.standard_normal(7), rng.standard_normal(7)
    spec = KernelSpec("gaussian", np.array([0.3]))
    f1 = fit_smoother_fixed(Dataset(x, y1), spec, 1e-2)
    f2 = fit_smoother_fixed(Dataset(x, y2), spec, 1e-2)
    f12 = fit_smoother_fixed(Dataset(x, y1 + y2), spec, 1e-2)
    pts = rng.random((5, 1))
    assert_allclose(f12.predict(pts), f1.predict(pts) + f2.predict(pts),
                    atol=1e-10)


def test_weights_reproduce_predictions():
    data = _line_data(n=8, noise=0.3, seed=11)
    fit = fit_smoother(data)
    pts = np.random.default_rng(2).random((6, 1))
    g = fit.weights(pts)
    assert g.shape == (6, 8)
    assert_allclose(g @ data.responses, fit.predict(pts), atol=1e-12)


def test_weights_single_point_interpolation():
    one = Dataset(design=np.array([[0.4]]), responses=np.array([2.0]))
    fit = fit_smoother_fixed(one, KernelSpec("gaussian", np.array([0.5])), 0.0)
    g = fit.weights(np.array([[0.4]]))
    assert_allclose(g, [[1.0]], atol=1e-9)


def test_weight_variance_identity_monte_carlo():
    # Var mu_hat(x) = sigma^2 ||g(x)||^2 at fixed smoother settings
    x = np.linspace(0, 1, 10).reshape(-1, 1)
    mu = 2.0 * x[:, 0]
    sigma = 0.3
    spec = KernelSpec("gaussian", np.array([0.4]))
    lam = 1e-2
    x0 = np.array([[0.37]])
    rng = np.random.default_rng(17)
    preds = []
    for _ in range(2000):
        y = mu + sigma * rng.standard_normal(10)
        preds.append(fit_smoother_fixed(Dataset(x, y), spec, lam).predict(x0)[0])
    fit = fit_smoother_fixed(Dataset(x, mu), spec, lam)
    g = fit.weights(x0)[0]
    theo = sigma**2 * float(g @ g)
    emp = float(np.var(preds, ddof=1))
    assert abs(emp - theo) / theo < 0.05


def test_gcv_grid_requires_three_points():
    with pytest.raises(ValueError, match="at least 3"):
        GcvGrid(np.array([[0.0], [1.0]]))


def test_gcv_grid_rejects_bad_grids():
    x = np.linspace(0, 1, 5).reshape(-1, 1)
    with pytest.raises(ValueError, match="positive"):
        GcvGrid(x, lambda_grid=[0.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        GcvGrid(x, rho_grid=np.ones((3, 2)))


def test_degenerate_gcv_is_flagged():
    # lam = 0 makes A the identity, so tr(I - A) vanishes and GCV is undefined
    data = _line_data(n=5, noise=0.1, seed=3)
    spec = KernelSpec("gaussian", np.array([0.5]))
    fit = fit_smoother_fixed(data, spec, 0.0)
    assert fit.gcv_value == np.inf
    assert fit.flags == ("degenerate-smoother",)


def _loop_select(grid, y):
    """Reference for GcvGrid.select: score every (rho, lam) cell in turn."""
    n = y.size
    best = None
    for idx, (spec, d, q) in enumerate(grid.bandwidths):
        z = q.T @ y
        for lam in grid.lambda_grid:
            shr = lam / (d + lam)
            rss = float(np.sum((shr * z) ** 2))
            trm = float(np.sum(shr))
            score = np.inf if trm < 1e-12 else n * rss / trm**2
            if best is None or score < best[0] or (score == best[0] and
                                                   idx == best[3] and lam > best[1]):
                best = (score, lam, rss, idx, trm)
    score, lam, rss, idx, trm = best
    return idx, float(lam), float(score), float(rss), float(trm)


@st.composite
def _selection_cases(draw):
    n = draw(st.integers(3, 20))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # distinct points of the default ridge grid, 10^-8 .. 10^1, in drawn order
    steps = draw(st.lists(st.integers(0, 18), min_size=1, max_size=19, unique=True))
    x = rng.random((n, k))
    y = x @ rng.standard_normal(k) + rng.choice([1e-3, 0.1, 1.0]) * rng.standard_normal(n)
    return x, y, 10.0 ** (-8.0 + 0.5 * np.array(steps))


@settings(max_examples=150, deadline=None)
@given(_selection_cases())
def test_select_matches_loop_reference(case):
    x, y, lams = case
    grid = GcvGrid(x, lambda_grid=lams)
    got, ref = grid.select(y), _loop_select(grid, y)
    assert got[:2] == ref[:2]
    assert_allclose(got[2:], ref[2:], rtol=1e-12, atol=0)


def test_select_tie_rule():
    x = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
    grid = GcvGrid(x)
    # a zero response scores 0 on every cell: first bandwidth, largest ridge
    zero = np.zeros(6)
    assert grid.select(zero)[:2] == (0, grid.lambda_grid[-1]) == _loop_select(grid, zero)[:2]
    twin = GcvGrid(x, rho_grid=[[0.3], [0.3]])
    y = np.random.default_rng(5).standard_normal(6)
    assert twin.select(y)[0] == 0 == _loop_select(twin, y)[0]


def test_select_on_degenerate_grid_raises_without_warnings():
    # both ridges leave tr(I - A) below 1e-12; at 1e-300 its square underflows to 0
    x = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    grid = GcvGrid(x, lambda_grid=[1e-300, 1e-30])
    y = np.random.default_rng(2).standard_normal(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSmootherError):
            grid.select(y)


@st.composite
def _response_batches(draw):
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, k))
    # up to two chunks and a part, so rows land on every side of a chunk edge
    rows = draw(st.integers(1, 2 * SELECT_CHUNK + 5))
    ys = x @ rng.standard_normal(k) + rng.choice([1e-3, 0.1, 1.0]) * rng.standard_normal((rows, n))
    # all-zero rows score 0 on every cell: an exact tie across the whole grid
    ys[rng.random(rows) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    # a row whose squares overflow scores inf everywhere, as a vanished denominator does
    bad = draw(st.none() | st.integers(0, rows - 1))
    if bad is not None:
        ys[bad] = 1e300
    # a repeated bandwidth ties every cell of the repeat with its original
    twin = draw(st.booleans())
    return x, ys, bad, twin


@settings(max_examples=80, deadline=None)
@given(_response_batches())
def test_select_many_equals_select_row_by_row(case):
    x, ys, bad, twin = case
    rho = default_rho_grid(x)
    grid = GcvGrid(x, rho_grid=np.repeat(rho, 2, axis=0) if twin else rho)
    if bad is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateSmootherError) as one:
                grid.select(ys[bad])
            with pytest.raises(DegenerateSmootherError) as many:
                grid.select_many(ys)
        assert str(many.value) == str(one.value)
        return
    idx, j, score, rss, trm = grid.select_many(ys)
    for r, y in enumerate(ys):
        # exact: == on Python floats, so any bit of difference fails
        assert grid.select(y) == (int(idx[r]), float(grid.lambda_grid[j[r]]),
                                  float(score[r]), float(rss[r]), float(trm[r]))
    if not ys.any():
        assert set(idx) == {0} and set(j) == {grid.lambda_grid.size - 1}


def _fit_fields(fit):
    return (fit.data.design, fit.data.responses, fit.kernel.family, fit.kernel.rho,
            fit.lam, fit.coef, fit.sigma2_hat, fit.trace_hat, fit.gcv_value,
            fit.flags, fit.eig_values, fit.eig_vectors)


@settings(max_examples=40, deadline=None)
@given(_response_batches())
def test_fit_many_equals_fit_row_by_row(case):
    x, ys, bad, twin = case
    if bad is not None:
        ys[bad] = 0.0   # a degenerate row raises for the batch, as select_many does
    rho = default_rho_grid(x)
    grid = GcvGrid(x, rho_grid=np.repeat(rho, 2, axis=0) if twin else rho)
    fits = grid.fit_many(ys)
    assert len(fits) == len(ys)
    for fit, y in zip(fits, ys):
        # fit(y) is the one-row case; the reference refits the selected cell
        idx, lam = grid.select(y)[:2]
        ref = fit_smoother_fixed(Dataset(design=x, responses=y), grid.bandwidths[idx][0], lam)
        for got, one, want in zip(_fit_fields(fit), _fit_fields(grid.fit(y)), _fit_fields(ref)):
            assert np.array_equal(got, one) and np.array_equal(got, want)


def test_fixed_fit_rejects_negative_lambda():
    data = _line_data(n=4)
    with pytest.raises(ValueError):
        fit_smoother_fixed(data, KernelSpec("gaussian", np.array([0.5])), -1.0)
