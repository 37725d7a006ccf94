import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.calibration import CalibrationEstimate, l2_loss_fn, linear_theta_hat
from l2calib.models import DomainBox, make_scenario
from l2calib.numerics import build_rule
from l2calib import posterior
from l2calib.models import BOX_ATOL
from l2calib.posterior import (ACCEPT_MIN, PILOT_ROWS, T_SCALE, LaplaceApprox,
                               PosteriorSample, Prior, SamplerSettings, _StudentT,
                               conjugate_posterior, credible_interval, laplace_approx,
                               log_gen_posterior, sample_posterior, split_rhat,
                               write_draws_csv)
from l2calib.scaling import curvature_adjustment, fixed_gamma, no_scaling, scaled_loss
from l2calib.asymptotics import SandwichMatrices
from l2calib.simharness import generate_replicate
from l2calib.smoother import fit_smoother
from oracles import NormalPrior, batch_mcse, estimator_cov

Z975 = 1.959963984540054


def test_conjugate_frozen_values():
    # theta_hat = 3.5, n = 4, tau2 = 1, gamma = 1:
    # precision = 2*4*(1/3) + 1 = 11/3, mean = (8/3)*3.5/(11/3) = 28/11
    post = conjugate_posterior(3.5, n=4, tau2=1.0, gamma=1.0)
    assert_allclose(post.mean, [28.0 / 11.0], rtol=1e-12)
    assert_allclose(post.mean, [2.5454545454545454], rtol=1e-12)
    assert_allclose(post.cov, [[3.0 / 11.0]], rtol=1e-12)
    assert_allclose(post.cov, [[0.2727272727272727]], rtol=1e-12)


def test_conjugate_variance_ignores_the_estimate():
    a = conjugate_posterior(3.5, n=4, tau2=1.0, gamma=1.0)
    b = conjugate_posterior(-1.2, n=4, tau2=1.0, gamma=1.0)
    assert_allclose(a.cov, b.cov, rtol=1e-14)
    assert not np.allclose(a.mean, b.mean)


def test_conjugate_flat_prior():
    # tau2 = inf: mean is the estimator itself, variance 3 / (2 n)
    post = conjugate_posterior(3.5, n=8, tau2=np.inf, gamma=1.0)
    assert_allclose(post.mean, [3.5], rtol=1e-12)
    assert_allclose(post.cov, [[3.0 / 16.0]], rtol=1e-12)
    assert_allclose(post.sd, [0.4330127018922193], rtol=1e-12)
    half = conjugate_posterior(3.5, n=4, tau2=np.inf, gamma=1.0)
    assert_allclose(half.cov, 2.0 * post.cov, rtol=1e-12)


def test_conjugate_large_gamma_collapses_to_point_mass():
    post = conjugate_posterior(3.5, n=4, tau2=1.0, gamma=1e12)
    assert post.cov[0, 0] < 1e-11
    assert abs(post.mean[0] - 3.5) < 1e-11


def test_conjugate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="gamma"):
        conjugate_posterior(3.5, n=4, tau2=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        conjugate_posterior(3.5, n=4, tau2=1.0, gamma=-2.0)
    with pytest.raises(ValueError, match="tau2"):
        conjugate_posterior(3.5, n=4, tau2=-1.0, gamma=1.0)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            conjugate_posterior(3.5, n=4, tau2=1.0, gamma=gamma)
    for tau2 in (0.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match="tau2"):
            conjugate_posterior(3.5, n=4, tau2=tau2, gamma=1.0)


def test_conjugate_interval_length():
    post = conjugate_posterior(3.5, n=4, tau2=1.0, gamma=1.0)
    iv = credible_interval(post, level=0.95)
    length = iv[0, 1] - iv[0, 0]
    assert_allclose(length, 2.0 * Z975 * np.sqrt(3.0 / 11.0), rtol=1e-9)
    assert_allclose(length, 2.047, rtol=1e-3)


def test_log_gen_posterior_uniform_prior():
    box = DomainBox(np.array([-10.0]), np.array([10.0]))
    prior = Prior(box)
    loss = lambda th: (th[:, 0] - 1.0) ** 2
    n = 7
    lp = log_gen_posterior([[1.0], [2.0], [11.0]], loss, prior, n)
    vals = loss(np.array([[1.0], [2.0]]))
    assert_allclose(lp[0] - lp[1], -n * (vals[0] - vals[1]), rtol=1e-12)
    assert lp[2] == -np.inf


def test_log_gen_posterior_matches_conjugate_density():
    # eta = theta x with a quadratic loss: the kernel must agree with the
    # closed-form normal posterior up to one additive constant.
    n, den = 4, 1.0 / 3.0
    loss = lambda th: den * (3.5 - th[:, 0]) ** 2
    prior = NormalPrior([0.0], [1.0])
    post = conjugate_posterior(3.5, n=n, tau2=1.0, gamma=1.0)
    m, v = post.mean[0], post.cov[0, 0]
    grid = np.linspace(0.0, 5.0, 23)
    lhs = log_gen_posterior(grid[:, None], loss, prior, n)
    rhs = np.array([-0.5 * (t - m) ** 2 / v for t in grid])
    diff = lhs - rhs
    assert np.ptp(diff) < 1e-8 * max(np.ptp(lhs), 1.0)


def _std_normal_sample(seed=0, iterations=4000, chains=4):
    box = DomainBox(np.array([-12.0]), np.array([12.0]))
    prior = Prior(box)
    loss = lambda th: 0.5 * th[:, 0] ** 2
    start = LaplaceApprox(mean=np.array([0.0]), cov=np.array([[1.0]]))
    st = SamplerSettings(chains=chains, iterations=iterations, thin=2)
    return sample_posterior(loss, prior, n=1, start=start, seed=seed, settings=st)


def test_sampler_recovers_standard_normal():
    post = _std_normal_sample()
    assert post.n_draws == 4 * 1000
    assert abs(post.draws.mean()) < 0.1
    assert 0.9 < post.draws.std() < 1.1
    assert ACCEPT_MIN < post.acceptance_rate <= 1.0
    assert np.all(post.rhat < 1.05)
    assert post.flags == ()


def test_sampler_is_deterministic():
    a = _std_normal_sample(seed=11, iterations=400, chains=2)
    b = _std_normal_sample(seed=11, iterations=400, chains=2)
    c = _std_normal_sample(seed=12, iterations=400, chains=2)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.chain_ids, b.chain_ids)
    assert not np.array_equal(a.draws, c.draws)


def test_sampler_chains_independent_of_count():
    # chain c is seeded by (seed, c), so adding chains never perturbs chain 0
    one = _std_normal_sample(seed=5, iterations=400, chains=1)
    two = _std_normal_sample(seed=5, iterations=400, chains=2)
    assert np.array_equal(one.draws, two.draws[two.chain_ids == 0])
    assert not np.array_equal(one.draws, two.draws[two.chain_ids == 1])
    iterations = 410
    one = _std_normal_sample(seed=5, iterations=iterations, chains=1)
    for chains in (5, 9, 10, 22):
        many = _std_normal_sample(seed=5, iterations=iterations, chains=chains)
        assert np.array_equal(one.draws, many.draws[many.chain_ids == 0])


def test_sampler_validation():
    box = DomainBox(np.array([-1.0]), np.array([1.0]))
    prior = Prior(box)
    loss = lambda th: th[:, 0] ** 2
    with pytest.raises(TypeError, match="start"):
        sample_posterior(loss, prior, n=1, settings=SamplerSettings())
    start = LaplaceApprox(mean=np.array([5.0]), cov=np.eye(1))
    with pytest.raises(ValueError, match="initial"):
        sample_posterior(loss, prior, n=1, start=start, settings=SamplerSettings())


def test_sampler_rejects_non_finite_loss():
    # the loss is NaN above 2 and +inf below -2.5 inside a [-3, 3] prior: those
    # proposals must be rejected exactly as if the prior stopped at [-2.5, 2]
    inner = DomainBox(np.array([-2.5]), np.array([2.0]))
    wide = DomainBox(np.array([-3.0]), np.array([3.0]))
    bad_rows = []

    def loss(th):
        assert wide.contains(th)  # called on the rows inside the prior only
        out = 0.5 * th[:, 0] ** 2
        bad = ~inner.inside(th)
        bad_rows.append(int(bad.sum()))
        return np.where(bad, np.where(th[:, 0] > 0.0, np.nan, np.inf), out)

    opts = SamplerSettings(chains=4, iterations=2000, thin=2)
    start = LaplaceApprox(mean=np.array([0.0]), cov=np.array([[1.0]]))
    post = sample_posterior(loss, Prior(wide), n=1, start=start, seed=3, settings=opts)
    assert sum(bad_rows) > 100
    assert np.all(np.isfinite(post.draws)) and inner.contains(post.draws)
    ref = sample_posterior(lambda th: 0.5 * th[:, 0] ** 2, Prior(inner),
                           n=1, start=start, seed=3, settings=opts)
    assert np.array_equal(post.draws, ref.draws)
    assert np.array_equal(post.per_chain_accept, ref.per_chain_accept)
    lp = log_gen_posterior(np.array([[0.0], [2.5], [-2.8], [1.0]]), loss,
                           Prior(wide), 1)
    assert_allclose(lp, [0.0, -np.inf, -np.inf, -0.5], rtol=0)


def _conjugate_case(g=1.0):
    # the straight line at n = 4 with a N(0, 1) prior: the posterior is exactly normal
    model, system, _ = make_scenario("simple-linear")
    rule = build_rule([0.0], [1.0], 64)
    fit = fit_smoother(generate_replicate(system, 4, seed=0))
    exact = conjugate_posterior(linear_theta_hat(fit, rule), n=4, tau2=1.0,
                                gamma=g, rule=rule)
    return scaled_loss(fixed_gamma(g), l2_loss_fn(fit, model, rule)), exact


@pytest.mark.parametrize("factor", [1 / 9, 9.0])
def test_sampler_matches_conjugate_posterior_from_a_misscaled_proposal(factor):
    # a start covariance a ninth of the exact one and nine times it: the pilot refit
    # must bring either to the exact mean and variance within 3 batch MCSEs
    loss, exact = _conjugate_case()
    opts = SamplerSettings(chains=4, iterations=20_000, thin=1)
    start = LaplaceApprox(mean=exact.mean, cov=factor * exact.cov)
    post = sample_posterior(loss, NormalPrior([0.0], [1.0]), n=4, start=start, seed=7,
                            settings=opts)
    assert post.flags == ()
    per = [post.draws[post.chain_ids == c, 0] for c in range(4)]
    mcse_mean = np.sqrt(sum(batch_mcse(x) ** 2 for x in per)) / 4
    mcse_m2 = np.sqrt(sum(batch_mcse(x * x) ** 2 for x in per)) / 4
    assert abs(post.draws.mean() - exact.mean[0]) < 3.0 * mcse_mean
    assert (abs(post.draws.var(ddof=1) - exact.cov[0, 0])
            < 3.0 * (mcse_m2 + 2.0 * abs(exact.mean[0]) * mcse_mean))


@pytest.mark.parametrize("sd_factor", [1e-2, 1e4])
def test_sampler_flags_a_badly_scaled_proposal(sd_factor):
    # sd 100 times too narrow and 10^4 times too wide: no pilot rescues either, and
    # the draws must come flagged
    loss, exact = _conjugate_case()
    opts = SamplerSettings(chains=4, iterations=4000, thin=2)
    start = LaplaceApprox(mean=exact.mean, cov=sd_factor ** 2 * exact.cov)
    post = sample_posterior(loss, NormalPrior([0.0], [1.0]), n=4, start=start, seed=7,
                            settings=opts)
    assert "acceptance-outside-band" in post.flags


def test_sampler_keeps_the_laplace_proposal_when_the_pilot_has_no_weight():
    # the loss is finite at the initial point only, so every pilot weight is 0:
    # each chain proposes the Laplace t draws of its own stream, all rejected
    init, cov = np.array([0.5]), np.array([[0.04]])
    seen = []

    def loss(th):
        seen.append(th.copy())
        return np.where(th[:, 0] == init[0], 0.0, np.nan)

    opts = SamplerSettings(chains=3, iterations=1000, thin=2)
    start = LaplaceApprox(mean=init, cov=cov)
    post = sample_posterior(loss, NormalPrior([0.0], [1.0]), n=1, start=start, seed=4,
                            settings=opts)
    laplace = _StudentT(init, np.linalg.cholesky(T_SCALE ** 2 * cov))
    proposals = np.vstack([laplace.draw(np.random.default_rng([4, c]), 1000)
                           for c in range(3)])
    assert np.array_equal(np.vstack(seen[2:]), proposals)
    assert np.all(post.draws == init) and post.acceptance_rate == 0.0
    assert "acceptance-outside-band" in post.flags
    again = sample_posterior(loss, NormalPrior([0.0], [1.0]), n=1, start=start, seed=4,
                             settings=opts)
    assert again.draws.tobytes() == post.draws.tobytes()


def test_sampler_loss_calls_carry_at_most_pilot_rows():
    # one call at the initial point, one pilot call, then every proposal in calls
    # of at most PILOT_ROWS rows, each row inside the prior
    box = DomainBox(np.array([-1.0]), np.array([3.0]))
    calls = []

    def loss(th):
        assert box.contains(th)
        calls.append(th.shape[0])
        return 0.5 * th[:, 0] ** 2

    chains, iterations = 3, 3000
    opts = SamplerSettings(chains=chains, iterations=iterations, thin=2)
    start = LaplaceApprox(mean=np.array([0.0]), cov=np.eye(1))
    sample_posterior(loss, Prior(box), n=1, start=start, seed=0, settings=opts)
    assert calls[0] == 1 and calls[1] <= PILOT_ROWS
    assert len(calls) == 2 + math.ceil(chains * iterations / PILOT_ROWS)
    assert max(calls[2:]) <= PILOT_ROWS


def test_settings_validation():
    with pytest.raises(ValueError):
        SamplerSettings(chains=0)
    with pytest.raises(ValueError):
        SamplerSettings(iterations=5)
    with pytest.raises(ValueError):
        SamplerSettings(thin=0)


def test_split_rhat_behaviour():
    rng = np.random.default_rng(0)
    iid = [rng.standard_normal((2000, 1)) for _ in range(4)]
    assert split_rhat(iid)[0] < 1.01
    apart = [rng.standard_normal((2000, 1)),
             rng.standard_normal((2000, 1)) + 10.0]
    assert split_rhat(apart)[0] > 2.0
    with pytest.raises(ValueError, match="short"):
        split_rhat([np.zeros((3, 1))])


def test_prior_validation():
    with pytest.raises(ValueError):
        NormalPrior([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        NormalPrior([0.0], [0.0])
    p = NormalPrior([1.0], [4.0])
    assert_allclose(p.log_density(np.array([3.0])), -0.5 * 4.0 / 4.0)


def test_laplace_approx_matches_flat_conjugate():
    est = CalibrationEstimate(theta=np.array([3.5]), value=0.0, method="l2",
                              hessian=np.array([[2.0 / 3.0]]), converged=True)
    lap = laplace_approx(est, no_scaling(), n=8)
    assert_allclose(lap.mean, [3.5])
    assert_allclose(lap.cov, [[3.0 / 16.0]], rtol=1e-12)
    scaled = laplace_approx(est, fixed_gamma(8.0), n=8)
    assert_allclose(scaled.cov, [[3.0 / 128.0]], rtol=1e-12)


def test_laplace_approx_curvature_equals_sandwich():
    v = np.array([[2.0 / 3.0]])
    w = np.array([[4.0 * 0.0625 / 24.0]])
    sw = SandwichMatrices(V=v, W=w, variant="marginal", n=8, sigma2=0.0625)
    est = CalibrationEstimate(theta=np.array([3.5]), value=0.0, method="l2",
                              hessian=v, converged=True)
    adj = curvature_adjustment(sw, est.theta)
    lap = laplace_approx(est, adj, n=8)
    assert_allclose(lap.cov, estimator_cov(sw), rtol=1e-10)


def test_laplace_approx_flags_and_failures():
    est = CalibrationEstimate(theta=np.array([1.0]), value=0.0, method="l2",
                              hessian=np.array([[1.0]]), converged=False)
    lap = laplace_approx(est, no_scaling(), n=4)
    assert "estimate-not-converged" in lap.flags
    # largest eigenvalue -1, then below -1
    for hessian in ([[-1.0]], [[-2.0]]):
        bad = CalibrationEstimate(theta=np.array([1.0]), value=0.0, method="l2",
                                  hessian=np.array(hessian), converged=True)
        with pytest.raises(ValueError, match="scaled Hessian is not positive definite") as exc:
            laplace_approx(bad, no_scaling(), n=4)
        assert type(exc.value) is ValueError


def test_credible_interval_laplace():
    lap = LaplaceApprox(mean=np.array([1.0, 2.0]),
                        cov=np.diag([4.0, 9.0]))
    iv = credible_interval(lap, level=0.95)
    assert iv.shape == (2, 2)
    assert_allclose(iv[0], [1.0 - Z975 * 2.0, 1.0 + Z975 * 2.0], rtol=1e-9)
    assert_allclose(iv[1], [2.0 - Z975 * 3.0, 2.0 + Z975 * 3.0], rtol=1e-9)
    assert_allclose(credible_interval(lap, 0.95, mode="hpd"), iv, rtol=1e-12)


def _fake_sample(draws):
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    return PosteriorSample(draws=draws,
                           chain_ids=np.zeros(draws.shape[0], dtype=int),
                           acceptance_rate=0.35,
                           per_chain_accept=np.array([0.35]),
                           rhat=np.ones(draws.shape[1]), seed=0)


def test_credible_interval_draws():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20_000)
    iv = credible_interval(_fake_sample(x), level=0.95)
    assert_allclose(iv[0], [-Z975, Z975], atol=0.06)
    # for symmetric draws the two modes nearly coincide
    hpd = credible_interval(_fake_sample(x), level=0.95, mode="hpd")
    assert_allclose(hpd[0, 1] - hpd[0, 0], iv[0, 1] - iv[0, 0], rtol=0.03)


def test_hpd_shorter_for_skewed_draws():
    rng = np.random.default_rng(4)
    x = rng.exponential(size=20_000)
    q = credible_interval(_fake_sample(x), level=0.9)
    h = credible_interval(_fake_sample(x), level=0.9, mode="hpd")
    assert (h[0, 1] - h[0, 0]) < (q[0, 1] - q[0, 0])


def test_credible_interval_refusals():
    few = _fake_sample(np.arange(50, dtype=float))
    with pytest.raises(ValueError, match="100"):
        credible_interval(few, level=0.95)
    lap = LaplaceApprox(mean=np.array([0.0]), cov=np.eye(1))
    with pytest.raises(ValueError, match="mode"):
        credible_interval(lap, level=0.95, mode="highest")
    with pytest.raises(ValueError, match="level"):
        credible_interval(lap, level=1.5)
    with pytest.raises(TypeError):
        credible_interval(np.zeros(200), level=0.95)


def test_batch_mcse():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5000)
    se = batch_mcse(x)
    assert 0.5 / np.sqrt(5000) < se < 2.0 / np.sqrt(5000)
    with pytest.raises(ValueError, match="short"):
        batch_mcse(np.arange(60.0))


def test_write_draws_csv_round_trip(tmp_path):
    post = _std_normal_sample(seed=2, iterations=400, chains=2)
    path = tmp_path / "draws.csv"
    write_draws_csv({"a": post}, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["analysis", "theta_1", "chain"]
    assert len(rows) - 1 == post.n_draws
    assert {r[0] for r in rows[1:]} == {"a"}
    vals = np.array([float(r[1]) for r in rows[1:]])
    chains = np.array([int(r[2]) for r in rows[1:]])
    assert_allclose(vals, post.draws[:, 0], rtol=0, atol=0)
    assert np.array_equal(chains, post.chain_ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_prior_log_density_batch_rows_equal_single_theta(p, chains, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 0.0, p)
    box = DomainBox(lower, lower + rng.uniform(0.1, 2.0, p))
    priors = (Prior(box),
              NormalPrior(rng.normal(size=p), rng.uniform(0.1, 3.0, p)))
    # rows from three times the box: some inside the uniform prior, some not;
    # rows all inside it; rows within 1e-12 of a face, on either side
    width = box.upper - box.lower
    mixed = box.lower - width + 3.0 * rng.random((chains, p)) * width
    inside = box.lower + rng.random((chains, p)) * width
    near_face = inside.copy()
    j = rng.integers(p, size=chains)
    face = np.where(rng.random(chains) < 0.5, box.lower[j], box.upper[j])
    near_face[np.arange(chains), j] = face + rng.uniform(-1e-12, 1e-12, chains)
    for thetas in (mixed, inside, near_face):
        for prior in priors:
            batch = prior.log_density(thetas)
            assert batch.shape == (chains,)
            # with a row outside appended no batch is wholly inside the box
            outside = box.upper + width
            assert np.array_equal(prior.log_density(np.vstack([thetas, outside]))[:-1],
                                  batch)
            for i in range(chains):
                assert batch[i] == prior.log_density(thetas[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.lists(st.integers(0, 2), min_size=1,
                                                      max_size=16),
       st.integers(0, 2**32 - 1))
def test_log_gen_posterior_scores_each_row_as_if_alone(p, chunk, kinds, seed):
    # a batch that mixes rows strictly inside the box, rows on a face within BOX_ATOL
    # and rows outside it, scored in loss calls of at most `chunk` rows: each row must
    # equal its one-row call bit for bit, under the uniform prior and a normal one
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 0.0, p)
    box = DomainBox(lower, lower + rng.uniform(0.1, 2.0, p))
    width = box.upper - box.lower
    rows = box.lower + (0.05 + 0.9 * rng.random((len(kinds), p))) * width
    for i, kind in enumerate(kinds):
        j = rng.integers(p)
        side = rng.random() < 0.5
        if kind == 1:
            face = box.lower[j] if side else box.upper[j]
            rows[i, j] = face + rng.uniform(-BOX_ATOL, BOX_ATOL)
        elif kind == 2:
            rows[i, j] = (box.lower[j] - rng.uniform(0.01, 1.0) * width[j] if side
                          else box.upper[j] + rng.uniform(0.01, 1.0) * width[j])
    centre, cut = rng.normal(size=p), box.lower[0] + 0.8 * width[0]
    sizes = []

    def loss(th):
        sizes.append(th.shape[0])
        return np.where(th[:, 0] < cut, ((th - centre) ** 2).sum(axis=1), np.nan)

    priors = (Prior(box), NormalPrior(rng.normal(size=p), rng.uniform(0.1, 3.0, p)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior, "PILOT_ROWS", chunk)
        for prior in priors:
            sizes.clear()
            batch = log_gen_posterior(rows, loss, prior, 3)
            assert batch.shape == (len(kinds),) and max(sizes, default=0) <= chunk
            alone = [log_gen_posterior(rows[i:i + 1], loss, prior, 3)[0]
                     for i in range(len(kinds))]
            assert np.array_equal(batch, alone)
