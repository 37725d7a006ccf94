import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.calibration import CalibrationEstimate
from l2calib.models import DomainBox
from l2calib.numerics import build_rule
from l2calib.posterior import (ACCEPT_BAND, ADAPT_BLOCK, BURNIN_FRAC, RHAT_LIMIT,
                               TARGET_ACCEPT, LaplaceApprox, PosteriorSample,
                               Prior, SamplerSettings, batch_mcse,
                               conjugate_posterior, credible_interval,
                               laplace_approx, log_gen_posterior,
                               prefetch_depth, sample_posterior, split_rhat,
                               write_draws_csv)
from l2calib.scaling import curvature_adjustment, fixed_gamma, no_scaling
from l2calib.asymptotics import SandwichMatrices

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
    prior = Prior.uniform(box)
    loss = lambda th: (th[:, 0] - 1.0) ** 2
    n = 7
    d = (log_gen_posterior([1.0], loss, prior, n)
         - log_gen_posterior([2.0], loss, prior, n))
    vals = loss(np.array([[1.0], [2.0]]))
    assert_allclose(d, -n * (vals[0] - vals[1]), rtol=1e-12)
    assert log_gen_posterior([11.0], loss, prior, n) == -np.inf


def test_log_gen_posterior_matches_conjugate_density():
    # eta = theta x with a quadratic loss: the kernel must agree with the
    # closed-form normal posterior up to one additive constant.
    n, den = 4, 1.0 / 3.0
    loss = lambda th: den * (3.5 - th[:, 0]) ** 2
    prior = Prior.normal([0.0], [1.0])
    post = conjugate_posterior(3.5, n=n, tau2=1.0, gamma=1.0)
    m, v = post.mean[0], post.cov[0, 0]
    grid = np.linspace(0.0, 5.0, 23)
    lhs = np.array([log_gen_posterior([t], loss, prior, n) for t in grid])
    rhs = np.array([-0.5 * (t - m) ** 2 / v for t in grid])
    diff = lhs - rhs
    assert np.ptp(diff) < 1e-8 * max(np.ptp(lhs), 1.0)


def _std_normal_sample(seed=0, iterations=4000, chains=4):
    box = DomainBox(np.array([-12.0]), np.array([12.0]))
    prior = Prior.uniform(box)
    loss = lambda th: 0.5 * th[:, 0] ** 2
    st = SamplerSettings(chains=chains, iterations=iterations, thin=2,
                         init=np.array([0.0]), init_cov=np.array([[1.0]]))
    return sample_posterior(loss, prior, n=1, seed=seed, settings=st)


def test_sampler_recovers_standard_normal():
    post = _std_normal_sample()
    assert post.n_draws == 4 * 1000
    assert abs(post.draws.mean()) < 0.1
    assert 0.9 < post.draws.std() < 1.1
    assert 0.1 < post.acceptance_rate < 0.6
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
    # nor does the prefetch depth (4, 3, 2 and 1 at these counts), which
    # splits an adaptation block over several loss calls when it is below
    # ADAPT_BLOCK; a burn-in of 205 steps ends inside a block
    iterations = 410
    assert int(BURNIN_FRAC * iterations) % ADAPT_BLOCK != 0
    one = _std_normal_sample(seed=5, iterations=iterations, chains=1)
    for chains in (5, 9, 10, 22):
        many = _std_normal_sample(seed=5, iterations=iterations, chains=chains)
        assert np.array_equal(one.draws, many.draws[many.chain_ids == 0])


def test_sampler_validation():
    box = DomainBox(np.array([-1.0]), np.array([1.0]))
    prior = Prior.uniform(box)
    loss = lambda th: th[:, 0] ** 2
    with pytest.raises(ValueError, match="initial"):
        sample_posterior(loss, prior, n=1, settings=SamplerSettings())
    st = SamplerSettings(init=np.array([5.0]))
    with pytest.raises(ValueError, match="initial"):
        sample_posterior(loss, prior, n=1, settings=st)


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

    opts = SamplerSettings(chains=4, iterations=2000, thin=2,
                           init=np.array([0.0]), init_cov=np.array([[1.0]]))
    post = sample_posterior(loss, Prior.uniform(wide), n=1, seed=3, settings=opts)
    assert sum(bad_rows) > 100
    assert np.all(np.isfinite(post.draws)) and inner.contains(post.draws)
    ref = sample_posterior(lambda th: 0.5 * th[:, 0] ** 2, Prior.uniform(inner),
                           n=1, seed=3, settings=opts)
    assert np.array_equal(post.draws, ref.draws)
    assert np.array_equal(post.per_chain_accept, ref.per_chain_accept)
    lp = log_gen_posterior(np.array([[0.0], [2.5], [-2.8], [1.0]]), loss,
                           Prior.uniform(wide), 1)
    assert_allclose(lp, [0.0, -np.inf, -np.inf, -0.5], rtol=0)


def _stepwise_metropolis(loss, prior, n, seed, st):
    """Reference sampler: one loss call per step, before and after burn-in;
    the step size takes its adapted value at the end of each block of
    ``ADAPT_BLOCK`` burn-in steps and of burn-in.

    Returns (kept draws (chains, m, p), per-chain acceptance, rhat, flags).
    """
    p = prior.dim
    init = np.atleast_1d(np.asarray(st.init, dtype=float))
    lp0 = log_gen_posterior(init, loss, prior, n)
    if st.init_cov is not None:
        cov = np.atleast_2d(np.asarray(st.init_cov, dtype=float))
        chol = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / p * np.eye(p))
    else:
        chol = np.eye(p)
    chains, iters = st.chains, st.iterations
    burn = int(BURNIN_FRAC * iters)
    x = np.empty((chains, p))
    steps = np.empty((iters, chains, p))
    log_u = np.empty((iters, chains))
    for c in range(chains):
        rng = np.random.default_rng([seed, c])
        x[c] = init + 0.01 * (chol @ rng.standard_normal(p))
        steps[:, c] = rng.standard_normal((iters, p)) @ chol.T
        log_u[:, c] = np.log(rng.random(iters))
    lp = log_gen_posterior(x, loss, prior, n)
    stuck = ~np.isfinite(lp)
    x[stuck], lp[stuck] = init, lp0
    log_s = np.full(chains, np.log(2.38 / np.sqrt(p)))
    s = np.exp(log_s)[:, None]
    kept, accepted = [], np.zeros(chains)
    for t in range(iters):
        prop = x + s * steps[t]
        lp_prop = log_gen_posterior(prop, loss, prior, n)
        delta = lp_prop - lp
        accept = log_u[t] < delta
        x = np.where(accept[:, None], prop, x)
        lp = np.where(accept, lp_prop, lp)
        if t < burn:
            alpha = np.exp(np.minimum(delta, 0.0))
            log_s += (alpha - TARGET_ACCEPT) / (t + 1) ** 0.6
            if (t + 1) % ADAPT_BLOCK == 0 or t + 1 == burn:
                s = np.exp(log_s)[:, None]
        else:
            accepted += accept
            if (t - burn) % st.thin == 0:
                kept.append(x)
    kept = np.stack(kept, axis=1)
    rates = accepted / (iters - burn)
    rhat = split_rhat(kept) if chains >= 2 else np.full(p, np.nan)
    flags = []
    if not ACCEPT_BAND[0] <= float(rates.mean()) <= ACCEPT_BAND[1]:
        flags.append("acceptance-outside-band")
    if chains >= 2 and np.any(rhat > RHAT_LIMIT):
        flags.append("rhat-high")
    return kept, rates, rhat, tuple(flags)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(10, 300), st.integers(1, 5),
       st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_sampler_equals_stepwise_reference(chains, iterations, thin, p, seed):
    # chains 1-70 reach every prefetch depth, and the post-burn-in length is
    # often not a multiple of it; the loss is NaN or inf on part of a prior
    # box that cuts proposals
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 0.0, p)
    box = DomainBox(lower, lower + rng.uniform(0.5, 2.0, p))
    width = box.upper - box.lower
    centre = box.lower + (0.3 + 0.4 * rng.random(p)) * width
    nan_above = centre[0] + rng.uniform(0.05, 0.5) * width[0]
    inf_below = centre[-1] - rng.uniform(0.05, 0.5) * width[-1]

    def loss(th):
        assert box.inside(th).all()    # the loss sees rows inside the prior only
        val = (((th - centre) / width) ** 2).sum(axis=-1)
        val = np.where(th[:, 0] > nan_above, np.nan, val)
        return np.where(th[:, -1] < inf_below, np.inf, val)

    a = rng.standard_normal((p, p))
    init_cov = None if rng.random() < 0.3 else 0.1 * (a @ a.T + 0.1 * np.eye(p))
    opts = SamplerSettings(chains=chains, iterations=iterations, thin=thin,
                           init=centre, init_cov=init_cov)
    n = int(rng.integers(1, 50))
    prior = Prior.uniform(box)
    try:
        kept, rates, rhat, flags = _stepwise_metropolis(loss, prior, n, seed, opts)
    except ValueError as exc:          # too few kept draws for split R-hat
        with pytest.raises(ValueError, match=str(exc)):
            sample_posterior(loss, prior, n, seed=seed, settings=opts)
        return
    post = sample_posterior(loss, prior, n, seed=seed, settings=opts)
    assert post.draws.tobytes() == kept.reshape(-1, p).tobytes()
    assert np.array_equal(post.chain_ids, np.repeat(np.arange(chains), kept.shape[1]))
    assert post.per_chain_accept.tobytes() == rates.tobytes()
    assert post.rhat.tobytes() == rhat.tobytes()
    assert post.flags == flags


def test_prefetch_depth_keeps_calls_within_the_row_budget():
    assert [prefetch_depth(c) for c in (1, 4, 5, 9, 10, 21, 22, 64)] == [
        4, 4, 3, 3, 2, 2, 1, 1]


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
        Prior.normal([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        Prior.normal([0.0], [0.0])
    p = Prior.normal([1.0], [4.0])
    assert_allclose(p.log_density(np.array([3.0])), -0.5 * 4.0 / 4.0)


def test_laplace_approx_matches_flat_conjugate():
    est = CalibrationEstimate(theta=np.array([3.5]), value=0.0, method="l2",
                              hessian=np.array([[2.0 / 3.0]]), converged=True,
                              n_starts=1)
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
                              hessian=v, converged=True, n_starts=1)
    adj = curvature_adjustment(sw, est.theta)
    lap = laplace_approx(est, adj, n=8)
    assert_allclose(lap.cov, sw.estimator_cov(), rtol=1e-10)


def test_laplace_approx_flags_and_failures():
    est = CalibrationEstimate(theta=np.array([1.0]), value=0.0, method="l2",
                              hessian=np.array([[1.0]]), converged=False,
                              n_starts=1)
    lap = laplace_approx(est, no_scaling(), n=4)
    assert "estimate-not-converged" in lap.flags
    bad = CalibrationEstimate(theta=np.array([1.0]), value=0.0, method="l2",
                              hessian=np.array([[-1.0]]), converged=True,
                              n_starts=1)
    with pytest.raises(ValueError, match="positive definite"):
        laplace_approx(bad, no_scaling(), n=4)


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
    priors = (Prior.uniform(box),
              Prior.normal(rng.normal(size=p), rng.uniform(0.1, 3.0, p)))
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
