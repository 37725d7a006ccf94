"""Generalised posterior machinery: sampling, Laplace and conjugate forms.

The target density is  pi(theta | y) proportional to exp(-n loss(theta)) pi(theta),
with the loss already carrying any magnitude or curvature scaling. Three
engines are provided:

* an independence Metropolis sampler whose multivariate t proposal is drawn
  from the Laplace fit and refitted once by an importance-weighted pilot;
* a Laplace approximation N(theta_hat, (n H)^-1) with H the scaled loss
  Hessian at the estimate;
* the closed-form normal posterior for the straight-line model under a
  normal or flat prior.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .calibration import CalibrationEstimate, StraightLine, normal_posterior
from .models import DomainBox
from .numerics import QuadratureRule, build_rule, check_definite
from .scaling import ScalingAdjustment

MIN_INTERVAL_DRAWS = 100
MIN_SPLIT_DRAWS = 4     # kept draws per chain the split R-hat needs: two halves of 2
INTERVAL_MODES = ("quantile", "hpd")
LEVEL_BOUND = (lambda v: 0.0 < v < 1.0, "must be in (0,1)")
ACCEPT_MIN = 0.3        # below it chains stick; for an independence kernel no rate is too high
RHAT_LIMIT = 1.05
BURNIN_FRAC = 0.5       # leading share of each chain dropped
T_DF = 4                # degrees of freedom of the t proposal
T_SCALE = 1.5           # the proposal's scale, in units of the Laplace sd
PILOT_ROWS = 4096       # draws of the pilot refit, and the most rows one loss call carries


@dataclass(frozen=True)
class Prior:
    """Uniform prior on a box."""

    box: DomainBox

    def log_density(self, theta):
        """Log prior density up to a constant, (c,) for theta (c, p)."""
        return np.where(self.box.inside(theta), 0.0, -np.inf)


def log_gen_posterior(theta, loss, prior: Prior, n: int) -> np.ndarray:
    """Log generalised posterior up to an additive constant, (c,) for a batch (c, p).

    ``loss`` maps a batch (c, p) to (c,) and is called on the rows inside the prior's
    support, in calls of at most ``PILOT_ROWS`` rows; a non-finite loss gives -inf.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(len(theta))
    for i in range(0, len(theta), PILOT_ROWS):
        rows, lp = theta[i:i + PILOT_ROWS], out[i:i + PILOT_ROWS]
        if isinstance(prior, Prior) and prior.box.strictly_contains(rows):
            val = loss(rows)    # the uniform prior adds 0 strictly inside its box
            lp[:] = np.where(np.isfinite(val), -n * val, -np.inf)
            continue
        lp[:] = prior.log_density(rows)
        inside = np.isfinite(lp)
        if inside.any():
            val = loss(rows[inside])
            lp[inside] = np.where(np.isfinite(val), -n * val + lp[inside], -np.inf)
    return out


@dataclass
class SamplerSettings:
    chains: int = 4
    iterations: int = 20_000
    thin: int = 4

    def __post_init__(self):
        if self.chains < 1 or self.iterations < 10:
            raise ValueError("need at least 1 chain and 10 iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def kept_per_chain(self) -> int:
        """Draws each chain keeps: every ``thin``-th step after burn-in."""
        return len(range(int(BURNIN_FRAC * self.iterations), self.iterations, self.thin))

    def check_kept_draws(self) -> None:
        """Raise ValueError when a reported run would have fewer than 2 chains, or
        keep too few draws for the split R-hat or for an interval. The settings
        themselves allow one short chain; callers that report intervals check
        before sampling."""
        if self.chains < 2:
            raise ValueError(f"{self.chains} chain(s); the split R-hat needs at least 2")
        kept = self.kept_per_chain
        if kept < MIN_SPLIT_DRAWS:
            raise ValueError(f"{kept} kept draw(s) per chain; the split R-hat "
                             f"needs {MIN_SPLIT_DRAWS} (raise iterations or lower thin)")
        if self.chains * kept < MIN_INTERVAL_DRAWS:
            raise ValueError(f"{self.chains} chains keep {self.chains * kept} draws; an "
                             f"interval needs {MIN_INTERVAL_DRAWS} (raise iterations or "
                             "chains, or lower thin)")


@dataclass
class PosteriorSample:
    draws: np.ndarray            # (m, p) kept draws, post burn-in, thinned
    chain_ids: np.ndarray        # (m,) chain index per draw
    acceptance_rate: float       # pooled post burn-in acceptance
    per_chain_accept: np.ndarray
    rhat: np.ndarray             # (p,) split statistic across chains
    seed: int
    flags: tuple[str, ...] = ()
    settings: SamplerSettings = field(default=None, repr=False)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.draws.mean(axis=0)

    @property
    def sd(self) -> np.ndarray:
        return self.draws.std(axis=0, ddof=1)


def split_rhat(per_chain: list[np.ndarray]) -> np.ndarray:
    """Split-chain potential scale reduction factor, one value per coordinate."""
    halves = []
    for c in per_chain:
        if c.shape[0] < MIN_SPLIT_DRAWS:
            raise ValueError("chains too short for the split diagnostic")
        half = c.shape[0] // 2
        halves.extend([c[:half], c[half:2 * half]])
    seqs = np.stack(halves)                      # (m, L, p)
    m, length = seqs.shape[0], seqs.shape[1]
    means = seqs.mean(axis=1)                    # (m, p)
    svars = seqs.var(axis=1, ddof=1)             # (m, p)
    w = svars.mean(axis=0)
    b = length * means.var(axis=0, ddof=1)
    var_plus = (length - 1) / length * w + b / length
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(var_plus / w)
    return np.where(w > 0, r, 1.0)


@dataclass(frozen=True)
class _StudentT:
    """Multivariate t with ``T_DF`` degrees of freedom, centre and scale matrix
    chol chol^T: draws and their log density, up to a constant of T_DF and p."""

    centre: np.ndarray
    chol: np.ndarray

    def draw(self, rng, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.centre.size))
        g = rng.chisquare(T_DF, size) / T_DF
        return self.centre + (z / np.sqrt(g)[:, None]) @ self.chol.T

    def log_density(self, x: np.ndarray) -> np.ndarray:
        z = np.linalg.solve(self.chol, (x - self.centre).T)
        return (-0.5 * (T_DF + self.centre.size) * np.log1p((z * z).sum(axis=0) / T_DF)
                - np.log(np.diag(self.chol)).sum())


def _proposal(init, cov, loss, prior, n, seed) -> _StudentT:
    """The t at ``init`` with scale ``T_SCALE``^2 ``cov``, refitted once to ``PILOT_ROWS``
    importance-weighted draws of it (Cappe, Guillin, Marin & Robert, 2004) unless they have
    no finite weight, an effective size below p + 1, a covariance that fails
    ``check_definite``, or one wider than the proposal from fewer effective draws than an
    interval needs: a pilot sees its target only as far as its draws reach."""
    laplace = _StudentT(init, np.linalg.cholesky(T_SCALE ** 2 * cov))
    x = laplace.draw(np.random.default_rng([seed, 2 ** 32 - 1]), PILOT_ROWS)
    log_w = log_gen_posterior(x, loss, prior, n) - laplace.log_density(x)
    if not np.isfinite(log_w).any():
        return laplace
    w = np.exp(log_w - log_w.max())
    ess, centre = w.sum() ** 2 / (w * w).sum(), w @ x / w.sum()
    fit = np.atleast_2d(np.cov(x.T, aweights=w, bias=True))
    widens = np.linalg.eigvals(np.linalg.solve(T_SCALE ** 2 * cov, fit)).real.max() > 1.0
    if ess < init.size + 1 or (widens and ess < MIN_INTERVAL_DRAWS):
        return laplace
    try:
        fit = check_definite(fit, ValueError)
    except ValueError:
        return laplace
    return _StudentT(centre, np.linalg.cholesky(T_SCALE ** 2 * fit))


def sample_posterior(loss, prior: Prior, n: int, start: LaplaceApprox, seed: int = 0,
                     settings: SamplerSettings | None = None) -> PosteriorSample:
    """Independence Metropolis on the generalised posterior (Tierney, 1994).

    ``loss`` maps a batch (c, p) to (c,) values and sees only rows inside the prior, whose
    ``log_density`` is all the sampler reads of it. ``start`` is the Laplace fit: chain c
    starts at its mean and draws its ``_proposal`` rows, then its log-uniforms, from the
    stream (seed, c), so draws do not depend on the chain count. All rows are evaluated
    first, in loss calls of at most ``PILOT_ROWS`` rows. Each chain drops its first
    ``BURNIN_FRAC`` of steps and keeps every ``thin``-th state after it.
    """
    st = settings if settings is not None else SamplerSettings()
    init = start.mean
    p, lp0 = init.size, log_gen_posterior(init[None], loss, prior, n)[0]
    if not np.isfinite(lp0):
        raise ValueError("log posterior is not finite at the initial point")
    q = _proposal(init, start.cov, loss, prior, n, seed)
    chains, iters, burn = st.chains, st.iterations, int(BURNIN_FRAC * st.iterations)
    props, log_u = np.empty((chains, iters, p)), np.empty((chains, iters))
    for c in range(chains):
        rng = np.random.default_rng([seed, c])
        props[c] = q.draw(rng, iters)
        log_u[c] = np.log(rng.random(iters))
    rows = props.reshape(-1, p)
    log_w = log_gen_posterior(rows, loss, prior, n) - q.log_density(rows)
    log_w = log_w.reshape(chains, iters)
    kept, accept_rates = np.empty((chains, st.kept_per_chain, p)), np.empty(chains)
    for c in range(chains):
        # the chain's state after each step: the last accepted row, or -1 for init
        at, i, cur = [], -1, lp0 - q.log_density(init[None])[0]
        for t, (lw, lu) in enumerate(zip(log_w[c].tolist(), log_u[c].tolist())):
            if lu < lw - cur:
                i, cur = t, lw
            at.append(i)
        at = np.array(at)
        accept_rates[c] = np.mean(at[burn:] == np.arange(burn, iters))
        kept[c] = np.vstack([props[c], init])[at[burn::st.thin]]
    rhat = split_rhat(kept) if chains >= 2 else np.full(p, np.nan)
    flags = []
    pooled = float(accept_rates.mean())
    if pooled < ACCEPT_MIN:
        flags.append("acceptance-outside-band")
    if chains >= 2 and np.any(rhat > RHAT_LIMIT):
        flags.append("rhat-high")
    return PosteriorSample(draws=kept.reshape(-1, p),
                           chain_ids=np.repeat(np.arange(chains), kept.shape[1]),
                           acceptance_rate=pooled, per_chain_accept=accept_rates,
                           rhat=rhat, seed=seed, flags=tuple(flags), settings=st)


@dataclass(frozen=True)
class LaplaceApprox:
    """Normal approximation N(mean, cov) to a posterior."""

    mean: np.ndarray
    cov: np.ndarray
    flags: tuple[str, ...] = ()

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def laplace_approx(est: CalibrationEstimate, adj: ScalingAdjustment,
                   n: int) -> LaplaceApprox:
    """Laplace approximation under the given loss scaling.

    Covariance is (n H)^-1 with H = V, gamma V or Gamma^T V Gamma for the
    none / magnitude / curvature adjustments respectively.
    """
    v = 0.5 * (est.hessian + est.hessian.T)
    if adj.kind == "none":
        h = v
    elif adj.kind == "magnitude":
        h = adj.gamma * v
    else:
        h = adj.Gamma.T @ v @ adj.Gamma
    h = check_definite(h, lambda _: ValueError(
        "scaled Hessian is not positive definite at the estimate"))
    cov = np.linalg.inv(n * h)
    return LaplaceApprox(mean=est.theta.copy(), cov=0.5 * (cov + cov.T), flags=est.flags)


def conjugate_posterior(theta_hat: float, n: int, tau2: float, gamma: float,
                        rule: QuadratureRule | None = None) -> LaplaceApprox:
    """Exact normal posterior for eta(theta, x) = theta x on [0, 1].

    The gamma-scaled loss is quadratic in theta about its minimiser
    ``theta_hat`` (``calibration.linear_theta_hat``), so with a N(0, tau2)
    prior the posterior is normal (``calibration.normal_posterior``).
    ``tau2 = inf`` gives the flat-prior (pure loss) posterior.
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if not tau2 > 0.0:
        raise ValueError("tau2 must be positive or infinite")
    if rule is None:
        rule = build_rule([0.0], [1.0])
    prec, mean = normal_posterior(theta_hat, n, gamma, StraightLine(rule).den,
                                  1.0 / tau2)
    return LaplaceApprox(mean=np.array([mean]), cov=np.array([[1.0 / prec]]))


# ---------------------------------------------------------------------------
# intervals and Monte Carlo error
# ---------------------------------------------------------------------------

def _hpd_from_draws(x: np.ndarray, level: float) -> tuple[float, float]:
    xs = np.sort(x)
    m = xs.size
    k = int(np.ceil(level * m))
    if k >= m:
        return float(xs[0]), float(xs[-1])
    widths = xs[k:] - xs[: m - k]
    i = int(np.argmin(widths))
    return float(xs[i]), float(xs[i + k])


def two_sided_z(level: float) -> float:
    """The standard normal quantile that leaves (1 - level) / 2 in each tail."""
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def credible_interval(obj, level: float = 0.95, mode: str = "quantile") -> np.ndarray:
    """Per-coordinate credible intervals, shape (p, 2).

    ``obj`` is a PosteriorSample or a LaplaceApprox. For normal posteriors
    the highest-density and equal-tailed intervals coincide. Sample-based
    intervals refuse to run on fewer than 100 draws.
    """
    if mode not in INTERVAL_MODES:
        raise ValueError(f"unknown interval mode {mode!r}")
    if not LEVEL_BOUND[0](level):
        raise ValueError(f"level {LEVEL_BOUND[1]}")
    if isinstance(obj, LaplaceApprox):
        z = two_sided_z(level)
        sd = obj.sd
        return np.column_stack([obj.mean - z * sd, obj.mean + z * sd])
    if isinstance(obj, PosteriorSample):
        if obj.n_draws < MIN_INTERVAL_DRAWS:
            raise ValueError(
                f"need at least {MIN_INTERVAL_DRAWS} draws for an interval, "
                f"got {obj.n_draws}")
        draws = obj.draws
        if mode == "quantile":
            lo = np.quantile(draws, 0.5 - level / 2.0, axis=0)
            hi = np.quantile(draws, 0.5 + level / 2.0, axis=0)
            return np.column_stack([lo, hi])
        return np.array([_hpd_from_draws(draws[:, j], level)
                         for j in range(draws.shape[1])])
    raise TypeError("expected a PosteriorSample or LaplaceApprox")


def write_draws_csv(samples: dict[str, PosteriorSample], path) -> None:
    """One row per kept draw of each labelled sample: analysis, theta_1..theta_p, chain."""
    p = next(iter(samples.values())).draws.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["analysis"] + [f"theta_{j + 1}" for j in range(p)] + ["chain"])
        for label, sample in samples.items():
            for row, cid in zip(sample.draws, sample.chain_ids):
                writer.writerow([label] + [repr(float(v)) for v in row] + [int(cid)])
