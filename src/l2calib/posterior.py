"""Generalised posterior machinery: sampling, Laplace and conjugate forms.

The target density is  pi(theta | y) proportional to exp(-n loss(theta)) pi(theta),
with the loss already carrying any magnitude or curvature scaling. Three
engines are provided:

* an adaptive Gaussian random-walk Metropolis sampler (step size tuned to a
  0.35 acceptance rate once per block of burn-in steps, frozen afterwards);
* a Laplace approximation N(theta_hat, (n H)^-1) with H the scaled loss
  Hessian at the estimate;
* the closed-form normal posterior for the straight-line model under a
  normal or flat prior.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cache
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
ACCEPT_BAND = (0.1, 0.6)
RHAT_LIMIT = 1.05
BURNIN_FRAC = 0.5       # leading share of each chain spent adapting, then dropped
TARGET_ACCEPT = 0.35    # acceptance rate the burn-in step-size adaptation aims at
ADAPT_BLOCK = 4         # burn-in steps between step-size updates
MAX_PREFETCH_DEPTH = 4  # steps one loss call can cover
PREFETCH_ROWS = 64      # proposal rows one prefetching loss call may carry
LP_FLOOR = -np.finfo(float).max  # the least finite log posterior


@dataclass(frozen=True)
class Prior:
    """Uniform prior on a box."""

    box: DomainBox

    @staticmethod
    def uniform(box: DomainBox) -> "Prior":
        return Prior(box)

    @property
    def dim(self) -> int:
        return self.box.dim

    def log_density(self, theta):
        """Log prior density up to a constant: float for theta (p,), (c,) for (c, p)."""
        theta = np.asarray(theta, dtype=float)
        lp = np.where(self.box.inside(theta), 0.0, -np.inf)
        return lp if theta.ndim == 2 else float(lp)


def log_gen_posterior(theta, loss, prior: Prior, n: int):
    """Log generalised posterior up to an additive constant.

    ``theta`` is one point (p,), giving a float, or a batch (c, p), giving
    (c,). ``loss`` maps a batch (c, p) to (c,) and is called once, on the rows
    inside the prior's support; a non-finite loss gives -inf.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim < 2:
        return float(log_gen_posterior(np.atleast_1d(theta)[None], loss, prior, n)[0])
    if isinstance(prior, Prior) and prior.box.strictly_contains(theta):
        val = loss(theta)       # the uniform prior adds 0 strictly inside its box
        return np.where(np.isfinite(val), -n * val, -np.inf)
    lp = prior.log_density(theta)
    inside = np.isfinite(lp)
    if inside.any():
        val = loss(theta[inside])
        lp[inside] = np.where(np.isfinite(val), -n * val + lp[inside], -np.inf)
    return lp


@dataclass
class SamplerSettings:
    chains: int = 4
    iterations: int = 20_000
    thin: int = 4
    init: np.ndarray | None = None
    init_cov: np.ndarray | None = None

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


def prefetch_depth(chains: int) -> int:
    """Steps taken per loss call: the largest d, at most
    ``MAX_PREFETCH_DEPTH``, with chains * (2^d - 1) <= ``PREFETCH_ROWS``;
    1 (the plain step) when no d fits."""
    fits = (PREFETCH_ROWS // chains + 1).bit_length() - 1
    return min(MAX_PREFETCH_DEPTH, max(1, fits))


@cache
def walk_table(d: int) -> np.ndarray:
    """The walks of ``d`` steps through a pre-fetched tree, built on first use: uint8
    row k is the walk that accept bits k give (bit h - 1 for node h). Columns: the
    node after each step, the bit of the move each step considers, the accept count."""
    keys = np.arange(2 ** (2 ** d - 1), dtype=np.int16)     # small temporaries, d <= 4
    table = np.empty((keys.size, 2 * d + 1), np.uint8)
    at = np.zeros_like(keys)
    for j in range(d):
        table[:, d + j] = move = at + (1 << j) - 1        # node at + 2^j
        table[:, j] = at = at + (((keys >> move) & 1) << j)
    table[:, 2 * d] = np.count_nonzero(np.diff(table[:, :d], prepend=np.uint8(0)), axis=1)
    table.flags.writeable = False
    return table


def sample_posterior(loss, prior: Prior, n: int, seed: int = 0,
                     settings: SamplerSettings | None = None) -> PosteriorSample:
    """Adaptive random-walk Metropolis on the generalised posterior.

    ``loss`` maps a batch (c, p) to (c,) values, as the losses of
    ``calibration`` and ``scaling`` do: the chains advance in lockstep, and
    each loss call sees only proposals inside the prior, whose ``dim`` and
    ``log_density`` are all the sampler reads of it. Chain c draws its start
    jitter, all its proposal normals, then all its log-uniforms from a stream
    seeded by (seed, c), so results are reproducible and independent of the
    chain count. The proposal is x + s L z with L a Cholesky factor of
    ``init_cov`` (identity if absent) and each chain's s adapted by
    Robbins-Monro during burn-in only: every burn-in step adds its own
    acceptance-rate error, weighted (t + 1)^-0.6, to log s, and s takes the
    new value at the end of each block of ``ADAPT_BLOCK`` steps and of
    burn-in. The kept steps thus use one fixed kernel (Andrieu & Thoms, 2008).

    While s is frozen, one loss call evaluates every state the next
    ``prefetch_depth(chains)`` steps, at most to the end of the block, can
    propose (pre-fetching; Brockwell, 2006). All the tree's moves are decided at
    once, and ``walk_table`` reads each chain's walk from its accept bits. Each
    node is formed by the same addition as a plain step and a loss row does not
    depend on its batch, so the draws equal those of plain steps bit for bit,
    and the blocks do not depend on the chain count.
    """
    st = settings if settings is not None else SamplerSettings()
    p = prior.dim
    if st.init is None:
        raise ValueError("sampler needs an initial point (the loss minimiser)")
    init = np.atleast_1d(np.asarray(st.init, dtype=float))
    lp0 = log_gen_posterior(init, loss, prior, n)
    if not np.isfinite(lp0):
        raise ValueError("log posterior is not finite at the initial point")

    if st.init_cov is not None:
        cov = np.atleast_2d(np.asarray(st.init_cov, dtype=float))
        chol = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / p * np.eye(p))
    else:
        chol = np.eye(p)

    chains, iters = st.chains, st.iterations
    burn, depth = int(BURNIN_FRAC * iters), prefetch_depth(chains)
    # the tree of the next steps, row node * chains + chain: node 0 is the
    # chains' state, node h + 2^j is node h moved by step j's proposal
    nodes, lps = np.empty((2 ** depth, chains, p)), np.empty((2 ** depth, chains))
    steps = np.empty((iters, chains, p))     # L z, times s once its span starts
    log_u = np.empty((iters, chains))
    for c in range(chains):
        rng = np.random.default_rng([seed, c])
        nodes[0, c] = init + 0.01 * (chol @ rng.standard_normal(p))
        steps[:, c] = rng.standard_normal((iters, p)) @ chol.T
        log_u[:, c] = np.log(rng.random(iters))
    lps[0] = log_gen_posterior(nodes[0], loss, prior, n)
    stuck = ~np.isfinite(lps[0])
    nodes[0, stuck], lps[0, stuck] = init, lp0

    log_s = np.full(chains, np.log(2.38 / np.sqrt(p)))
    kept, accepted_post, t0 = np.empty((chains, st.kept_per_chain, p)), np.zeros(chains), 0
    rows, lp_rows = nodes.reshape(-1, p), lps.reshape(-1)
    halves = [(nodes[:2 ** j], nodes[2 ** j:2 ** (j + 1)]) for j in range(depth)]
    level = np.repeat(np.arange(depth), 1 << np.arange(depth))     # of nodes 1, 2, ...
    parent, bit = np.arange(1, 2 ** depth) - (1 << level), 1 << np.arange(2 ** depth - 1)
    node_row, ar = np.arange(2 ** depth) * chains, np.arange(chains)
    rate = np.array([(t + 1) ** 0.6 for t in range(burn)])
    while t0 < iters:
        # s is frozen until its block ends, for good after burn-in
        until = iters if t0 >= burn else min(t0 - t0 % ADAPT_BLOCK + ADAPT_BLOCK, burn)
        steps[t0:until] *= np.exp(log_s)[:, None]
        while t0 < until:
            d = min(depth, until - t0)
            m, top = 2 ** d, chains << d
            for (old, new), step in zip(halves[:d], steps[t0:]):
                np.add(old, step, out=new)
            lp_rows[chains:top] = log_gen_posterior(rows[chains:top], loss, prior, n)
            # every move at once, log u < 0 accepting every delta >= 0; no walk
            # leaves a parent at -inf, and the floor keeps -inf - -inf quiet
            delta = lps[1:m] - np.maximum(lps.take(parent[:m - 1], axis=0), LP_FLOOR)
            accept = log_u[t0:t0 + d].take(level[:m - 1], axis=0) < delta
            walk = walk_table(d).take(bit[:m - 1] @ accept, axis=0)
            # the rows of nodes (of delta) that each step moves to (considers)
            row = node_row.take(walk[:, :2 * d]) + ar[:, None]
            if t0 < burn:
                alpha = np.exp(np.minimum(delta.reshape(-1).take(row[:, d:]), 0.0))
                for inc in ((alpha - TARGET_ACCEPT) / rate[t0:t0 + d]).T:  # step by step
                    log_s += inc
            else:
                accepted_post += walk[:, 2 * d]
                j = (burn - t0) % st.thin       # the tree's first kept step
                if j < d:
                    at = row[:, j:d:st.thin]
                    k = (t0 + j - burn) // st.thin
                    kept[:, k:k + at.shape[1]] = rows.take(at, axis=0)
            nodes[0], lps[0] = rows.take(row[:, d - 1], axis=0), lp_rows.take(row[:, d - 1])
            t0 += d
    accept_rates = accepted_post / max(iters - burn, 1)

    rhat = split_rhat(kept) if chains >= 2 else np.full(p, np.nan)
    flags = []
    pooled = float(accept_rates.mean())
    if not ACCEPT_BAND[0] <= pooled <= ACCEPT_BAND[1]:
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
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
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
