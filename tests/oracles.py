"""Reference implementations the tests check the package against.

None of these is part of the calibration pipeline: each is a slower or more
direct restatement of a quantity the pipeline computes another way (finite
differences, a grid search, a closed form), or a helper that only tests need.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from l2calib.asymptotics import SandwichMatrices
from l2calib.calibration import StraightLine, l2_loss_fn, matched_gamma
from l2calib.models import MathModel, make_scenario
from l2calib.numerics import DEFAULT_QUAD_ORDER, QuadratureRule, blas_threads, build_rule
from l2calib.scaling import ScalingError
from l2calib.smoother import (JITTER, ONE_BLAS_THREAD_BELOW, Dataset, KernelSpec,
                              SmootherFit, kernel_matrix)


def validate_derivatives(model: MathModel, seed: int = 0, n_points: int = 100,
                         rel_tol: float = 1e-5) -> dict:
    """Central finite-difference check of grad_eta and hess_eta.

    Returns the worst relative errors seen over random (theta, x) draws and
    raises ValueError if either exceeds ``rel_tol``.
    """
    rng = np.random.default_rng(seed)
    tb, xb = model.theta_box, model.x_box
    p = tb.dim
    worst_g, worst_h = 0.0, 0.0
    h = np.cbrt(np.finfo(float).eps)
    for _ in range(n_points):
        # stay away from the box faces so central steps remain inside
        theta = tb.lower + (0.1 + 0.8 * rng.random(p)) * (tb.upper - tb.lower)
        x = xb.lower + rng.random(xb.dim) * (xb.upper - xb.lower)
        x = x.reshape(1, -1)
        g = model.grad_eta(theta, x).reshape(p)
        hmat = model.hess_eta(theta, x).reshape(p, p)
        scale = np.maximum(np.abs(theta), 1.0)
        for j in range(p):
            dj = np.zeros(p)
            dj[j] = h * scale[j]
            fp = float(model.eta(theta + dj, x)[0])
            fm = float(model.eta(theta - dj, x)[0])
            g_fd = (fp - fm) / (2 * dj[j])
            denom = max(abs(g[j]), 1e-8)
            worst_g = max(worst_g, abs(g_fd - g[j]) / denom)
            gp = model.grad_eta(theta + dj, x).reshape(p)
            gm = model.grad_eta(theta - dj, x).reshape(p)
            h_fd = (gp - gm) / (2 * dj[j])
            denom = np.maximum(np.abs(hmat[:, j]), 1e-8)
            worst_h = max(worst_h, float(np.max(np.abs(h_fd - hmat[:, j]) / denom)))
    report = {"max_grad_rel_err": worst_g, "max_hess_rel_err": worst_h}
    if worst_g > rel_tol or worst_h > rel_tol:
        raise ValueError(f"analytic derivatives disagree with finite differences: {report}")
    return report


def brute_force_theta(scenario: str, quad_order: int = DEFAULT_QUAD_ORDER,
                      grid_size: int = 20001) -> np.ndarray:
    """Grid-search oracle for one-parameter scenarios, used as a cross-check."""
    model, system, _ = make_scenario(scenario)
    if model.n_params != 1:
        raise ValueError("grid oracle only supports one-parameter scenarios")
    rule = build_rule(model.x_box.lower, model.x_box.upper, quad_order)
    loss = l2_loss_fn(system.mu, model, rule)
    grid = np.linspace(model.theta_box.lower[0], model.theta_box.upper[0], grid_size)
    vals = np.array([loss(np.array([t])) for t in grid])
    return np.array([grid[int(np.argmin(vals))]])


def batch_mcse(x: np.ndarray, n_batches: int = 50) -> float:
    """Batch-means Monte Carlo standard error of the mean of a chain."""
    x = np.asarray(x, dtype=float)
    m = x.size // n_batches
    if m < 2:
        raise ValueError("chain too short for the requested number of batches")
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def variance_matching_gamma(fit: SmootherFit, model: MathModel, rule: QuadratureRule,
                            tau2: float, sigma2=None) -> float:
    """Scalar gamma equating posterior and sampling variance, eta = theta x.

    With a N(0, tau2) prior the posterior variance under the gamma-scaled
    loss is (2 n gamma int x^2 dx + 1/tau2)^-1; gamma makes it equal the
    estimator's sampling variance (``linear_estimator_variance``).
    """
    if not model.scalar_linear:
        raise ScalingError("variance matching is defined for scalar linear models only")
    if tau2 <= 0:
        raise ScalingError("prior variance tau2 must be positive")
    var = linear_estimator_variance(fit, rule, sigma2)
    if var >= tau2:
        raise ScalingError(
            f"estimator variance {var:.3g} is not below the prior variance {tau2:.3g}; "
            "variance matching undefined")
    return matched_gamma(var, fit.data.n, StraightLine(rule).den, tau2)


def linear_estimator_variance(fit: SmootherFit, rule: QuadratureRule,
                              sigma2=None) -> float:
    """Sampling variance of the straight-line estimator at fixed smoother
    settings; sigma2 defaults to the fit's noise estimate."""
    s2 = fit.sigma2_hat if sigma2 is None else float(sigma2)
    line = StraightLine(rule)
    qt_q, _, d, lam = line.fit_terms(fit)
    return line.variance(qt_q, d, lam, s2)


def write_dataset_csv(path, data: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.k)] + ["y"])
        for xi, yi in zip(data.design, data.responses):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def estimator_cov(sw: SandwichMatrices) -> np.ndarray:
    """V^-1 W V^-1 with the total middle matrix."""
    vinv_w = np.linalg.solve(sw.V, sw.w_total())
    return np.linalg.solve(sw.V, vinv_w.T).T


def kernel_eigh(spec: KernelSpec, design: np.ndarray):
    """(d, q), the eigenpairs of the jittered K + JITTER I of one bandwidth, from
    its own ``eigh`` call, on one BLAS thread below ONE_BLAS_THREAD_BELOW points."""
    n = len(design)
    with blas_threads(1) if n < ONE_BLAS_THREAD_BELOW else nullcontext():
        return np.linalg.eigh(kernel_matrix(spec, design, design) + JITTER * np.eye(n))


def fit_smoother_fixed(data: Dataset, kernel: KernelSpec, lam: float) -> SmootherFit:
    """Fit the smoother at fixed (kernel, lam), no selection step.

    States the GCV formulas directly: rss = ||(I - A) y||^2 and trm = tr(I - A)
    from the eigenpairs, the score n rss / trm^2 (inf where trm < 1e-12), and a
    noise estimate of the same n rss / trm^2 with trm floored at 1e-12. Unlike
    ``GcvGrid`` it accepts lam = 0.
    """
    if lam < 0:
        raise ValueError("ridge parameter must be nonnegative")
    n = data.n
    d, q = kernel_eigh(kernel, data.design)
    z = q.T @ data.responses
    shr = lam / (d + lam)
    rss = float(np.sum((shr * z) ** 2))
    trm = float(np.sum(shr))
    # t * t, not t ** 2: a float power goes through libm pow, which can miss the
    # correctly rounded square that GcvGrid's array arithmetic gives by one ulp
    t = max(trm, 1e-12)
    sigma2 = n * rss / (t * t)
    return SmootherFit(data=data, kernel=kernel, lam=float(lam), coef=q @ (z / (d + lam)),
                       sigma2_hat=sigma2, trace_hat=n - trm,
                       gcv_value=np.inf if trm < 1e-12 else sigma2,
                       flags=("degenerate-smoother",) if trm < 1e-6 * n else (),
                       eig_values=d, eig_vectors=q)


@dataclass(frozen=True)
class NormalPrior:
    """Independent normal prior N(mean, diag(var)), for closed-form checks of
    the sampler, which reads a prior's ``log_density`` only."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if mean.shape != var.shape or np.any(var <= 0):
            raise ValueError("normal prior needs matching mean/var with var > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    def log_density(self, theta):
        """Log density up to a constant: float for theta (p,), (c,) for (c, p)."""
        theta = np.asarray(theta, dtype=float)
        d = theta - self.mean
        lp = -0.5 * (d * d / self.var).sum(axis=-1)
        return lp if theta.ndim == 2 else float(lp)
