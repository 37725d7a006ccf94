"""Loss functions and point estimation for model calibration.

Two losses are supported:

* the smoothed integrated squared-error loss
      l2(theta) = int_X (mu_hat(x) - eta(theta, x))^2 dx,
  evaluated by quadrature against a fitted smoother (or any callable mean);
* the ordinary least squares loss
      ols(theta) = mean_i (y_i - eta(theta, x_i))^2.

Both are weighted sums of squares, sum_i w_i (y_i - eta(theta, x_i))^2, so
one ``LossTerms`` object gives either loss, its gradient and its Hessian in
theta; a shared multistart Newton estimator minimises them over the
parameter box. ``StraightLine`` and the two functions after it hold the
closed forms of the straight-line model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .models import MathModel
from .numerics import QuadratureRule, minimize_box, minimize_boxes
from .smoother import Dataset, KernelSpec, SmootherFit, kernel_matrix


def _mu_at(mu_like, x: np.ndarray) -> np.ndarray:
    """Evaluate a SmootherFit or a plain callable mean at points x."""
    if isinstance(mu_like, SmootherFit):
        return mu_like.predict(x)
    if callable(mu_like):
        return np.asarray(mu_like(x), dtype=float).reshape(x.shape[0])
    raise TypeError("expected a SmootherFit or a callable mean function")


@dataclass(frozen=True)
class LossTerms:
    """A calibration loss  sum_i w_i (y_i - eta(theta, x_i))^2  with every
    theta-free piece computed once: points x, weights w and targets y.

    The l2 loss uses the quadrature nodes and weights and the smoothed mean
    at the nodes; the OLS loss uses the design, weights 1/n and the
    responses. ``value`` and ``grad_hess`` take one theta (p,) or a batch
    (c, p), and each batch row equals the single-theta call bit for bit;
    ``hess`` takes one theta. A target (P, m) holds P problems, one loss
    each: a batch then needs ``rows`` (c,), the problem of each theta row,
    and each row equals the one-problem call on that target row bit for bit.
    """

    model: MathModel
    points: np.ndarray
    weights: np.ndarray
    target: np.ndarray

    def _resid(self, theta, rows):
        target = self.target if rows is None else self.target[rows]
        return target - self.model.eta(theta, self.points)

    def value(self, theta, rows=None):
        """A float for one theta (p,), a (c,) array for a batch (c, p)."""
        theta = np.asarray(theta, dtype=float)
        resid = self._resid(theta, rows)
        val = (self.weights * resid * resid).sum(axis=-1)
        return float(val) if theta.ndim == 1 else val

    def hess(self, theta) -> np.ndarray:
        return self.grad_hess(theta)[1]

    def grad_hess(self, theta, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian from one residual and one grad_eta: (p,) and
        (p, p) for one theta, (c, p) and (c, p, p) for a batch (c, p).

        Stacked matmul and einsum repeat the single-theta BLAS calls and
        summation order on every row; a broadcast sum over the points for
        the curvature term would not."""
        theta = np.asarray(theta, dtype=float)
        g = self.model.grad_eta(theta, self.points)
        wr = self.weights * self._resid(theta, rows)
        h = self.model.hess_eta(theta, self.points)
        gt = np.swapaxes(g, -1, -2)
        gram = np.swapaxes(g * self.weights[:, None], -1, -2) @ g
        curve = np.einsum("...m,...mij->...ij", wr, h)
        return -2.0 * (gt @ wr[..., None])[..., 0], 2.0 * (gram - curve)


def l2_loss_terms(mu_like, model: MathModel, rule: QuadratureRule) -> LossTerms:
    """The l2 loss with the smoothed mean evaluated once at the nodes."""
    nodes = rule.nodes
    if not model.x_box.contains(nodes):
        raise ValueError("quadrature rule extends outside the model input box")
    return LossTerms(model, nodes, rule.weights, _mu_at(mu_like, nodes))


def ols_loss_terms(data: Dataset, model: MathModel) -> LossTerms:
    return LossTerms(model, data.design, np.full(data.n, 1.0 / data.n),
                     data.responses)


def l2_loss_fn(mu_like, model: MathModel, rule: QuadratureRule, *,
               terms: LossTerms | None = None):
    """Closure theta -> l2 loss (see ``LossTerms.value``); pass ``terms``
    to reuse an ``l2_loss_terms`` result."""
    if terms is None:
        terms = l2_loss_terms(mu_like, model, rule)
    return terms.value


def l2_loss_hess(theta, mu_like, model: MathModel, rule: QuadratureRule) -> np.ndarray:
    return l2_loss_terms(mu_like, model, rule).hess(theta)


def ols_loss_fn(data: Dataset, model: MathModel, *, terms: LossTerms | None = None):
    """Closure theta -> mean squared residual; ``terms`` as in ``l2_loss_fn``."""
    if terms is None:
        terms = ols_loss_terms(data, model)
    return terms.value


def ols_loss_hess(theta, data: Dataset, model: MathModel) -> np.ndarray:
    return ols_loss_terms(data, model).hess(theta)


@dataclass
class CalibrationEstimate:
    """Argmin of a calibration loss plus curvature information at it."""

    theta: np.ndarray
    value: float
    method: str
    hessian: np.ndarray
    converged: bool
    n_evals: int = 0        # loss points the minimiser used, over all starts
    best_start: int = 0     # the winning start; 0 is the box centre

    @property
    def n_params(self) -> int:
        return self.theta.size


def estimate_theta(source, model: MathModel, rule: QuadratureRule | None = None,
                   method: str = "l2", seed: int = 0,
                   n_starts: int = 10) -> CalibrationEstimate:
    """Minimise the chosen loss over the model's parameter box.

    ``source`` is a SmootherFit or callable mean for method "l2", and a
    Dataset (or a SmootherFit, whose data is used) for method "ols".
    """
    if method == "l2":
        if rule is None:
            raise ValueError("the l2 method needs a quadrature rule")
        terms = l2_loss_terms(source, model, rule)
        loss = l2_loss_fn(source, model, rule, terms=terms)
    elif method == "ols":
        data = source.data if isinstance(source, SmootherFit) else source
        if not isinstance(data, Dataset):
            raise TypeError("the ols method needs a Dataset or SmootherFit")
        terms = ols_loss_terms(data, model)
        loss = ols_loss_fn(data, model, terms=terms)
    else:
        raise ValueError(f"unknown method {method!r}; choose 'l2' or 'ols'")

    res = minimize_box(loss, terms.grad_hess, model.theta_box.lower,
                       model.theta_box.upper, seed=seed, n_starts=n_starts)
    return CalibrationEstimate(theta=res.x, value=res.value, method=method,
                               hessian=terms.hess(res.x), converged=res.converged,
                               n_evals=res.n_evals, best_start=res.best_start)


def estimate_many(sources, model: MathModel, rule: QuadratureRule, seeds,
                  n_starts: int = 10) -> list[CalibrationEstimate]:
    """``estimate_theta(source, model, rule, "l2", seed, n_starts)`` for each
    source and its seed, bit for bit, from one lockstep minimisation."""
    terms = [l2_loss_terms(s, model, rule) for s in sources]
    terms = replace(terms[0], target=np.stack([t.target for t in terms]))
    res = minimize_boxes(terms.value, terms.grad_hess, model.theta_box.lower,
                         model.theta_box.upper, seeds, n_starts)
    hess = terms.grad_hess(np.array([r.x for r in res]), np.arange(len(res)))[1]
    return [CalibrationEstimate(theta=r.x, value=r.value, method="l2", hessian=h,
                                converged=r.converged, n_evals=r.n_evals,
                                best_start=r.best_start) for r, h in zip(res, hess)]


class StraightLine:
    """Minimiser and sampling variance for eta(theta, x) = theta x on one input.

    With den = int x^2 dx, q = int x k(x, .) dx over the design and
    Phi = K + lam I = Q diag(d + lam) Q' (jitter folded into d), at fixed
    smoother settings
        theta_hat = q' Phi^-1 y / den = (Q'q) . (Q'y / (d + lam)) / den,
        var = sigma^2 ||Phi^-1 q||^2 / den^2 = sigma^2 ||Q'q / (d + lam)||^2 / den^2.
    Q'q depends on the bandwidth only, so a fixed design can cache it.
    """

    def __init__(self, rule: QuadratureRule):
        x = rule.nodes[:, 0]
        self.nodes = rule.nodes
        self.wx = rule.weights * x
        self.den = float(np.sum(self.wx * x))

    def qt_q(self, spec: KernelSpec, design, qmat) -> np.ndarray:
        """Q'q for one bandwidth, Q the eigenvectors of its kernel matrix."""
        return qmat.T @ (kernel_matrix(spec, self.nodes, design).T @ self.wx)

    def theta_hat(self, qt_q, z, d, lam):
        """The minimiser from Q'q, z = Q'y and the eigenvalues d: a float for
        one row (n,) and scalar lam, an (R,) array for rows (R, n) and lam
        (R,). A batch row equals the one-row call bit for bit."""
        w = z / (d + np.asarray(lam)[..., None])
        th = (qt_q[..., None, :] @ w[..., None])[..., 0, 0] / self.den
        return float(th) if th.ndim == 0 else th

    def variance(self, qt_q, d, lam, sigma2: float):
        """Sampling variance of ``theta_hat``; batches as ``theta_hat``."""
        s = np.sum((qt_q / (d + np.asarray(lam)[..., None])) ** 2, axis=-1)
        var = sigma2 * s / self.den**2
        return float(var) if var.ndim == 0 else var

    def fit_terms(self, fit: SmootherFit):
        """(Q'q, Q'y, d, lam) of a fitted smoother."""
        q = fit.eig_vectors
        return (self.qt_q(fit.kernel, fit.data.design, q), q.T @ fit.data.responses,
                fit.eig_values, fit.lam)


def matched_gamma(var: float, n: int, den: float, tau2: float) -> float:
    """The gamma with posterior variance (2 n gamma den + 1/tau2)^-1 = var."""
    return (1.0 / (2.0 * n * den)) * (1.0 / var - 1.0 / tau2)


def normal_posterior(theta_hat: float, n: int, gamma: float, den: float,
                     prior_prec: float) -> tuple[float, float]:
    """(precision, mean) of the straight-line posterior under the gamma-scaled
    loss and a N(0, 1/prior_prec) prior (prior_prec = 0: flat prior)."""
    loss_prec = 2.0 * n * gamma * den
    prec = loss_prec + prior_prec
    return prec, loss_prec * theta_hat / prec


def linear_theta_hat(fit: SmootherFit, rule: QuadratureRule) -> float:
    """Closed-form l2 minimiser int x mu_hat(x) dx / int x^2 dx for
    eta(theta, x) = theta x on one input (see ``StraightLine``)."""
    line = StraightLine(rule)
    return line.theta_hat(*line.fit_terms(fit))
