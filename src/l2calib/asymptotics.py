"""Sandwich covariance matrices for the calibration estimator.

With V the Hessian of the limiting loss at its minimiser, the estimator
satisfies theta_hat ~ N(theta_star, V^-1 W V^-1) where the middle matrix W
depends on the sampling frame:

* marginal over a uniform random design:
      W = (4 sigma^2 / (n vol(X))) int grad_eta grad_eta^T dx
* marginal, least squares loss: the same W plus a discrepancy inflation
      W_E = (4 / (n vol(X))) int (mu - eta)^2 grad_eta grad_eta^T dx
* conditional on the observed design and smoother settings, via the
  smoother weight rows g(x) (mu_hat(x) = g(x) . y):
      derived form   W = 4 sigma^2 J J^T,   J = int grad_eta(x) g(x)^T dx
      literal form   W = 4 sigma^2 int grad_eta grad_eta^T ||g(x)||^2 dx

The derived conditional form is exact for linear smoothers: J y has the
covariance of the loss gradient, so V^-1 W V^-1 reproduces the closed-form
variance of the estimator at fixed smoother settings. The literal form
collapses the double integral to a single one and is kept for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationEstimate
from .models import MathModel
from .numerics import QuadratureRule, check_definite
from .smoother import SmootherFit

CONDITIONAL_FORMS = ("derived", "literal")


class SingularCurvatureError(ValueError):
    """Raised when the loss Hessian at the estimate is not positive definite."""


@dataclass(frozen=True)
class SandwichMatrices:
    """Curvature V, score-variance W, optional ls inflation W_E."""

    V: np.ndarray
    W: np.ndarray
    variant: str
    n: int
    sigma2: float
    W_E: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return self.V.shape[0]

    def w_total(self) -> np.ndarray:
        return self.W if self.W_E is None else self.W + self.W_E


def _not_psd(what: str):
    return lambda eig: ValueError(f"{what} is not positive semidefinite; eigenvalues {eig}")


def _preamble(est: CalibrationEstimate, fit: SmootherFit) -> tuple[np.ndarray, float, int]:
    """(V, sigma2, n) every sandwich starts from: the loss Hessian at the
    estimate, checked positive definite, and the fit's noise estimate, checked
    finite and non-negative."""
    v = check_definite(est.hessian, lambda eig: SingularCurvatureError(
        f"loss Hessian at the estimate is not positive definite; eigenvalues {eig}"))
    s2 = fit.sigma2_hat
    if not np.isfinite(s2) or s2 < 0:
        raise ValueError(f"invalid noise variance {s2}")
    return v, s2, fit.data.n


def _weighted_gram(model: MathModel, theta: np.ndarray,
                   rule: QuadratureRule, extra: np.ndarray | None = None) -> np.ndarray:
    g = model.grad_eta(theta, rule.nodes)
    w = rule.weights if extra is None else rule.weights * extra
    return (g * w[:, None]).T @ g


def marginal_matrices(est: CalibrationEstimate, fit: SmootherFit, model: MathModel,
                      rule: QuadratureRule) -> SandwichMatrices:
    """Design-marginal sandwich for the l2 estimator."""
    v, s2, n = _preamble(est, fit)
    scale = 4.0 * s2 / (n * model.x_box.volume)
    w = check_definite(scale * _weighted_gram(model, est.theta, rule), _not_psd("W"), semi=True)
    return SandwichMatrices(V=v, W=w, variant="marginal", n=n, sigma2=s2)


def ols_matrices(est: CalibrationEstimate, fit: SmootherFit, model: MathModel,
                 rule: QuadratureRule) -> SandwichMatrices:
    """Design-marginal sandwich for the least squares estimator.

    The middle matrix gains a positive semidefinite discrepancy term driven
    by (mu - eta)^2; mu is taken from the smoothed mean.
    """
    if est.method != "ols":
        raise ValueError("ols_matrices expects an estimate fitted with method 'ols'")
    v, s2, n = _preamble(est, fit)
    scale = 4.0 / (n * model.x_box.volume)
    w = s2 * scale * _weighted_gram(model, est.theta, rule)
    bias2 = (fit.predict(rule.nodes) - model.eta(est.theta, rule.nodes)) ** 2
    w_e = scale * _weighted_gram(model, est.theta, rule, extra=bias2)
    return SandwichMatrices(V=v, W=check_definite(w, _not_psd("W"), semi=True), variant="ols",
                            n=n, sigma2=s2, W_E=check_definite(w_e, _not_psd("W_E"), semi=True))


def conditional_matrices(est: CalibrationEstimate, fit: SmootherFit, model: MathModel,
                         rule: QuadratureRule, form: str = "derived") -> SandwichMatrices:
    """Design-conditional sandwich at the fitted smoother settings."""
    if form not in CONDITIONAL_FORMS:
        raise ValueError(f"unknown conditional form {form!r}; choose from {CONDITIONAL_FORMS}")
    v, s2, n = _preamble(est, fit)
    g_nodes = fit.weights(rule.nodes)              # (m, n)
    grad = model.grad_eta(est.theta, rule.nodes)   # (m, p)
    if form == "derived":
        j = (grad * rule.weights[:, None]).T @ g_nodes  # (p, n)
        w = 4.0 * s2 * (j @ j.T)
    else:
        gnorm2 = np.sum(g_nodes * g_nodes, axis=1)
        w = 4.0 * s2 * _weighted_gram(model, est.theta, rule, extra=gnorm2)
    return SandwichMatrices(V=v, W=check_definite(w, _not_psd("W"), semi=True),
                            variant=f"conditional-{form}", n=n, sigma2=s2)
