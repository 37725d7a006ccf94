"""Loss functions and point estimation for model calibration.

Two losses are supported:

* the smoothed integrated squared-error loss
      l2(theta) = int_X (mu_hat(x) - eta(theta, x))^2 dx,
  evaluated by quadrature against a fitted smoother (or any callable mean);
* the ordinary least squares loss
      ols(theta) = mean_i (y_i - eta(theta, x_i))^2.

Both come with analytic gradients and Hessians in theta, and a shared
multistart estimator that minimises them over the parameter box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MathModel
from .numerics import QuadratureRule, minimize_box
from .smoother import Dataset, SmootherFit


def _mu_at(mu_like, x: np.ndarray) -> np.ndarray:
    """Evaluate a SmootherFit or a plain callable mean at points x."""
    if isinstance(mu_like, SmootherFit):
        return mu_like.predict(x)
    if callable(mu_like):
        return np.asarray(mu_like(x), dtype=float).reshape(x.shape[0])
    raise TypeError("expected a SmootherFit or a callable mean function")


def l2_loss_terms(mu_like, model: MathModel, rule: QuadratureRule):
    """Precompute (nodes, weights, mu values) for repeated loss evaluation."""
    nodes = rule.nodes
    if not model.x_box.contains(nodes):
        raise ValueError("quadrature rule extends outside the model input box")
    return nodes, rule.weights, _mu_at(mu_like, nodes)


def l2_loss_fn(mu_like, model: MathModel, rule: QuadratureRule):
    """Closure theta -> l2 loss, with the smoothed mean evaluated once: a
    float for one theta (p,), a (c,) array for a batch (c, p)."""
    nodes, w, mu = l2_loss_terms(mu_like, model, rule)

    def loss(theta):
        theta = np.asarray(theta, dtype=float)
        resid = mu - model.eta(theta, nodes)
        val = (w * resid * resid).sum(axis=-1)
        return float(val) if theta.ndim == 1 else val

    return loss


def l2_loss(theta, mu_like, model: MathModel, rule: QuadratureRule) -> float:
    return l2_loss_fn(mu_like, model, rule)(theta)


def l2_loss_grad(theta, mu_like, model: MathModel, rule: QuadratureRule) -> np.ndarray:
    nodes, w, mu = l2_loss_terms(mu_like, model, rule)
    theta = np.asarray(theta, dtype=float)
    resid = mu - model.eta(theta, nodes)
    g = model.grad_eta(theta, nodes)
    return -2.0 * g.T @ (w * resid)


def l2_loss_hess(theta, mu_like, model: MathModel, rule: QuadratureRule) -> np.ndarray:
    nodes, w, mu = l2_loss_terms(mu_like, model, rule)
    theta = np.asarray(theta, dtype=float)
    resid = mu - model.eta(theta, nodes)
    g = model.grad_eta(theta, nodes)
    h = model.hess_eta(theta, nodes)
    gram = (g * w[:, None]).T @ g
    curve = np.einsum("m,mij->ij", w * resid, h)
    return 2.0 * (gram - curve)


def ols_loss_fn(data: Dataset, model: MathModel):
    x, y = data.design, data.responses

    def loss(theta):
        theta = np.asarray(theta, dtype=float)
        r = y - model.eta(theta, x)
        return float(np.mean(r * r))

    return loss


def ols_loss(theta, data: Dataset, model: MathModel) -> float:
    return ols_loss_fn(data, model)(theta)


def ols_loss_grad(theta, data: Dataset, model: MathModel) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    r = data.responses - model.eta(theta, data.design)
    g = model.grad_eta(theta, data.design)
    return (-2.0 / data.n) * g.T @ r


def ols_loss_hess(theta, data: Dataset, model: MathModel) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    r = data.responses - model.eta(theta, data.design)
    g = model.grad_eta(theta, data.design)
    h = model.hess_eta(theta, data.design)
    gram = g.T @ g
    curve = np.einsum("m,mij->ij", r, h)
    return (2.0 / data.n) * (gram - curve)


@dataclass
class CalibrationEstimate:
    """Argmin of a calibration loss plus curvature information at it."""

    theta: np.ndarray
    value: float
    method: str
    hessian: np.ndarray
    converged: bool
    n_starts: int

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
        loss = l2_loss_fn(source, model, rule)
        hess = lambda th: l2_loss_hess(th, source, model, rule)
    elif method == "ols":
        data = source.data if isinstance(source, SmootherFit) else source
        if not isinstance(data, Dataset):
            raise TypeError("the ols method needs a Dataset or SmootherFit")
        loss = ols_loss_fn(data, model)
        hess = lambda th: ols_loss_hess(th, data, model)
    else:
        raise ValueError(f"unknown method {method!r}; choose 'l2' or 'ols'")

    res = minimize_box(loss, model.theta_box.lower, model.theta_box.upper,
                       seed=seed, n_starts=n_starts)
    return CalibrationEstimate(theta=res.x, value=res.value, method=method,
                               hessian=hess(res.x), converged=res.converged,
                               n_starts=res.n_starts)


def linear_theta_hat(fit: SmootherFit, rule: QuadratureRule) -> float:
    """Closed-form minimiser for scalar_linear models on one input.

    For eta(theta, x) = theta x the l2 loss is quadratic in theta with
    unconstrained minimiser  int x mu_hat(x) dx / int x^2 dx.
    """
    x = rule.nodes[:, 0]
    num = float(np.sum(rule.weights * x * fit.predict(rule.nodes)))
    den = float(np.sum(rule.weights * x * x))
    return num / den
