"""Loss scalings that calibrate the spread of the generalised posterior.

Raw generalised posteriors exp(-n loss) ignore the sandwich structure of the
estimator and can be badly over- or under-dispersed. Two repairs:

* magnitude: multiply the loss by the scalar
      gamma = p / (n tr(V^-1 W)),
  which matches the expected scaled deviance at the loss minimiser to its
  degrees of freedom;
* curvature: remap the loss argument through a matrix Gamma chosen so the
  large-sample posterior covariance (n Gamma^T V Gamma)^-1 equals the
  estimator covariance V^-1 W V^-1. That requires
      Gamma^T V Gamma = V (n W)^-1 V,
  solved with symmetric PSD factors: Gamma = F1^-1 F2 where F1^T F1 = V and
  F2^T F2 = V (n W)^-1 V. For one parameter the two repairs coincide:
  Gamma^2 = gamma = V / (n W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import SandwichMatrices
from .models import DomainBox
from .numerics import check_definite, sym_psd_factor


class ScalingError(ValueError):
    """Raised when a requested scaling is undefined for the given matrices."""


@dataclass(frozen=True)
class ScalingAdjustment:
    """A resolved loss adjustment.

    kind    : "none", "magnitude" or "curvature"
    gamma   : scalar multiplier (magnitude; 1.0 otherwise)
    Gamma   : (p, p) argument remap (curvature; None otherwise)
    anchor  : expansion point for the curvature remap
    """

    kind: str
    gamma: float = 1.0
    Gamma: np.ndarray | None = None
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "magnitude", "curvature"):
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        if self.kind == "magnitude" and not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ScalingError(f"magnitude scaling needs a positive gamma, got {self.gamma}")
        if self.kind == "curvature":
            if self.Gamma is None or self.anchor is None:
                raise ScalingError("curvature scaling needs Gamma and an anchor point")

    @property
    def scalar_gamma(self) -> float:
        """Loss multiplier of a one-parameter model: gamma, or Gamma^2 under curvature."""
        return self.gamma if self.Gamma is None else float(self.Gamma[0, 0]) ** 2


def no_scaling() -> ScalingAdjustment:
    return ScalingAdjustment(kind="none")


def fixed_gamma(gamma: float) -> ScalingAdjustment:
    return ScalingAdjustment(kind="magnitude", gamma=float(gamma))


def magnitude_gamma(sw: SandwichMatrices) -> float:
    """gamma = p / (n tr(V^-1 W))."""
    t = float(np.trace(np.linalg.solve(sw.V, sw.w_total())))
    if not np.isfinite(t) or t <= 0:
        raise ScalingError(f"tr(V^-1 W) = {t}; magnitude scaling undefined")
    return sw.n_params / (sw.n * t)


def magnitude_adjustment(sw: SandwichMatrices) -> ScalingAdjustment:
    return ScalingAdjustment(kind="magnitude", gamma=magnitude_gamma(sw))


def curvature_adjustment(sw: SandwichMatrices, anchor) -> ScalingAdjustment:
    """Matrix remap with Gamma^T V Gamma = V (n W)^-1 V."""
    anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
    w = sw.w_total()
    check_definite(w, lambda _: ScalingError(
        "W is singular; curvature scaling undefined, use magnitude scaling instead"))
    target = sw.V @ np.linalg.solve(sw.n * w, sw.V)
    f2 = sym_psd_factor(0.5 * (target + target.T))
    f1 = sym_psd_factor(sw.V)
    gamma_mat = np.linalg.solve(f1, f2)
    return ScalingAdjustment(kind="curvature", Gamma=gamma_mat, anchor=anchor)


def scaled_loss(adj: ScalingAdjustment, base_loss, theta_box: DomainBox | None = None):
    """Wrap a loss callable according to the adjustment.

    Curvature remaps theta -> anchor + Gamma (theta - anchor); arguments that
    land outside ``theta_box`` are evaluated at the box projection plus a
    quadratic overshoot penalty so the wrapped loss stays finite and repels
    samplers from the rim. Every kind takes one theta (p,) or a batch (c, p),
    remapped and penalised row by row, as ``base_loss`` does.
    """
    if adj.kind == "none":
        return base_loss
    if adj.kind == "magnitude":
        g = adj.gamma
        return lambda theta: g * base_loss(theta)
    if theta_box is None:
        raise ScalingError("curvature-scaled loss needs the parameter box")
    gamma_mat, anchor = adj.Gamma, adj.anchor

    def loss(theta):
        theta = np.asarray(theta, dtype=float)
        # row-wise products and sums, so a batch row equals the single theta
        mapped = anchor + (gamma_mat * (theta - anchor)[..., None, :]).sum(axis=-1)
        if theta_box.strictly_contains(mapped):
            return base_loss(mapped)    # clipping is the identity, no penalty
        proj = theta_box.clip(mapped)
        over = mapped - proj
        pen = (over * over).sum(axis=-1)
        base = base_loss(proj)
        outside = pen > 0.0
        if outside.any():
            # rows inside the box keep base, even where base is not finite
            base = base + pen * 1e3 * (1.0 + np.abs(np.where(outside, base, 0.0)))
        return base

    return loss

