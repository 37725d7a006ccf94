"""Mathematical models, physical systems, and the built-in test scenarios.

A MathModel is a cheap deterministic simulator eta(theta, x) with analytic
first and second derivatives in theta. A PhysicalSystem is the data
generating truth: a mean function, a noise level and a design rule. Both
are plain containers; all statistics live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BOX_ATOL = 1e-12    # how far outside its faces a point still counts as inside a box


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box with float64 bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if np.any(hi <= lo):
            raise ValueError("box must have strictly positive side lengths")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def inside(self, x):
        """Membership of each point, within BOX_ATOL: a bool for x of shape
        (dim,), (c,) for (c, dim)."""
        x = np.asarray(x, dtype=float)
        return ((x >= self.lower - BOX_ATOL) & (x <= self.upper + BOX_ATOL)).all(axis=-1)

    def contains(self, x) -> bool:
        return bool(np.all(self.inside(x)))

    def strictly_contains(self, x) -> bool:
        """Whether every point of x lies strictly inside the box, with no tolerance."""
        n = np.size(x)      # count_nonzero skips .all()'s Python-level dispatch
        return bool(np.count_nonzero(x > self.lower) == n == np.count_nonzero(x < self.upper))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce x to an (m, dim) array of points."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        # a single point if it has the right length, else a column of scalars
        x = x.reshape(1, -1) if x.size == dim and dim > 1 else x.reshape(-1, dim)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class MathModel:
    """Simulator with analytic theta-derivatives.

    eta(theta, x)      -> (m,) model output at each row of x
    grad_eta(theta, x) -> (m, p) gradient in theta
    hess_eta(theta, x) -> (m, p, p) Hessian in theta

    Each also takes a batch theta of shape (c, p) and then returns one
    leading row per theta, (c, m), (c, m, p) and (c, m, p, p), equal bit for
    bit to the single-theta call on that row.

    ``scalar_linear`` marks single-parameter models of the form
    eta(theta, x) = theta * x, for which closed-form shortcuts exist.
    """

    name: str
    theta_box: DomainBox
    x_box: DomainBox
    eta: Callable = field(repr=False)
    grad_eta: Callable = field(repr=False)
    hess_eta: Callable = field(repr=False)
    scalar_linear: bool = False

    @property
    def n_params(self) -> int:
        return self.theta_box.dim


@dataclass(frozen=True)
class DesignRule:
    """How field data sites are placed: iid uniform or equidistant on [a, b]."""

    kind: str  # "uniform" or "equidistant"
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.kind not in ("uniform", "equidistant"):
            raise ValueError(f"unknown design rule {self.kind!r}")
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.kind == "equidistant" and lo.size != 1:
            raise ValueError("equidistant designs are defined for one input only")

    def points(self, n: int, rng=None) -> np.ndarray:
        """n sites (n, k): iid uniform ones drawn from ``rng``, or the
        equidistant ones, which need no generator."""
        if self.kind == "uniform":
            return self.lower + rng.random((n, self.lower.size)) * (self.upper - self.lower)
        return np.linspace(self.lower[0], self.upper[0], n).reshape(-1, 1)


@dataclass(frozen=True)
class PhysicalSystem:
    """True process: mean function, Gaussian noise level, and a design rule."""

    name: str
    mu: Callable = field(repr=False)
    sigma: float = 0.0
    design: DesignRule | None = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _coords(theta):
    """Scalars for one theta (p,); (c, 1) columns for a batch (c, p), so eta is (c, m)."""
    return theta.T[..., None] if theta.ndim == 2 else theta


def _linear_model(name: str, theta_lo: float, theta_hi: float) -> MathModel:
    def eta(theta, x):
        pts = _as_points(x, 1)
        return _coords(theta)[0] * pts[:, 0]

    def grad(theta, x):
        pts = _as_points(x, 1)
        return np.broadcast_to(pts, theta.shape[:-1] + pts.shape)

    def hess(theta, x):
        pts = _as_points(x, 1)
        return np.zeros(theta.shape[:-1] + pts.shape + (1,))

    return MathModel(
        name=name,
        theta_box=DomainBox(np.array([theta_lo]), np.array([theta_hi])),
        x_box=DomainBox(np.array([0.0]), np.array([1.0])),
        eta=eta, grad_eta=grad, hess_eta=hess, scalar_linear=True,
    )


def _wiggly_line_mu(pts):
    x = pts[:, 0]
    return 4.0 * x + x * np.sin(5.0 * x)


def _make_simple_linear():
    # single-parameter straight-line model against a gently oscillating truth
    model = _linear_model("simple-linear", -10.0, 10.0)
    system = PhysicalSystem(
        name="simple-linear",
        mu=_wiggly_line_mu,
        sigma=0.25,
        design=DesignRule("equidistant", np.array([0.0]), np.array([1.0])),
    )
    return model, system, {"n": 8}


def _make_scenario1():
    two_pi = 2.0 * np.pi

    def eta(theta, x):
        pts = _as_points(x, 1)
        th = _coords(theta)
        a = np.sin(two_pi * th[0] - np.pi)
        b = two_pi * th[1] - np.pi
        return 7.0 * a * a + 2.0 * b * b * np.sin(two_pi * pts[:, 0] - np.pi)

    def grad(theta, x):
        pts = _as_points(x, 1)
        th = _coords(theta)
        u = two_pi * th[0] - np.pi
        b = two_pi * th[1] - np.pi
        s = np.sin(two_pi * pts[:, 0] - np.pi)
        g = np.empty(theta.shape[:-1] + (pts.shape[0], 2))
        g[..., 0] = 14.0 * two_pi * np.sin(u) * np.cos(u)
        g[..., 1] = 4.0 * two_pi * b * s
        return g

    def hess(theta, x):
        pts = _as_points(x, 1)
        u = two_pi * _coords(theta)[0] - np.pi
        s = np.sin(two_pi * pts[:, 0] - np.pi)
        h = np.zeros(theta.shape[:-1] + (pts.shape[0], 2, 2))
        h[..., 0, 0] = 14.0 * two_pi**2 * np.cos(2.0 * u)
        h[..., 1, 1] = 4.0 * two_pi**2 * s
        return h

    theta0 = np.array([0.2, 0.3])
    model = MathModel(
        name="scenario1",
        theta_box=DomainBox(np.array([0.0, 0.0]), np.array([0.25, 0.5])),
        x_box=DomainBox(np.array([0.0]), np.array([1.0])),
        eta=eta, grad_eta=grad, hess_eta=hess,
    )
    system = PhysicalSystem(
        name="scenario1",
        mu=lambda pts: eta(theta0, pts),  # no structural discrepancy
        sigma=0.2,
        design=DesignRule("uniform", np.array([0.0]), np.array([1.0])),
    )
    return model, system, {"n": 50, "theta0": theta0}


def _make_scenario2():
    def eta(theta, x):
        pts = _as_points(x, 1)
        return np.sin(5.0 * _coords(theta)[0] * pts[:, 0]) + 5.0 * pts[:, 0]

    def grad(theta, x):
        pts = _as_points(x, 1)
        x0 = pts[:, 0]
        return (5.0 * x0 * np.cos(5.0 * _coords(theta)[0] * x0))[..., None]

    def hess(theta, x):
        pts = _as_points(x, 1)
        x0 = pts[:, 0]
        return (-25.0 * x0 ** 2 * np.sin(5.0 * _coords(theta)[0] * x0))[..., None, None]

    model = MathModel(
        name="scenario2",
        theta_box=DomainBox(np.array([0.0]), np.array([3.0])),
        x_box=DomainBox(np.array([0.0]), np.array([1.0])),
        eta=eta, grad_eta=grad, hess_eta=hess,
    )
    system = PhysicalSystem(
        name="scenario2",
        mu=lambda pts: 5.0 * pts[:, 0] * np.cos(7.5 * pts[:, 0]) + 5.0 * pts[:, 0],
        sigma=0.2,
        design=DesignRule("equidistant", np.array([0.0]), np.array([1.0])),
    )
    return model, system, {"n": 30}


def _make_scenario3():
    # straight-line model, data observed only on the left part of the domain
    model = _linear_model("scenario3", 2.0, 4.0)
    system = PhysicalSystem(
        name="scenario3",
        mu=_wiggly_line_mu,
        sigma=0.02,
        design=DesignRule("equidistant", np.array([0.0]), np.array([0.8])),
    )
    return model, system, {"n": 17}


_SCENARIOS = {
    "simple-linear": _make_simple_linear,
    "scenario1": _make_scenario1,
    "scenario2": _make_scenario2,
    "scenario3": _make_scenario3,
}

SCENARIO_NAMES = tuple(sorted(_SCENARIOS))


def make_scenario(name: str):
    """Return (model, system, defaults) for a named scenario.

    defaults carries the conventional sample size under key "n", and under
    "theta0" the parameter at which the model is the truth, where there is one.
    """
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        ) from None
    return factory()
