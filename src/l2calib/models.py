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


@dataclass(frozen=True)
class MathModel:
    """Simulator with analytic theta-derivatives.

    Every x is an (m, k) array of points, k = ``x_box.dim``; no other shape is coerced.

    eta(theta, x)      -> (m,) model output at each row of x
    grad_eta(theta, x) -> (m, p) gradient in theta
    hess_eta(theta, x) -> (m, p, p) Hessian in theta

    Each also takes a batch theta of shape (c, p) and then returns one
    leading row per theta, (c, m), (c, m, p) and (c, m, p, p), equal bit for
    bit to the single-theta call on that row.

    ``scalar_linear`` marks single-parameter models of the form
    eta(theta, x) = theta * x, for which closed-form shortcuts exist.
    A feature-linear model also sets ``features(x)`` (m, J) and ``coefs(theta)`` (J,)
    or (c, J), and builds eta = sum_j coefs_j features_j from them: clear both to replace it.
    """

    name: str
    theta_box: DomainBox
    x_box: DomainBox
    eta: Callable = field(repr=False)
    grad_eta: Callable = field(repr=False)
    hess_eta: Callable = field(repr=False)
    scalar_linear: bool = False
    features: Callable | None = field(default=None, repr=False)
    coefs: Callable | None = field(default=None, repr=False)

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

def _line_scenario(name: str, *, theta_box, sigma: float, design_upper: float, n: int):
    """The straight line eta = theta x against the truth 4x + x sin 5x, observed on an
    equidistant design over [0, design_upper]."""
    def eta(theta, x):
        return theta[..., :1] * x[:, 0]

    def grad(theta, x):
        return np.broadcast_to(x, theta.shape[:-1] + x.shape)

    def hess(theta, x):
        return np.zeros(theta.shape[:-1] + x.shape + (1,))

    model = MathModel(
        name=name, theta_box=DomainBox(*theta_box), x_box=DomainBox(0.0, 1.0),
        eta=eta, grad_eta=grad, hess_eta=hess, scalar_linear=True,
        features=lambda x: x, coefs=lambda theta: theta,
    )
    system = PhysicalSystem(
        name=name,
        mu=lambda pts: 4.0 * pts[:, 0] + pts[:, 0] * np.sin(5.0 * pts[:, 0]),
        sigma=sigma,
        design=DesignRule("equidistant", 0.0, design_upper),
    )
    return model, system, {"n": n}


def _make_scenario1():
    two_pi, pi = 2.0 * np.pi, np.pi

    def wave(x):        # the theta-free factor of eta
        return np.sin(two_pi * x[:, 0] - pi)

    def coefs(theta):   # the coefficients 7 a^2 and 2 b^2, (2,) or (c, 2)
        a = np.sin(two_pi * theta[..., :1] - pi)
        b = two_pi * theta[..., 1:] - pi
        return np.concatenate((7.0 * a * a, 2.0 * b * b), axis=-1)

    def eta(theta, x):
        c = coefs(theta)
        return c[..., :1] + c[..., 1:] * wave(x)

    def grad(theta, x):
        u = two_pi * theta[..., :1] - pi
        b = two_pi * theta[..., 1:] - pi
        s = wave(x)
        g = np.empty(theta.shape[:-1] + (s.size, 2))
        g[..., 0] = 14.0 * two_pi * np.sin(u) * np.cos(u)
        g[..., 1] = 4.0 * two_pi * b * s
        return g

    def hess(theta, x):
        u = two_pi * theta[..., :1] - pi
        s = wave(x)
        h = np.zeros(theta.shape[:-1] + (s.size, 2, 2))
        h[..., 0, 0] = 14.0 * two_pi**2 * np.cos(2.0 * u)
        h[..., 1, 1] = 4.0 * two_pi**2 * s
        return h

    theta0 = np.array([0.2, 0.3])
    model = MathModel(
        name="scenario1",
        theta_box=DomainBox([0.0, 0.0], [0.25, 0.5]),
        x_box=DomainBox(0.0, 1.0),
        eta=eta, grad_eta=grad, hess_eta=hess,
        features=lambda x: np.stack(np.broadcast_arrays(1.0, wave(x)), axis=-1),
        coefs=coefs,
    )
    system = PhysicalSystem(
        name="scenario1",
        mu=lambda pts: eta(theta0, pts),  # no structural discrepancy
        sigma=0.2,
        design=DesignRule("uniform", 0.0, 1.0),
    )
    return model, system, {"n": 50, "theta0": theta0}


def _make_scenario2():
    def eta(theta, x):
        return np.sin(5.0 * theta[..., :1] * x[:, 0]) + 5.0 * x[:, 0]

    def grad(theta, x):
        x0 = x[:, 0]
        return (5.0 * x0 * np.cos(5.0 * theta[..., :1] * x0))[..., None]

    def hess(theta, x):
        x0 = x[:, 0]
        return (-25.0 * x0 ** 2 * np.sin(5.0 * theta[..., :1] * x0))[..., None, None]

    model = MathModel(
        name="scenario2",
        theta_box=DomainBox(0.0, 3.0),
        x_box=DomainBox(0.0, 1.0),
        eta=eta, grad_eta=grad, hess_eta=hess,
    )
    system = PhysicalSystem(
        name="scenario2",
        mu=lambda pts: 5.0 * pts[:, 0] * np.cos(7.5 * pts[:, 0]) + 5.0 * pts[:, 0],
        sigma=0.2,
        design=DesignRule("equidistant", 0.0, 1.0),
    )
    return model, system, {"n": 30}


_SCENARIOS = {
    # single-parameter straight line against a gently oscillating truth
    "simple-linear": lambda: _line_scenario(
        "simple-linear", theta_box=(-10.0, 10.0), sigma=0.25, design_upper=1.0, n=8),
    "scenario1": _make_scenario1,
    "scenario2": _make_scenario2,
    # the same line, with data observed only on the left part of the domain
    "scenario3": lambda: _line_scenario(
        "scenario3", theta_box=(2.0, 4.0), sigma=0.02, design_upper=0.8, n=17),
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
