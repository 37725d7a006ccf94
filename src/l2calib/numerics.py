"""Deterministic quadrature, box-constrained optimisation and matrix factors.

Everything downstream takes its quadrature rules and minimisations from this
module so that results are reproducible bit-for-bit for a given seed. It also
holds the switch that sets the thread count of numpy's BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_QUAD_ORDER = 64


class FactorError(ValueError):
    """Raised when a matrix fails the symmetry / positive-semidefinite checks."""


@dataclass
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule over an axis-aligned box.

    nodes   : (m, k) array of evaluation points inside the box
    weights : (m,) array of positive weights summing to the box volume
    lower, upper : (k,) box bounds
    """

    nodes: np.ndarray
    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def build_rule(lower, upper, order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    """Tensor-product rule for the box [lower, upper] in each coordinate."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-d arrays of equal length")
    if np.any(upper <= lower):
        raise ValueError("box must have positive side lengths")
    x01, w01 = gauss_legendre_01(order)
    axes_nodes = [lower[j] + (upper[j] - lower[j]) * x01 for j in range(lower.size)]
    axes_weights = [(upper[j] - lower[j]) * w01 for j in range(lower.size)]
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*axes_weights, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights = weights * wg.reshape(-1)
    return QuadratureRule(nodes=nodes, weights=weights, lower=lower, upper=upper)


def _openblas_path() -> Path | None:
    """numpy's bundled OpenBLAS (``numpy.libs/`` beside the package), or None."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                   .glob("libscipy_openblas*.so"))
    return found[0] if found else None


def set_blas_threads(n: int) -> int | None:
    """Run numpy's OpenBLAS on ``n`` threads in this process only.

    Returns the previous count, or None (and changes nothing) when the
    library or its thread functions are not found. ``simharness`` starts
    each pool worker with ``n = 1``: with one worker per CPU, BLAS threads
    in every worker would oversubscribe the CPUs.
    """
    path = _openblas_path()
    if path is None:
        return None
    import ctypes
    try:
        lib = ctypes.CDLL(str(path))   # the copy numpy already loaded
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    previous = get()
    put(n)
    return previous


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    converged: bool
    n_starts: int
    n_evals: int        # calls to f over all starts
    best_start: int     # index of the winning start; 0 is the box centre


GTOL = 1e-10        # stop once the projected gradient is this small
FTOL = 1e-12        # ... or once a Newton step promises less than FTOL |f|
MAX_NEWTON_ITER = 100


def _latin_starts(lower, upper, n, seed):
    """Latin hypercube points in the box.

    Bit for bit ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)``:
    uniform jitter first, then one permutation of 1..n per axis.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, lower.size))
    perms = np.column_stack([rng.permutation(np.arange(1, n + 1))
                             for _ in range(lower.size)])
    u = (perms - jitter) / n
    return lower + u * (upper - lower)


def _newton_descent(f, grad_hess, x, lower, upper):
    """Damped projected Newton from x; returns (x, value, converged, evals).

    A coordinate on a bound whose gradient points out of the box is held
    fixed. On the free coordinates the step solves (H + mu I) s = -g with
    the smallest shift mu that makes the matrix positive definite and keeps
    the step within the box diameter; the trial point is clipped to the box
    and accepted only if f does not rise (a non-finite f is a rise), and
    each rejection raises mu. Converged means a small projected gradient
    with no negative curvature, or an undamped Newton step that is too small
    to move x or that f, at its rounding level, cannot tell from no step.
    """
    fx, evals = f(x), 1
    for _ in range(MAX_NEWTON_ITER):
        if not np.isfinite(fx):
            break
        g, h = grad_hess(x)
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            break
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        if not free.any():
            return x, fx, True, evals
        gf = g[free]
        eig, vec = np.linalg.eigh(h[free][:, free])
        if np.abs(gf).max() <= GTOL and eig[0] >= 0.0:
            return x, fx, True, evals
        gv = vec.T @ gf
        diam = np.linalg.norm(upper[free] - lower[free])
        shift = max(0.0, np.linalg.norm(gf) / diam - eig[0])
        while True:
            trial = x.copy()
            trial[free] = np.clip(x[free] - vec @ (gv / (eig + shift)),
                                  lower[free], upper[free])
            if np.array_equal(trial, x):
                return x, fx, shift == 0.0, evals
            ft = f(trial)
            evals += 1
            if ft <= fx:
                break
            if shift == 0.0:
                # the Newton step promised less than f can resolve
                if 0.5 * np.sum(gv * gv / eig) <= FTOL * abs(fx):
                    return x, fx, True, evals
                shift = np.abs(eig).max()
            else:
                shift *= 4.0
        x, fx = trial, ft
    return x, fx, False, evals


def minimize_box(f, grad_hess, lower, upper, seed: int = 0,
                 n_starts: int = 10) -> MinimizeResult:
    """Multistart damped Newton over a box, for any smooth f.

    ``grad_hess`` gives the gradient (p,) and Hessian (p, p) of f together.
    Starts are the box centre plus ``n_starts - 1`` Latin hypercube draws;
    each descends by ``_newton_descent``. Determinism: the same (f, box,
    seed, n_starts) always returns bit-identical output. Among starts with a
    finite value the lowest value wins, ties going to the lexicographically
    smallest point; ``converged`` is the winner's flag, and it is False when
    no start reaches a finite value.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if np.any(upper <= lower):
        raise ValueError("box must have positive side lengths")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")

    starts = [0.5 * (lower + upper)]
    if n_starts > 1:
        starts.extend(_latin_starts(lower, upper, n_starts - 1, seed))

    best, n_evals = None, 0
    for i, x0 in enumerate(starts):
        x, val, ok, evals = _newton_descent(f, grad_hess, x0, lower, upper)
        n_evals += evals
        cand = (float(val), tuple(x), ok, i)
        if np.isfinite(cand[0]) and (best is None or cand[:2] < best[:2]):
            best = cand
    if best is None:
        best = (float("nan"), tuple(starts[0]), False, 0)
    return MinimizeResult(x=np.array(best[1]), value=best[0], converged=bool(best[2]),
                          n_starts=n_starts, n_evals=n_evals, best_start=best[3])


def sym_psd_factor(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Factor F of a symmetric PSD matrix A with F.T @ F == A.

    Uses the singular value decomposition; for symmetric input the left
    singular basis diagonalises A, so F = diag(sqrt(s)) @ U.T. Row signs are
    fixed (nonnegative diagonal of F) to make the factor unique. Singular
    values below ``tol * max(s)`` are clipped to zero; values more negative
    than that raise FactorError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FactorError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > tol * scale:
        raise FactorError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    u, s, vt = np.linalg.svd(a)
    # realign SVD signs so u diagonalises a (u and v columns can differ in sign)
    flip = np.sign(np.sum(u * vt.T, axis=0))
    flip[flip == 0] = 1.0
    u = u * flip[None, :]
    eig = s * flip
    smax = s.max() if s.size else 0.0
    if np.any(eig < -tol * max(smax, 1.0)):
        raise FactorError("matrix has a negative eigenvalue beyond tolerance")
    eig = np.clip(eig, 0.0, None)
    f = np.sqrt(eig)[:, None] * u.T
    sign = np.sign(np.diag(f))
    sign[sign == 0] = 1.0
    f = sign[:, None] * f
    return f
