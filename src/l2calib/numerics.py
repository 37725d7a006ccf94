"""Deterministic quadrature, box-constrained optimisation and matrix factors.

Everything downstream takes its quadrature rules and minimisations from this
module so that results are reproducible bit-for-bit for a given seed. It also
holds numpy's BLAS thread count: one for study slices and small smoother designs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
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
    """

    nodes: np.ndarray
    weights: np.ndarray


@cache
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1].

    Computed once per order and process, and shared: both arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    return QuadratureRule(nodes=nodes, weights=weights)


def _openblas_path() -> Path | None:
    """numpy's bundled OpenBLAS (``numpy.libs/`` beside the package), or None."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                   .glob("libscipy_openblas*.so"))
    return found[0] if found else None


@cache
def _openblas_threads():
    """OpenBLAS's thread-count (getter, setter), looked up once; None if not found."""
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
    return get, put


def set_blas_threads(n: int) -> int | None:
    """Run numpy's OpenBLAS on ``n`` threads in this process only; return the
    previous count, or None (changing nothing) when the library or its thread
    functions are not found. The setter is called only when the count differs
    from ``n``: in a fork child it starts a helper thread even for ``n = 1``,
    which spins beside the child's own, so forked study slices only inherit one.
    """
    found = _openblas_threads()
    if found is None:
        return None
    get, put = found
    previous = get()
    if previous != n:
        put(n)
    return previous


@contextmanager
def blas_threads(n: int):
    """Run the block on ``n`` BLAS threads; the previous count returns after it, also on raise."""
    previous = set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    converged: bool
    n_evals: int        # points f evaluated, over all starts
    best_start: int     # index of the winning start; 0 is the box centre


GTOL = 1e-10        # stop once the projected gradient is this small
FTOL = 1e-12        # ... or once a Newton step promises less than FTOL |f|
MAX_NEWTON_ITER = 100
N_STARTS = 10       # starts per problem: the box centre and 9 Latin hypercube points


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


def minimize_box(f, grad_hess, lower, upper, seeds,
                 n_starts: int = N_STARTS) -> list[MinimizeResult]:
    """Multistart damped projected Newton over a box, for P smooth problems at
    once, one per seed; returns one result per problem.

    ``f`` maps points (c, p) and their problem indices (c,) to values (c,),
    and ``grad_hess`` maps them to gradients (c, p) and Hessians (c, p, p);
    each row must equal a call on that row alone. Each problem's starts are
    the box centre plus ``n_starts - 1`` Latin hypercube draws from its seed,
    and each start descends on its own.

    A coordinate on a bound whose gradient points out of the box is held
    fixed. On the free coordinates the step solves (H + mu I) s = -g with
    the smallest shift mu that makes the matrix positive definite and keeps
    the step within the box diameter; the trial point is clipped to the box
    and accepted only if f does not rise (a non-finite f is a rise), and
    each rejection raises mu. After a non-finite f the raised mu is a floor
    for the start's later shifts, so it does not step back into that region.
    Converged means a small projected gradient with no negative curvature,
    or an undamped Newton step that is too small to move x or that f, at its
    rounding level, cannot tell from no step. A start stops unconverged at a
    non-finite value or derivative, or after ``MAX_NEWTON_ITER`` accepted
    steps.

    The starts of every problem advance in lockstep rounds: one
    ``grad_hess`` call, one stacked ``eigh`` per pattern of free coordinates
    and one ``f`` call for every trial point. The stacked calls repeat each
    start's own arithmetic, so each start ends bit for bit where a descent
    on its own would, and each problem's result does not depend on the
    others. ``n_evals`` counts a problem's rows passed to f. The same
    (f, box, seeds, n_starts) always returns bit-identical output. Among a
    problem's starts with a finite value the lowest value wins, ties going
    to the lexicographically smallest point; ``converged`` is the winner's
    flag, and it is False when no start reaches a finite value.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if np.any(upper <= lower):
        raise ValueError("box must have positive side lengths")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if lower.size > 62:
        raise ValueError("at most 62 parameters: free patterns are int64 bit codes")

    centre = 0.5 * (lower + upper)
    x = np.vstack([np.vstack([centre, _latin_starts(lower, upper, n_starts - 1, s)])
                   for s in seeds])
    c, p = x.shape
    prob = np.arange(c) // n_starts     # each row's problem index
    fx = np.array(f(x, prob), dtype=float)
    tried, steps = [np.arange(c)], np.zeros(c, dtype=int)   # rows passed to f
    conv, shift, fresh = np.zeros(c, dtype=bool), np.zeros(c), np.ones(c, dtype=bool)
    floor = np.zeros(c)     # the shift a start's last non-finite trial forced
    # diam: the box diameter over each pattern of free coordinates
    live, bits, diam = np.flatnonzero(np.isfinite(fx)), 1 << np.arange(p), {}
    while live.size:
        # a start whose last trial was rejected gets the same gradient and
        # eigenpairs again, bit for bit; only its shift carries over
        xl = x[live]
        g, h = grad_hess(xl, prob[live])
        free = ~(((xl <= lower) & (g > 0)) | ((xl >= upper) & (g < 0)))
        finite = np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
        codes = np.where(finite, free @ bits, -1)
        done = codes <= 0       # a non-finite derivative, or no free coordinate
        ok = codes == 0         # done and converged
        s = shift[live]         # a fresh start's shift is set in its group
        step, dec, big = np.zeros_like(xl), np.zeros(live.size), np.zeros(live.size)
        for code in set(codes[~done].tolist()):
            sel = np.flatnonzero(codes == code)
            idx = np.flatnonzero(free[sel[0]])
            if code not in diam:
                diam[code] = np.linalg.norm(upper[idx] - lower[idx])
            gf = g[sel[:, None], idx]
            e, v = np.linalg.eigh(h[sel[:, None, None], idx[:, None], idx])
            stop = (np.abs(gf).max(axis=1) <= GTOL) & (e[:, 0] >= 0.0)
            done[sel], ok[sel] = stop, stop
            gv = (np.swapaxes(v, 1, 2) @ gf[:, :, None])[:, :, 0]
            # np.linalg.norm(gf) is sqrt(gf . gf); a stacked dot keeps its bits
            s0 = np.sqrt((gf[:, None, :] @ gf[:, :, None])[:, 0, 0]) / diam[code] - e[:, 0]
            low = e[:, 0] + s0
            if low.min() <= 0.0:
                # a zero gradient at negative curvature leaves s0 = -e_0, and the
                # step would be 0 / 0: doubling s0 keeps the matrix definite
                s0 = np.where(low > 0.0, s0, 2.0 * s0)
            s0 = np.maximum(np.where(s0 > 0.0, s0, 0.0), floor[live[sel]])
            ss = s[sel] = np.where(fresh[live[sel]], s0, s[sel])
            keep = ~stop[:, None]
            d = np.divide(gv, e + ss[:, None], out=np.zeros_like(gv), where=keep)
            step[sel[:, None], idx] = (v @ d[:, :, None])[:, :, 0]
            # the decrement is needed only after an undamped step, where e > 0
            dec[sel] = 0.5 * np.divide(gv * gv, e, out=np.zeros_like(gv),
                                       where=keep & (ss == 0.0)[:, None]).sum(axis=1)
            big[sel] = np.abs(e).max(axis=1)
        trial = np.clip(xl - step, lower, upper)    # held and finished rows: x itself
        same = ~done & (trial == xl).all(axis=1)
        conv[live] = ok | (same & (s == 0.0))
        go = ~(done | same)
        pend, trial, s, dec, big = live[go], trial[go], s[go], dec[go], big[go]
        if not pend.size:
            break
        ft = np.asarray(f(trial, prob[pend]), dtype=float)
        tried.append(pend)
        acc = ft <= fx[pend]
        a = pend[acc]
        x[a], fx[a], fresh[pend] = trial[acc], ft[acc], acc
        steps[a] += 1
        undamped = ~acc & (s == 0.0)
        # the Newton step promised less than f can resolve
        tiny = undamped & (dec <= FTOL * np.abs(fx[pend]))
        conv[pend] = tiny
        shift[pend] = np.where(undamped, big, 4.0 * s)
        floor[pend] = np.where(np.isfinite(ft), floor[pend], shift[pend])
        live = pend[(acc & (steps[pend] < MAX_NEWTON_ITER) & np.isfinite(fx[pend]))
                    | (~acc & ~tiny)]

    n_evals = np.bincount(np.concatenate(tried) // n_starts, minlength=len(seeds))
    results = []
    for k, first in enumerate(range(0, c, n_starts)):
        # min keeps the first of equal (value, point) candidates
        best = min(((float(fx[i]), tuple(x[i]), bool(conv[i]), i - first)
                    for i in range(first, first + n_starts) if np.isfinite(fx[i])),
                   key=lambda cand: cand[:2], default=(float("nan"), tuple(centre), False, 0))
        results.append(MinimizeResult(x=np.array(best[1]), value=best[0], converged=best[2],
                                      n_evals=int(n_evals[k]), best_start=best[3]))
    return results


def check_definite(a: np.ndarray, fail, semi: bool = False) -> np.ndarray:
    """The symmetric part of the square matrix a, which must be positive
    definite: its smallest eigenvalue must exceed 1e-12 max(|largest|, 1). With
    ``semi``, positive semidefinite: it must be at least -1e-10 max(|largest|, 1).
    Otherwise raises ``fail(eigenvalues)``, the caller's own exception."""
    a = 0.5 * (a + a.T)
    eig = np.linalg.eigvalsh(a)
    scale = max(abs(eig[-1]), 1.0)
    if (eig[0] < -1e-10 * scale) if semi else (eig[0] <= 1e-12 * scale):
        raise fail(eig)
    return a


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
