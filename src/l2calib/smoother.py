"""Kernel ridge smoothing of field data with generalised cross-validation.

The smoother is mu_hat(x) = sum_i u_i kappa(x, x_i) with u = (K + lam I)^-1 y.
Writing A = K (K + lam I)^-1 for the hat matrix, model selection minimises

    GCV(lam, rho) = n ||(I - A) y||^2 / tr(I - A)^2

over a grid of ridge and bandwidth values. The noise level is estimated by the
selected GCV score itself, sigma2_hat = n ||(I - A) y||^2 / tr(I - A)^2; the
naive residual estimator rss / (n - tr A) runs far low here because the
selected lam adapts to each noise draw. All linear algebra runs through one
symmetric eigendecomposition of the jittered kernel matrix per bandwidth, so
grid scores, coefficients and traces are mutually consistent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

JITTER = 1e-10
KERNEL_FAMILIES = ("gaussian", "matern52")
MIN_OBSERVATIONS = 3  # fewest observations GCV selection accepts
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 1.0, 19)
# bandwidth multipliers applied to the per-coordinate data range
DEFAULT_RHO_FACTORS = np.logspace(np.log10(0.05), np.log10(2.0), 13)
# responses scored per step of GcvGrid.select_many: the (rows, g, L, n)
# temporary is about 0.5 MB on the default 13 x 19 grid at n = 8
SELECT_CHUNK = 32


class DegenerateSmootherError(ValueError):
    """Raised when tr(I - A) is too close to zero for the GCV denominator."""


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel family plus per-coordinate bandwidths."""

    family: str
    rho: np.ndarray

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}")
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
            raise ValueError("bandwidths must be positive and finite")
        object.__setattr__(self, "rho", rho)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-kernel matrix between point sets a (ma, k) and b (mb, k)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != spec.rho.size or b.shape[1] != spec.rho.size:
        raise ValueError("points and bandwidth vector disagree in dimension")
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d2 += ((a[:, j, None] - b[None, :, j]) / spec.rho[j]) ** 2
    if spec.family == "gaussian":
        return np.exp(-d2)
    r = np.sqrt(np.maximum(d2, 0.0))
    s5r = np.sqrt(5.0) * r
    return (1.0 + s5r + (5.0 / 3.0) * r * r) * np.exp(-s5r)


@dataclass(frozen=True)
class Dataset:
    """Field observations: a design matrix and one response per row."""

    design: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.atleast_1d(np.asarray(self.responses, dtype=float))
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
            raise ValueError("design must be (n, k) with responses of length n")
        if x.shape[0] < 1:
            raise ValueError("dataset is empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")
        order = np.lexsort(x.T[::-1])
        # hypot, unlike a sum of squares, cannot overflow for large coordinates
        gaps = np.hypot.reduce(np.diff(x[order], axis=0), axis=1)
        if gaps.size and gaps.min() < 1e-12:
            raise ValueError("design contains duplicate rows (within 1e-12)")
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]


def read_dataset_csv(path) -> Dataset:
    """Load a Dataset from CSV with header columns x1..xk,y."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise ValueError(f"{path}: header must be x1,...,xk,y")
        k = len(header) - 1
        if header[:-1] != [f"x{j + 1}" for j in range(k)]:
            raise ValueError(f"{path}: header must be x1,...,xk,y")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 1:
                raise ValueError(f"{path}:{lineno}: expected {k + 1} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(design=arr[:, :k], responses=arr[:, k])


@dataclass
class SmootherFit:
    """Fitted kernel ridge smoother.

    Stores the eigendecomposition of the jittered kernel matrix so that
    predictions, pointwise weights and downstream solves against
    Phi = K + lam I reuse one factorisation.
    """

    data: Dataset
    kernel: KernelSpec
    lam: float
    coef: np.ndarray
    sigma2_hat: float
    trace_hat: float
    gcv_value: float
    flags: tuple[str, ...] = ()
    eig_values: np.ndarray = field(default=None, repr=False)
    eig_vectors: np.ndarray = field(default=None, repr=False)

    def solve_phi(self, b: np.ndarray) -> np.ndarray:
        """Solve (K + lam I) z = b using the cached eigendecomposition."""
        d, q = self.eig_values, self.eig_vectors
        return q @ ((q.T @ b).T / (d + self.lam)).T

    def predict(self, x) -> np.ndarray:
        kx = kernel_matrix(self.kernel, np.atleast_2d(np.asarray(x, dtype=float)),
                           self.data.design)
        return kx @ self.coef

    def weights(self, x) -> np.ndarray:
        """Rows g(x) with mu_hat(x) = g(x) . y, one per evaluation point."""
        kx = kernel_matrix(self.kernel, np.atleast_2d(np.asarray(x, dtype=float)),
                           self.data.design)
        return self.solve_phi(kx.T).T


def _gcv_terms(rss, trm, n: int):
    """(score, sigma2_hat) from rss = ||(I - A) y||^2 and trm = tr(I - A).

    Both are n rss / trm^2; the score is inf where trm < 1e-12 and GCV is
    undefined, while sigma2_hat floors trm there. Broadcasts over arrays.
    """
    sigma2 = n * rss / np.maximum(trm, 1e-12) ** 2
    return np.where(trm < 1e-12, np.inf, sigma2), sigma2


def _bandwidth(spec: KernelSpec, design: np.ndarray):
    """(spec, d, q) with (d, q) the eigenpairs of the jittered K + JITTER I."""
    d, q = np.linalg.eigh(kernel_matrix(spec, design, design) + JITTER * np.eye(len(design)))
    return spec, d, q


def _eigen_fit(data: Dataset, lam: float, kernel: KernelSpec, d: np.ndarray,
               q: np.ndarray) -> SmootherFit:
    """SmootherFit at ridge lam on one bandwidth triple (kernel, d, q)."""
    n = data.n
    z = q.T @ data.responses
    shr = lam / (d + lam)
    rss = float(np.sum((shr * z) ** 2))
    trm = float(np.sum(shr))
    score, sigma2 = _gcv_terms(rss, trm, n)
    flags = ("degenerate-smoother",) if trm < 1e-6 * n else ()
    return SmootherFit(data=data, kernel=kernel, lam=float(lam), coef=q @ (z / (d + lam)),
                       sigma2_hat=float(sigma2), trace_hat=n - trm,
                       gcv_value=float(score), flags=flags, eig_values=d, eig_vectors=q)


def default_rho_grid(design: np.ndarray) -> np.ndarray:
    """Bandwidth grid: factors of the per-coordinate data range, (g, k)."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    rng = design.max(axis=0) - design.min(axis=0)
    rng = np.where(rng > 0, rng, 1.0)
    return DEFAULT_RHO_FACTORS[:, None] * rng[None, :]


class GcvGrid:
    """GCV selection machinery for a fixed design.

    The constructor takes one eigendecomposition K + jitter = Q diag(d) Q' per
    bandwidth, kept public in ``bandwidths`` as (spec, d, Q) triples, and
    stores everything GCV needs that does not depend on the response: the
    stacked Q' (g, n, n), the shrinkage factors lam / (d + lam) (g, L, n) and
    tr(I - A) (g, L). A select then costs one batched rotation Q'y and one
    reduction over the whole (rho, lam) grid, O(g * n * (n + L)) per response.
    """

    def __init__(self, design, family: str = "gaussian", lambda_grid=None,
                 rho_grid=None):
        self.design = np.atleast_2d(np.asarray(design, dtype=float))
        n = self.design.shape[0]
        if n < MIN_OBSERVATIONS:
            raise ValueError(f"GCV selection needs at least {MIN_OBSERVATIONS} observations")
        lam = DEFAULT_LAMBDA_GRID if lambda_grid is None else np.asarray(lambda_grid, float)
        if np.any(lam <= 0):
            raise ValueError("ridge grid values must be positive")
        self.lambda_grid = np.sort(np.unique(lam))
        rho = default_rho_grid(self.design) if rho_grid is None else np.atleast_2d(
            np.asarray(rho_grid, dtype=float))
        if rho.shape[1] != self.design.shape[1]:
            raise ValueError("bandwidth grid has wrong dimension")
        # sort rows lexicographically so selection ignores input ordering
        self.rho_grid = rho[np.lexsort(rho.T[::-1])]
        self.family = family
        self.bandwidths = tuple(_bandwidth(KernelSpec(family, r), self.design)
                                for r in self.rho_grid)
        self._qt = np.stack([q.T for _, _, q in self.bandwidths])
        d = np.stack([d for _, d, _ in self.bandwidths])[:, None, :]
        self._shr = self.lambda_grid[:, None] / (d + self.lambda_grid[:, None])
        self._trace = self._shr.sum(axis=-1)

    def select(self, y: np.ndarray):
        """Grid-minimise GCV for one response (n,); returns (rho index, lam,
        score, rss, tr(I - A)) as Python scalars. See ``select_many``."""
        idx, j, score, rss, trm = self.select_many(np.asarray(y, dtype=float)[None])
        return (int(idx[0]), float(self.lambda_grid[j[0]]), float(score[0]),
                float(rss[0]), float(trm[0]))

    def select_many(self, ys: np.ndarray):
        """Grid-minimise GCV for each row of ys (R, n); returns arrays (rho
        index, lam index, score, rss, tr(I - A)), each (R,).

        Ties go to the first bandwidth that reaches the minimum and, within
        it, to the largest ridge value. Rows are scored SELECT_CHUNK at a time;
        each row's arithmetic is that of a batch of one, so the result does
        not depend on the batch.
        """
        ys = np.asarray(ys, dtype=float)
        n_lam = self.lambda_grid.size
        parts = []
        for start in range(0, len(ys), SELECT_CHUNK):
            y = ys[start:start + SELECT_CHUNK]
            # (c, g, 1, n): one matrix-vector product Q'y per row and bandwidth
            z = np.swapaxes(self._qt @ y[:, None, :, None], -1, -2)
            # same arithmetic as _eigen_fit: rounding alone orders cells flat in lam (K = I)
            rss = np.sum((self._shr * z) ** 2, axis=-1)
            score = _gcv_terms(rss, self._trace, y.shape[1])[0]
            best = score.min(axis=(1, 2))
            if not np.isfinite(best).all():
                raise DegenerateSmootherError("GCV denominator vanished on the whole grid")
            hits = score == best[:, None, None]
            at = np.arange(len(y))
            idx = np.argmax(hits.any(axis=2), axis=1)
            j = n_lam - 1 - np.argmax(hits[at, idx, ::-1], axis=1)
            parts.append((idx, j, best, rss[at, idx, j]))
        idx, j, best, rss = map(np.concatenate, zip(*parts))
        return idx, j, best, rss, self._trace[idx, j]

    def fit(self, y: np.ndarray) -> SmootherFit:
        return self.fit_many(np.asarray(y, dtype=float)[None])[0]

    def fit_many(self, ys: np.ndarray) -> list[SmootherFit]:
        """The GCV-selected fit of each row of ys (R, n), from one
        ``select_many`` call; each equals ``fit`` on that row bit for bit."""
        idx, j = self.select_many(ys)[:2]
        return [_eigen_fit(Dataset(design=self.design, responses=y), self.lambda_grid[jr],
                           *self.bandwidths[b]) for y, b, jr in zip(ys, idx, j)]


def fit_smoother(data: Dataset, family: str = "gaussian", lambda_grid=None,
                 rho_grid=None) -> SmootherFit:
    """Fit the smoother with (lam, rho) chosen by grid GCV."""
    grid = GcvGrid(data.design, family=family, lambda_grid=lambda_grid,
                   rho_grid=rho_grid)
    return grid.fit(data.responses)


def fit_smoother_fixed(data: Dataset, kernel: KernelSpec, lam: float) -> SmootherFit:
    """Fit the smoother at fixed (kernel, lam), no selection step."""
    if lam < 0:
        raise ValueError("ridge parameter must be nonnegative")
    return _eigen_fit(data, lam, *_bandwidth(kernel, data.design))
