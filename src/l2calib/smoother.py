"""Kernel ridge smoothing of field data with generalised cross-validation.

The smoother is mu_hat(x) = sum_i u_i kappa(x, x_i) with u = (K + lam I)^-1 y.
Writing A = K (K + lam I)^-1 for the hat matrix, model selection minimises

    GCV(lam, rho) = n ||(I - A) y||^2 / tr(I - A)^2

over a grid of ridge and bandwidth values. The noise estimate is the selected
GCV score itself, sigma2_hat = GCV(lam, rho) at the selected cell (Golub, Heath
& Wahba, 1979); the naive residual estimator rss / (n - tr A) runs far low here
because the selected lam adapts to each noise draw. All linear algebra runs
through one symmetric eigendecomposition of the jittered kernel matrix per
bandwidth, so grid scores, coefficients and traces are mutually consistent.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .numerics import blas_threads

JITTER = 1e-10
KERNEL_FAMILIES = ("gaussian", "matern52")
MIN_OBSERVATIONS = 3  # fewest observations GCV selection accepts
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 1.0, 19)
# bandwidth multipliers applied to the per-coordinate data range
DEFAULT_RHO_FACTORS = np.logspace(np.log10(0.05), np.log10(2.0), 13)
# smaller designs get their eigh, and the solves against it, on one BLAS thread:
# a second one first pays off near n = 400 on 2 CPUs (BENCH_18.json), and a woken
# idle OpenBLAS helper thread busy-waits for about 0.13 s of CPU after the call
# (a study slice runs on one thread at any n, see simharness._map_slices)
ONE_BLAS_THREAD_BELOW = 400
# responses scored per step of GcvGrid.select_many: the (rows, g, L, n)
# temporary is about 0.5 MB on the default 13 x 19 grid at n = 8
SELECT_CHUNK = 32
# kernel-matrix elements per eigh call of GcvGrid.__init__: the whole default grid
# up to n = 35, one bandwidth at a time from n = 91; larger blocks were slower at n >= 80
EIGH_BLOCK = 1 << 14


class DegenerateSmootherError(ValueError):
    """Raised when tr(I - A) is too close to zero for the GCV denominator."""


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel family plus one bandwidth per coordinate."""

    family: str
    rho: np.ndarray

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}")
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
            raise ValueError("every bandwidth must be positive and finite")
        object.__setattr__(self, "rho", rho)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-kernel matrix between point sets a (ma, k) and b (mb, k); for a
    stack of bandwidth rows rho (g, k), the stack (g, ma, mb), each matrix equal
    bit for bit to the one-bandwidth call."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != spec.rho.shape[-1] or b.shape[1] != spec.rho.shape[-1]:
        raise ValueError("points and bandwidth vector disagree in dimension")
    d2 = np.zeros(spec.rho.shape[:-1] + (a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d2 += ((a[:, j, None] - b[None, :, j]) / spec.rho[..., j, None, None]) ** 2
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
        with blas_threads(1) if len(d) < ONE_BLAS_THREAD_BELOW else nullcontext():
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


def default_rho_grid(design: np.ndarray) -> np.ndarray:
    """Bandwidth grid: factors of the per-coordinate data range, (g, k)."""
    design = np.atleast_2d(np.asarray(design, dtype=float))
    rng = design.max(axis=0) - design.min(axis=0)
    rng = np.where(rng > 0, rng, 1.0)
    return DEFAULT_RHO_FACTORS[:, None] * rng[None, :]


class GcvGrid:
    """GCV selection machinery for a fixed design.

    The constructor takes one eigendecomposition K + jitter = Q diag(d) Q' per
    bandwidth, up to EIGH_BLOCK kernel elements per ``eigh`` call, into the stacks
    ``eig_values`` (g, n) and ``eig_vectors`` (g, n, n), the one copy of each:
    bandwidth b is row b of ``rho_grid`` and of both stacks. It also stores the
    ``shrinkage`` factors lam / (d + lam) (g, L, n) and the ``residual_trace``
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
        self.eig_values = np.empty((len(rho), n))
        self.eig_vectors = np.empty((len(rho), n, n))
        step = max(1, EIGH_BLOCK // (n * n))
        with blas_threads(1) if n < ONE_BLAS_THREAD_BELOW else nullcontext():
            for b in range(0, len(rho), step):
                block = KernelSpec(family, self.rho_grid[b:b + step])
                self.eig_values[b:b + step], self.eig_vectors[b:b + step] = np.linalg.eigh(
                    kernel_matrix(block, self.design, self.design) + JITTER * np.eye(n))
        d = self.eig_values[:, None]
        self.shrinkage = self.lambda_grid[:, None] / (d + self.lambda_grid[:, None])
        self.residual_trace = self.shrinkage.sum(axis=-1)

    def select(self, y: np.ndarray):
        """Grid-minimise GCV for one response (n,); returns (rho index, lam,
        score, rss, tr(I - A)) as Python scalars. See ``select_many``."""
        idx, j, score, rss, trm, _ = self.select_many(np.asarray(y, dtype=float)[None])
        return (int(idx[0]), float(self.lambda_grid[j[0]]), float(score[0]),
                float(rss[0]), float(trm[0]))

    def select_many(self, ys: np.ndarray):
        """Grid-minimise GCV for each row of ys (R, n); returns arrays (rho
        index, lam index, score, rss, tr(I - A)), each (R,), and the selected
        bandwidth's rotation Q'y of each row, (R, n).

        Ties go to the first bandwidth that reaches the minimum and, within
        it, to the largest ridge value. Rows are scored SELECT_CHUNK at a time;
        each row's arithmetic is that of a batch of one, so the result does
        not depend on the batch. Q'y is rotated by the transposed view of the
        eigenvector stack, the BLAS call of ``q.T @ y``, and equals it bit for bit.
        """
        ys = np.asarray(ys, dtype=float)
        n_lam = self.lambda_grid.size
        qt = np.swapaxes(self.eig_vectors, -1, -2)
        parts = []
        for start in range(0, len(ys), SELECT_CHUNK):
            y = ys[start:start + SELECT_CHUNK]
            # (c, g, 1, n): one matrix-vector product Q'y per row and bandwidth
            z = np.swapaxes(qt @ y[:, None, :, None], -1, -2)
            # n rss / tr(I - A)^2, undefined (inf) where tr(I - A) < 1e-12, and at the
            # selected cell also the noise estimate; rounding alone orders cells flat
            # in lam (K = I)
            rss = np.sum((self.shrinkage * z) ** 2, axis=-1)
            score = np.where(self.residual_trace < 1e-12, np.inf,
                             y.shape[1] * rss / np.maximum(self.residual_trace, 1e-12) ** 2)
            best = score.min(axis=(1, 2))
            if not np.isfinite(best).all():
                raise DegenerateSmootherError("GCV denominator vanished on the whole grid")
            hits = score == best[:, None, None]
            at = np.arange(len(y))
            idx = np.argmax(hits.any(axis=2), axis=1)
            j = n_lam - 1 - np.argmax(hits[at, idx, ::-1], axis=1)
            parts.append((idx, j, best, rss[at, idx, j], z[at, idx, 0]))
        idx, j, best, rss, z = map(np.concatenate, zip(*parts))
        return idx, j, best, rss, self.residual_trace[idx, j], z

    def fit(self, y: np.ndarray) -> SmootherFit:
        return self.fit_many(np.asarray(y, dtype=float)[None])[0]

    def fit_many(self, ys: np.ndarray) -> list[SmootherFit]:
        """The GCV-selected fit of each row of ys (R, n), from one
        ``select_many`` call; each equals ``fit`` on that row bit for bit.

        A fit takes its numbers from the selection: its noise estimate is the
        selected GCV score, its trace n - tr(I - A), and its coefficients use the
        selected Q'y. It copies its eigenpairs, so as not to keep the grid's stacks alive."""
        ys = np.asarray(ys, dtype=float)
        n = self.design.shape[0]
        idx, j, scores, _, trms, zs = self.select_many(ys)
        fits = []
        for y, z, b, lam, score, trm in zip(ys, zs, idx, self.lambda_grid[j], scores, trms):
            d, q = self.eig_values[b], self.eig_vectors[b]
            fits.append(SmootherFit(
                data=Dataset(design=self.design, responses=y),
                kernel=KernelSpec(self.family, self.rho_grid[b]), lam=float(lam),
                coef=q @ (z / (d + lam)), sigma2_hat=float(score),
                trace_hat=float(n - trm), gcv_value=float(score),
                flags=("degenerate-smoother",) if trm < 1e-6 * n else (),
                eig_values=d.copy(), eig_vectors=q.copy()))
        return fits


def fit_smoother(data: Dataset, family: str = "gaussian", lambda_grid=None,
                 rho_grid=None) -> SmootherFit:
    """Fit the smoother with (lam, rho) chosen by grid GCV."""
    grid = GcvGrid(data.design, family=family, lambda_grid=lambda_grid,
                   rho_grid=rho_grid)
    return grid.fit(data.responses)
