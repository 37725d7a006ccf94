"""Rank-normalised bulk effective sample size (Vehtari et al., 2021).

Chains are split in half, the pooled draws are replaced by normal scores of
their ranks, and the ESS of the result follows Geyer's initial monotone
sequence estimator of the integrated autocorrelation time.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of x, lags 0..n-1."""
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """ESS of an (m, n) array of m chains with n draws each."""
    m, n = chains.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    acov = _autocov(chains)
    mean_var = float(acov[:, 0].mean()) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(chains.mean(axis=1).var(ddof=1))
    if var_plus <= 0:
        return float(m * n)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # initial positive sequence: keep pairs of lags while their sum is positive
    t = 1
    while t < n - 2 and rho[t + 1] + rho[t + 2] > 0.0:
        t += 2
    sums = rho[: t + 1].reshape(-1, 2).sum(axis=1)
    # initial monotone sequence: pair sums may not increase
    sums = np.minimum.accumulate(sums)
    tau = -1.0 + 2.0 * float(sums.sum())
    tau = max(tau, 1.0 / np.log10(m * n))
    return m * n / tau


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk ESS of an (m, n) array: split chains, rank-normalise, ESS."""
    half = chains.shape[1] // 2
    split = np.concatenate([chains[:, :half], chains[:, half:2 * half]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return ess(z)


def total_bulk_ess(draws: np.ndarray, chain_ids: np.ndarray) -> float:
    """Sum over coordinates of the bulk ESS of (draws, chain_ids) samples."""
    ids = np.unique(chain_ids)
    length = min(int(np.sum(chain_ids == c)) for c in ids)
    per_chain = np.stack([draws[chain_ids == c][:length] for c in ids])
    return float(sum(bulk_ess(per_chain[:, :, j]) for j in range(draws.shape[1])))
