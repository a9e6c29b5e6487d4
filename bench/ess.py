"""Multi-chain effective sample size.

FFT autocovariance per chain, the combined within/between-chain variance
estimate and Geyer's initial-positive-sequence truncation with the
initial-monotone correction, as in Vehtari, Gelman, Simpson, Carpenter &
Buerkner (2021), "Rank-normalization, folding, and localization", eq. 10
(without the rank normalization).
"""

from __future__ import annotations

import math

import numpy as np


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (divide by n) autocovariance of each row of ``x`` at lags
    0..n-1, computed with a zero-padded FFT."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    centered = x - x.mean(axis=-1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, n=size, axis=-1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=-1)[..., :n] / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size of one scalar from an (m chains, n draws)
    array. Returns NaN when every chain is constant."""
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("ess needs an (m, n) array with n >= 4")
    m, n = x.shape
    acov = autocovariance(x)
    mean_var = float(acov[:, 0].mean()) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(x.mean(axis=1).var(ddof=1))
    if var_plus == 0.0:
        return math.nan
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: keep summing adjacent pairs while the pair sum is positive.
    kept = np.zeros(n)
    kept[0], kept[1] = rho[0], rho[1]
    t = 1
    while t < n - 4 and rho[t + 1] + rho[t + 2] > 0.0:
        kept[t + 1], kept[t + 2] = rho[t + 1], rho[t + 2]
        t += 2
    last = t
    # Initial monotone sequence: pair sums may not increase.
    for t in range(1, last - 2, 2):
        if kept[t + 1] + kept[t + 2] > kept[t - 1] + kept[t]:
            kept[t + 1] = kept[t + 2] = (kept[t - 1] + kept[t]) / 2.0
    total = m * n
    tau = -1.0 + 2.0 * float(kept[:last].sum()) + float(kept[last])
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def ess_per_column(draws: np.ndarray) -> np.ndarray:
    """ESS of every coefficient of a (chains, draws, coefficients) array."""
    return np.array([ess(draws[:, :, j]) for j in range(draws.shape[2])])
