"""Exact fractional Gaussian noise, the validation oracle for the estimators.

Synthesis is by circulant embedding of the target autocovariance

    gamma(k) = (sigma^2 / 2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

on a ring of length 2(n-1), whose eigenvalues are nonnegative for every
Hurst exponent in (0, 1); a negative eigenvalue beyond rounding noise
therefore signals an implementation bug, not a bad input.  The sampled
sequence has exactly this population autocovariance.

Gaussian variates are drawn as one (n, 2) block, two per frequency bin
in ascending bin order, so output is reproducible and odd in the draws
(negating every draw negates the sequence bitwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SynthesisError
from .timeseries import PriceSeries, _check_row, _numbers, _real, _whole

EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class FgnSpec:
    """Length, target Hurst exponent, scale, and seed."""

    n: int
    hurst: float
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fgn(self.hurst, self.sigma)
        _whole(self.n, "n", 2, DataError)
        _whole(self.seed, "seed", 0, DataError)


def _check_fgn(hurst: float, sigma: float) -> None:
    """A DataError unless hurst is a real in (0, 1) and sigma a finite real > 0."""
    _real(hurst, "hurst")
    if not 0.0 < hurst < 1.0:
        raise DataError(f"hurst must be in (0, 1), got {hurst}")
    _real(sigma, "sigma")
    if not 0.0 < sigma < np.inf:
        raise DataError(f"sigma must be finite and > 0, got {sigma}")


def fgn_autocovariance(
    lags: np.ndarray | int, hurst: float, sigma: float = 1.0
) -> np.ndarray:
    """Population autocovariance gamma(k) of fGn at the given finite lags."""
    _check_fgn(hurst, sigma)
    k = np.abs(_numbers(lags, "lags must be integers or floats").astype(np.float64))
    if not np.all(np.isfinite(k)):
        raise DataError("lags must be finite")
    two_h = 2.0 * hurst
    return 0.5 * sigma**2 * (
        np.abs(k + 1) ** two_h - 2.0 * k**two_h + np.abs(k - 1) ** two_h
    )


def _embedding_eigenvalues(n: int, hurst: float, sigma: float) -> np.ndarray:
    gamma = fgn_autocovariance(np.arange(n), hurst, sigma)
    ring = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2(n-1)
    lam = np.fft.fft(ring).real
    lam_max = float(lam.max())
    if float(lam.min()) < -EIGENVALUE_TOL * lam_max:
        raise SynthesisError(
            f"circulant embedding produced eigenvalue {float(lam.min()):.3e} "
            f"< -{EIGENVALUE_TOL:.0e} * max; synthesis is invalid"
        )
    return np.clip(lam, 0.0, None)


def _fgn_from_draws(lam: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Assemble the sequence from eigenvalues and an (n, 2) draw block."""
    m_ring = len(lam)
    half = m_ring // 2  # = n - 1
    spec = np.zeros(m_ring, dtype=np.complex128)
    spec[0] = np.sqrt(lam[0] / m_ring) * draws[0, 0]
    spec[half] = np.sqrt(lam[half] / m_ring) * draws[half, 0]
    if half > 1:
        k = np.arange(1, half)
        amp = np.sqrt(lam[k] / (2.0 * m_ring))
        spec[k] = amp * (draws[k, 0] + 1j * draws[k, 1])
        spec[m_ring - k] = np.conj(spec[k])
    return np.fft.fft(spec).real[: half + 1]


def generate_fgn(spec: FgnSpec) -> np.ndarray:
    """Stationary Gaussian sequence with the exact fGn autocovariance."""
    lam = _embedding_eigenvalues(spec.n, spec.hurst, spec.sigma)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    draws = rng.standard_normal((spec.n, 2))
    return _fgn_from_draws(lam, draws)


def synthetic_prices(values: np.ndarray) -> PriceSeries:
    """Price series whose log returns are exactly ``values``.

    Prices are 100 * exp(cumsum(values)), with the first price 100, on
    consecutive calendar days from 2000-01-03, so the generated series
    feeds the full ingestion pipeline end to end.
    """
    values = _check_row(values, "series")
    prices = np.empty(len(values) + 1, dtype=np.float64)
    prices[0] = 100.0
    prices[1:] = 100.0 * np.exp(np.cumsum(values))
    dates = np.datetime64("2000-01-03", "D") + np.arange(len(prices))
    return PriceSeries(dates, prices)
