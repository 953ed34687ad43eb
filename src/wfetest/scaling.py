"""Power-law fitting of fluctuation functions and exponent conversions.

H is the slope of an ordinary least-squares fit of ln F against ln s.
One range rule, :func:`detect_scaling_range`, picks each row's window of
a given number of grid points with the smallest fitting residual, ties
going to the earliest; :func:`fit_power_law` is its one-row case.  The
``auto`` range policy fits the paper's window of ``FIT_WINDOW`` points;
the ``full`` range policy and a shuffle ensemble's fixed range are the
one window of the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detrend import Estimator, _check_scales, default_scales, fluctuation
from .errors import ConfigError, DataError, DegenerateInputError, InsufficientDataError
from .timeseries import ReturnSeries, profile

FIT_WINDOW = 15

RANGE_POLICIES = ("full", "auto")


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln F on ln s over an inclusive scale range."""

    h: float
    stderr: float
    s_lo: int
    s_hi: int
    rss: float
    n_points: int

    def __post_init__(self):
        if self.s_lo >= self.s_hi:
            raise DataError("fit range must satisfy s_lo < s_hi")
        if self.n_points < 2 or self.stderr < 0:
            raise DataError("fit needs n_points >= 2 and stderr >= 0")

    @property
    def eta(self) -> float:
        """Power-spectrum exponent 2H - 1."""
        return 2.0 * self.h - 1.0

    @property
    def gamma(self) -> float:
        """Autocorrelation exponent 2 - 2H."""
        return 2.0 - 2.0 * self.h

    def to_json_dict(self) -> dict:
        return {
            "H": self.h,
            "stderr": self.stderr,
            "s_lo": self.s_lo,
            "s_hi": self.s_hi,
            "rss": self.rss,
            "n_points": self.n_points,
        }


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope and rss of y on x along the last axis.

    Leading axes broadcast, so one call fits a single row, every row of
    an ensemble, or every window of a grid.  Each row is summed in the
    same order whatever the batch, so a row's slope does not depend on
    the rows fitted with it.
    """
    dx = x - x.mean(axis=-1, keepdims=True)
    dy = y - y.mean(axis=-1, keepdims=True)
    slope = np.sum(dx * dy, axis=-1) / np.sum(dx * dx, axis=-1)
    resid = dy - slope[..., None] * dx
    return slope, np.sum(resid * resid, axis=-1)


def _in_range(scales: np.ndarray, s_range: tuple[int, int]) -> np.ndarray:
    """Mask of the grid scales with s_lo <= s <= s_hi; at least two must be in."""
    lo, hi = s_range
    mask = (scales >= lo) & (scales <= hi)
    if int(mask.sum()) < 2:
        raise InsufficientDataError(
            f"range [{lo}, {hi}] holds {int(mask.sum())} grid point(s); need >= 2"
        )
    return mask


def fit_power_law(
    f: np.ndarray, scales: np.ndarray, window_len: int = FIT_WINDOW
) -> ScalingFit:
    """Fit F(s) ~ s^H, F on ``scales``, over the range rule's window.

    H is the slope of :func:`detect_scaling_range` for the one row
    ``f``; the fit adds the stderr, rss and point count.  No usable
    window is a DegenerateInputError.
    """
    f = np.asarray(f)
    (lo,), _ = detect_scaling_range(f[None], scales, window_len)
    if lo < 0:
        raise DegenerateInputError(
            f"F(s) is 0 or not finite in every window of {window_len} grid points"
        )
    s = np.asarray(scales, dtype=np.float64)[lo : lo + window_len]
    x = np.log(s)
    slope, rss = _ols(x, np.log(f[lo : lo + window_len]))
    sxx = np.sum((x - x.mean()) ** 2)
    stderr = np.sqrt(rss / (window_len - 2) / sxx) if window_len > 2 else 0.0
    return ScalingFit(
        h=float(slope),
        stderr=float(stderr),
        s_lo=int(s[0]),
        s_hi=int(s[-1]),
        rss=float(rss),
        n_points=window_len,
    )


def detect_scaling_range(
    f_matrix: np.ndarray, scales: np.ndarray, window_len: int = FIT_WINDOW
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's window of window_len grid points with the smallest rss.

    The rows of ``f_matrix`` are F on ``scales``.  Returns each row's
    window start, an index into ``scales``, and the window's slope.
    Ties break to the earliest window.  A window that touches a
    nonpositive or non-finite F never wins; a row left with none gets
    start -1 and slope NaN.  ``scales`` gets the kernels' check with a
    minimum of 1 and no maximum, and an ``f_matrix`` that is not 2-d
    with one column per scale is a DataError.
    """
    scales = _check_scales(scales, np.inf, 1)
    f_matrix = np.asarray(f_matrix)
    if f_matrix.ndim != 2 or f_matrix.shape[1] != len(scales):
        raise DataError("f_matrix must be 2-d with one column per scale")
    if window_len < 2:
        raise ConfigError(f"window_len must be >= 2, got {window_len}")
    if window_len > len(scales):
        raise ConfigError(
            f"window_len {window_len} exceeds the {len(scales)}-point scale grid"
        )
    logf = np.log(np.where(np.isfinite(f_matrix) & (f_matrix > 0), f_matrix, np.nan))
    slopes, rss = _ols(
        sliding_window_view(np.log(scales.astype(np.float64)), window_len),
        sliding_window_view(logf, window_len, axis=-1),
    )
    # a window touching a bad F has NaN slope and rss, and never wins
    rss[np.isnan(rss)] = np.inf
    best = np.argmin(rss, axis=1)
    start = np.where(np.isinf(rss.min(axis=1)), -1, best)
    return start, slopes[np.arange(len(best)), best]


def estimate(
    r: ReturnSeries, est: Estimator, range_policy: str = "full"
) -> tuple[np.ndarray, np.ndarray, ScalingFit]:
    """Scales, F of the returns' profile, and the fit over the range rule's window.

    F is computed on ``profile(r.values)`` over ``default_scales(len(r))``.
    ``range_policy`` ``"full"`` is the one window of the whole grid, and
    ``"auto"`` the minimal-residual window of ``FIT_WINDOW`` grid points.
    """
    if range_policy not in RANGE_POLICIES:
        raise DataError(f"range_policy must be one of {RANGE_POLICIES}")
    scales = default_scales(len(r))
    f = fluctuation(profile(r.values), scales, est)
    n_fit = len(scales) if range_policy == "full" else FIT_WINDOW
    return scales, f, fit_power_law(f, scales, n_fit)
