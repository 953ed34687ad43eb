"""Power-law fitting of fluctuation functions and exponent conversions.

The scaling exponent H is the slope of an ordinary least-squares fit of
ln F against ln s.  The automatic scaling-range search slides a window
of exactly ``window_len`` grid points across the grid and keeps the
window with the smallest fitting residual, ties going to the earliest
window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detrend import Estimator, FluctuationFunction, ScaleGrid, fluctuation
from .errors import DataError, DegenerateInputError, InsufficientDataError
from .timeseries import Profile

DEFAULT_FIT_WINDOW = 15

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

    def to_json_dict(self) -> dict:
        return {
            "H": self.h,
            "stderr": self.stderr,
            "s_lo": self.s_lo,
            "s_hi": self.s_hi,
            "rss": self.rss,
            "n_points": self.n_points,
        }


@dataclass(frozen=True)
class ExponentRelations:
    """H with its power-spectrum and autocorrelation counterparts."""

    h: float
    eta: float
    gamma: float

    def __post_init__(self):
        if self.eta != 2.0 * self.h - 1.0 or self.gamma != 2.0 - 2.0 * self.h:
            raise DataError("eta and gamma must equal 2H-1 and 2-2H exactly")


class WindowScan(NamedTuple):
    """Per-window diagnostics from the scaling-range search."""

    s_lo: np.ndarray
    s_hi: np.ndarray
    slope: np.ndarray
    rss: np.ndarray


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, rss, and slope standard error of y on x."""
    dx = x - x.mean()
    sxx = float(dx @ dx)
    dy = y - y.mean()
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    rss = float(resid @ resid)
    n = len(x)
    stderr = np.sqrt(rss / (n - 2) / sxx) if n > 2 else 0.0
    return slope, rss, float(stderr)


def fit_power_law(
    f: FluctuationFunction, s_range: tuple[int, int]
) -> ScalingFit:
    """Fit F(s) ~ s^H over grid points with s_lo <= s <= s_hi.

    The recorded range is snapped to the smallest and largest grid
    scales actually fitted.
    """
    lo, hi = s_range
    mask = (f.scales >= lo) & (f.scales <= hi)
    n_points = int(mask.sum())
    if n_points < 2:
        raise InsufficientDataError(
            f"range [{lo}, {hi}] holds {n_points} grid point(s); need >= 2"
        )
    fv = f.f[mask]
    if np.any(fv <= 0):
        raise DegenerateInputError("F(s) = 0 inside the fit range; log undefined")
    x = np.log(f.scales[mask].astype(np.float64))
    y = np.log(fv)
    slope, rss, stderr = _ols(x, y)
    return ScalingFit(
        h=slope,
        stderr=stderr,
        s_lo=int(f.scales[mask][0]),
        s_hi=int(f.scales[mask][-1]),
        rss=rss,
        n_points=n_points,
    )


def scan_windows(
    f: FluctuationFunction, window_len: int = DEFAULT_FIT_WINDOW
) -> WindowScan:
    """OLS slope and rss for every contiguous window of grid points.

    Windows containing a nonpositive F carry rss = inf.
    """
    if window_len < 2:
        raise DataError("window_len must be >= 2")
    if len(f) < window_len:
        raise InsufficientDataError(
            f"grid has {len(f)} points; need >= {window_len}"
        )
    usable = np.isfinite(f.f) & (f.f > 0)
    logf = np.where(usable, np.log(np.where(usable, f.f, 1.0)), np.nan)
    logs = np.log(f.scales.astype(np.float64))

    yw = sliding_window_view(logf, window_len)
    xw = sliding_window_view(logs, window_len)
    dx = xw - xw.mean(axis=1, keepdims=True)
    sxx = np.sum(dx * dx, axis=1)
    dy = yw - yw.mean(axis=1, keepdims=True)
    slope = np.sum(dx * dy, axis=1) / sxx
    resid = dy - slope[:, None] * dx
    rss = np.sum(resid * resid, axis=1)
    rss = np.where(np.isnan(rss), np.inf, rss)
    return WindowScan(
        s_lo=f.scales[: len(rss)].copy(),
        s_hi=f.scales[window_len - 1 :].copy(),
        slope=slope,
        rss=rss,
    )


def detect_scaling_range(
    f: FluctuationFunction, window_len: int = DEFAULT_FIT_WINDOW
) -> tuple[int, int]:
    """Scaling range: the window_len-point window with the smallest rss.

    Ties break to the smaller s_lo.  Raises InsufficientDataError when
    no window of window_len consecutive positive-F points exists.
    """
    usable = np.isfinite(f.f) & (f.f > 0)
    if int(usable.sum()) < window_len:
        raise InsufficientDataError(
            f"grid has {int(usable.sum())} usable points; need >= {window_len}"
        )
    scan = scan_windows(f, window_len)
    best = int(np.argmin(scan.rss))
    if not np.isfinite(scan.rss[best]):
        raise InsufficientDataError(
            f"no window of {window_len} consecutive positive-F grid points"
        )
    return int(scan.s_lo[best]), int(scan.s_hi[best])


def estimate(
    y: Profile,
    grid: ScaleGrid,
    est: Estimator,
    range_policy: str = "full",
    window_len: int = DEFAULT_FIT_WINDOW,
) -> tuple[FluctuationFunction, ScalingFit]:
    """Fluctuation function of the profile and its power-law fit.

    ``range_policy`` is ``"full"`` (fit the whole grid) or ``"auto"``
    (the minimal-residual window of ``window_len`` grid points).
    """
    if range_policy not in RANGE_POLICIES:
        raise DataError(f"range_policy must be one of {RANGE_POLICIES}")
    f = fluctuation(y, grid, est)
    if range_policy == "auto":
        s_range = detect_scaling_range(f, window_len)
    else:
        s_range = (int(grid.scales[0]), int(grid.scales[-1]))
    return f, fit_power_law(f, s_range)


def exponent_relations(h: float) -> ExponentRelations:
    """Power-spectrum exponent 2H-1 and autocorrelation exponent 2-2H."""
    return ExponentRelations(h=h, eta=2.0 * h - 1.0, gamma=2.0 - 2.0 * h)


def slopes_in_range(
    f_matrix: np.ndarray, scales: np.ndarray, s_range: tuple[int, int]
) -> np.ndarray:
    """Per-row log-log slopes over a fixed scale range.

    Batch companion to :func:`fit_power_law` for shuffle ensembles: rows
    whose F is nonpositive or non-finite anywhere in the range come back
    as NaN instead of raising.
    """
    lo, hi = s_range
    scales = np.asarray(scales, dtype=np.int64)
    mask = (scales >= lo) & (scales <= hi)
    if int(mask.sum()) < 2:
        raise InsufficientDataError(
            f"range [{lo}, {hi}] holds {int(mask.sum())} grid point(s); need >= 2"
        )
    x = np.log(scales[mask].astype(np.float64))
    dx = x - x.mean()
    sxx = float(dx @ dx)

    sub = np.atleast_2d(f_matrix)[:, mask]
    ok = np.all(np.isfinite(sub) & (sub > 0), axis=1)
    y = np.log(np.where(sub > 0, sub, 1.0))
    dy = y - y.mean(axis=1, keepdims=True)
    slopes = np.sum(dy * dx, axis=1) / sxx
    return np.where(ok, slopes, np.nan)
