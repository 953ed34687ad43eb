"""Power-law fitting of fluctuation functions and exponent conversions.

The scaling exponent H is the slope of an ordinary least-squares fit of
ln F against ln s.  The automatic scaling-range search slides a window
of exactly ``window_len`` grid points across the grid and keeps the
window with the smallest fitting residual, ties going to the earliest
window.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    f: FluctuationFunction, s_range: tuple[int, int]
) -> ScalingFit:
    """Fit F(s) ~ s^H over grid points with s_lo <= s <= s_hi.

    The recorded range is snapped to the smallest and largest grid
    scales actually fitted.
    """
    mask = _in_range(f.scales, s_range)
    n_points = int(mask.sum())
    fv = f.f[mask]
    if np.any(fv <= 0):
        raise DegenerateInputError("F(s) = 0 inside the fit range; log undefined")
    x = np.log(f.scales[mask].astype(np.float64))
    y = np.log(fv)
    slope, rss = _ols(x, y)
    sxx = np.sum((x - x.mean()) ** 2)
    stderr = np.sqrt(rss / (n_points - 2) / sxx) if n_points > 2 else 0.0
    return ScalingFit(
        h=float(slope),
        stderr=float(stderr),
        s_lo=int(f.scales[mask][0]),
        s_hi=int(f.scales[mask][-1]),
        rss=float(rss),
        n_points=n_points,
    )


def detect_scaling_range(
    f: FluctuationFunction, window_len: int = DEFAULT_FIT_WINDOW
) -> tuple[int, int]:
    """Scaling range: the window_len-point window with the smallest rss.

    Ties break to the smaller s_lo.  Raises InsufficientDataError when
    no window of window_len consecutive positive-F points exists.
    """
    if window_len < 2:
        raise DataError("window_len must be >= 2")
    usable = np.isfinite(f.f) & (f.f > 0)
    if int(usable.sum()) < window_len:
        raise InsufficientDataError(
            f"grid has {int(usable.sum())} usable points; need >= {window_len}"
        )
    logf = np.where(usable, np.log(np.where(usable, f.f, 1.0)), np.nan)
    logs = np.log(f.scales.astype(np.float64))
    _, rss = _ols(
        sliding_window_view(logs, window_len), sliding_window_view(logf, window_len)
    )
    # a window touching a nonpositive F has rss NaN and never wins
    rss = np.where(np.isnan(rss), np.inf, rss)
    best = int(np.argmin(rss))
    if not np.isfinite(rss[best]):
        raise InsufficientDataError(
            f"no window of {window_len} consecutive positive-F grid points"
        )
    return int(f.scales[best]), int(f.scales[best + window_len - 1])


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


def slopes_in_range(f_matrix: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Per-row log-log slopes over every scale column given.

    Batch companion to :func:`fit_power_law` for shuffle ensembles,
    which are computed on the fitted scales only: rows whose F is
    nonpositive or non-finite anywhere come back as NaN instead of
    raising.  A C-ordered row is summed exactly as fit_power_law sums it.
    """
    x = np.log(np.asarray(scales, dtype=np.float64))
    ok = np.all(np.isfinite(f_matrix) & (f_matrix > 0), axis=1)
    slopes, _ = _ols(x, np.log(np.where(ok[:, None], f_matrix, 1.0)))
    return np.where(ok, slopes, np.nan)
