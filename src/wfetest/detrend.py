"""Fluctuation functions over scale grids: DMA and DFA.

Both detrenders consume a profile, a plain float64 array (cumulative
sum of demeaned increments), and produce the root-mean-square detrended
residual F(s) over a grid of whole box sizes s, an int64 array; every
kernel call checks its grid once, in :func:`_check_scales`.

DMA subtracts a moving average of span s whose placement is set by the
position parameter theta in [0, 1]: the window at index i covers
ceil((s-1)*(1-theta)) points in the past and floor((s-1)*theta) points
in the future, so theta=0 is the backward average, theta=0.5 centered,
theta=1 forward.  Only indices whose full window lies inside the series
contribute, and F(s) is normalized by the count of those indices.  The
window sums are differences of a prefix sum held as a float64 pair
hi + lo: hi is the running float64 sum and lo the running sum of its
exact rounding errors (TwoSum), so the prefix is good to about
n^2 * 2^-106 in IEEE double alone.  Each block of rows is processed as
flat 1-D arrays, one pass per scale.

DFA fits a least-squares polynomial of a given order in non-overlapping
boxes of length s, covering the series once from the first point and
once from the last point backward; every box's residuals enter the RMS,
so points covered twice contribute twice.  When s divides n both covers
are the same boxes, so they are detrended once and counted twice.  The
boxes are reshaped views of the profile, detrended against a per-(s,
order) basis that is built once per process.  The rows go through in
cache-sized blocks, and each block runs through every scale and cover
while it is in cache, in residual and coefficient buffers allocated
once per call.

Both kernels reduce their residuals the same way: each row's residuals
for a scale (one DMA pass, or one DFA cover) are summed as squares by
BLAS dots of at most DOT_CELLS values, added in order
(:func:`_row_sum_squares`).  The cap keeps each dot on one BLAS thread,
so F does not depend on the BLAS thread count.

Both kernels accept a batch of profiles as a 2-d array and treat rows
independently: a row's F is computed the same way whatever rows share
its block, so it never depends on the batch around it.  The
single-series :func:`fluctuation` is the one-row case, so every caller
shares one numerical path; it checks that its profile is one row and
that F is finite, and returns F as a plain read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, InsufficientDataError, ScaleRangeError
from .timeseries import _check_row, _readonly

# Minimum number of grid points: scaling.FIT_WINDOW, the 15 points of the
# auto range's fit window, plus one point of slack.
MIN_GRID_POINTS = 16

# Density of the one scale grid that every estimate uses.
_POINTS_PER_DECADE = 20

DMA_MIN_SCALE = 3

# Both kernels work through the rows in blocks of about this many
# profile cells (512 kB of float64), and each block stays in cache
# while it runs through every scale.  DFA blocks hold this many cells
# and reuse a residual buffer of the same size; DMA blocks hold half,
# since DMA keeps six float64 arrays of a block's size (about 1.5 MB),
# which measured best of 2^14 to 2^16 cells at n = 1,000 to 7,400.
BLOCK_CELLS = 1 << 16

# A row's sum of squares is taken as BLAS dots of at most this many
# values, added in order.  OpenBLAS splits a dot of more than 10,000
# values over its threads, and the sum then depends on
# OPENBLAS_NUM_THREADS; a dot this short runs on one thread.
DOT_CELLS = 1 << 13


@dataclass(frozen=True)
class Estimator:
    """Which detrender to run: DMA with a theta, or DFA with an order."""

    kind: str
    theta: float = 0.0
    order: int = 1

    def __post_init__(self):
        if self.kind not in ("dma", "dfa"):
            raise DataError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "dma" and not 0.0 <= self.theta <= 1.0:
            raise DataError(f"theta must be in [0, 1], got {self.theta}")
        if self.kind == "dfa" and self.order < 1:
            raise DataError(f"dfa order must be >= 1, got {self.order}")

    @classmethod
    def dma(cls, theta: float) -> "Estimator":
        return cls("dma", theta=theta)

    @classmethod
    def dfa(cls, order: int = 1) -> "Estimator":
        return cls("dfa", order=order)

    @property
    def tag(self) -> str:
        if self.kind == "dma":
            named = {0.0: "BDMA", 0.5: "CDMA", 1.0: "FDMA"}
            return named.get(self.theta, f"DMA(theta={self.theta:g})")
        return "DFA" if self.order == 1 else f"DFA({self.order})"

    def fluctuation_matrix(self, profiles: np.ndarray, scales: np.ndarray) -> np.ndarray:
        if self.kind == "dma":
            return dma_fluctuation_matrix(profiles, scales, self.theta)
        return dfa_fluctuation_matrix(profiles, scales, self.order)


def default_scales(n: int) -> np.ndarray:
    """The scale grid of length n: read-only int64 scales from 10 to n // 10.

    The grid is a logspace of 20 points a decade and at least
    MIN_GRID_POINTS points, rounded to integers; where rounding leaves
    fewer than MIN_GRID_POINTS distinct scales, the logspace is doubled
    until enough come out.  Raises InsufficientDataError when
    [10, n // 10] cannot hold that many integers.
    """
    s_max = n // 10
    available = s_max - 10 + 1
    if available < MIN_GRID_POINTS:
        raise InsufficientDataError(
            f"series of length {n} supports {max(available, 0)} scales in "
            f"[10, {s_max}]; need at least {MIN_GRID_POINTS}"
        )
    decades = math.log10(s_max / 10.0)
    num = max(math.ceil(_POINTS_PER_DECADE * decades) + 1, MIN_GRID_POINTS)
    while True:
        scales = np.unique(
            np.round(np.logspace(1.0, math.log10(s_max), num)).astype(np.int64)
        )
        if len(scales) >= MIN_GRID_POINTS:
            return _readonly(scales, np.int64)
        # terminates: a dense enough logspace rounds onto every integer in range
        num *= 2


def _window_split(s: int, theta: float) -> tuple[int, int]:
    """(past, future) point counts for the DMA window at box size s.

    future = floor((s-1)*theta), past = (s-1) - future, so the window
    always holds exactly s points.  Products within 1e-9 of an integer
    are snapped before flooring so that thetas like 0.3 behave as
    written despite binary rounding.
    """
    a = (s - 1) * theta
    if abs(a - round(a)) < 1e-9:
        a = round(a)
    future = int(math.floor(a))
    past = (s - 1) - future
    return past, future


def dma_fluctuation_matrix(
    profiles: np.ndarray, scales: np.ndarray, theta: float
) -> np.ndarray:
    """F(s) for each profile row; returns shape (rows, len(scales)).

    Each block of m rows keeps three (m, n + 1) float64 arrays: x, the
    rows shifted one column right after a 0; hi = cumsum(x) per row; and
    lo, the per-row running sum of each step's TwoSum error
    e_i = (hi[i-1] - (hi[i] - b)) + (x[i] - b) with b = hi[i] - hi[i-1]
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)).  hi + lo
    is the prefix sum to about n^2 * 2^-106 relative, and a window sum is
    (hi[s:] - hi[:-s]) + (lo[s:] - lo[:-s]).

    Every per-scale pass runs on flat 1-D views of the block.  Positions
    whose window straddles a row end are computed but never read: the
    sum of squares reads only each row's n + 1 - s valid positions, so a
    row's F never depends on its neighbours.  That sum is
    :func:`_row_sum_squares` of the valid positions.

    A single float64 prefix would be off by about eps * |prefix| in every
    window: on a ramp of slope 0.7318 from 1e4 (n = 7,400) with 1e-3
    noise, its CDMA F is 6.5e-9 off an extended-precision reference,
    against 1.5e-11 for this kernel (``tests/test_detrend.py``).
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    rows, n = profiles.shape
    scales = _check_scales(scales, n, DMA_MIN_SCALE)

    block = max(1, min(rows, BLOCK_CELLS // 2 // (n + 1)))
    x, hi, lo, win, win_lo = np.empty((5, block, n + 1), dtype=np.float64)
    x[:, 0] = 0.0
    out = np.empty((rows, len(scales)), dtype=np.float64)
    for r0 in range(0, rows, block):
        m = min(block, rows - r0)
        x[:m, 1:] = profiles[r0 : r0 + m]
        np.cumsum(x[:m], axis=1, out=hi[:m])
        xf, hf, lf, wf, wlf = (a[:m].reshape(-1) for a in (x, hi, lo, win, win_lo))
        # lo: running sum of each step's TwoSum error, 0 at each row start
        b = np.subtract(hf[1:], hf[:-1], out=wf[1:])
        e = np.subtract(hf[1:], b, out=lf[1:])
        np.subtract(hf[:-1], e, out=e)
        np.subtract(xf[1:], b, out=b)
        np.add(e, b, out=e)
        lo[:m, 0] = 0.0
        np.cumsum(lo[:m], axis=1, out=lo[:m])
        for j, s in enumerate(scales):
            s = int(s)
            past, _ = _window_split(s, theta)
            size = len(hf) - s
            resid = np.subtract(hf[s:], hf[:-s], out=wf[:size])
            resid_lo = np.subtract(lf[s:], lf[:-s], out=wlf[:size])
            np.add(resid, resid_lo, out=resid)
            np.divide(resid, s, out=resid)
            np.subtract(xf[past + 1 : past + 1 + size], resid, out=resid)
            valid = win[:m, : n + 1 - s]
            out[r0 : r0 + m, j] = np.sqrt(_row_sum_squares(valid) / (n + 1 - s))
    return out


def _row_sum_squares(rows: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of a 2-d array.

    Each row goes to BLAS as dots of at most DOT_CELLS values (a stacked
    ``matmul`` of a (1, L) by an (L, 1) slice is one ``cblas_ddot``), and
    the pieces are added in order.
    """
    total = np.zeros(len(rows), dtype=np.float64)
    for c0 in range(0, rows.shape[1], DOT_CELLS):
        piece = rows[:, c0 : c0 + DOT_CELLS]
        total += np.matmul(piece[:, None, :], piece[:, :, None])[:, 0, 0]
    return total


@lru_cache(maxsize=256)
def _dfa_basis(s: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only design matrix of a box of length s and its transposed pseudo-inverse."""
    # local abscissa scaled to [-1, 1] keeps the fit well conditioned
    t = np.arange(s, dtype=np.float64) - (s - 1) / 2.0
    design = np.vander(t / t[-1], order + 1, increasing=True)
    pinv_t = np.linalg.pinv(design).T
    design.setflags(write=False)
    pinv_t.setflags(write=False)
    return design, pinv_t


def dfa_fluctuation_matrix(
    profiles: np.ndarray, scales: np.ndarray, order: int
) -> np.ndarray:
    """F(s) for each profile row; returns shape (rows, len(scales)).

    Each box's fit is ``boxes @ pinv_t @ design.T`` with the cached
    :func:`_dfa_basis` of (s, order).  A cover's k boxes of residuals lie
    flat in each row, so their sum of squares is one
    :func:`_row_sum_squares` of the (m, k * s) residuals, and a row's
    total is that of the forward cover plus that of the backward one.
    When s divides n the backward cover starts at 0, so only the forward
    cover is detrended and its sum is doubled, which is exact.

    The rows go through in blocks of ``BLOCK_CELLS // n``, and each block
    runs through every scale and cover while it is in cache, so the
    profiles are read from memory once rather than once per scale and
    cover.  The per-scale plan (s, k, cover starts, basis) and two flat
    buffers are made once per call; for a block of m rows, each scale
    views them as its (m, k, s) residuals and (m, k, order + 1) fit
    coefficients.
    """
    if order < 1:
        raise DataError(f"dfa order must be >= 1, got {order}")
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    rows, n = profiles.shape
    scales = _check_scales(scales, n, order + 2)

    plan = []
    for s in map(int, scales):
        k = n // s
        design, pinv_t = _dfa_basis(s, order)
        starts = (0,) if k * s == n else (0, n - k * s)
        plan.append((s, k, starts, pinv_t, design.T))
    k_max = max(k for _, k, *_ in plan)
    block = max(1, BLOCK_CELLS // n)
    # flat buffers, viewed per scale as (m, k, s) and (m, k, order + 1)
    m_max = min(block, rows)
    res_buf = np.empty(m_max * n, dtype=np.float64)
    coef_buf = np.empty(m_max * k_max * (order + 1), dtype=np.float64)
    out = np.empty((rows, len(scales)), dtype=np.float64)
    for r0 in range(0, rows, block):
        part = profiles[r0 : r0 + block]
        m = len(part)
        for j, (s, k, starts, pinv_t, design_t) in enumerate(plan):
            res = res_buf[: m * k * s].reshape(m, k, s)
            coef = coef_buf[: m * k * (order + 1)].reshape(m, k, order + 1)
            total = 0.0
            for start in starts:
                boxes = part[:, start : start + k * s].reshape(m, k, s)
                np.matmul(boxes, pinv_t, out=coef)
                np.matmul(coef, design_t, out=res)
                np.subtract(boxes, res, out=res)
                total += _row_sum_squares(res.reshape(m, k * s))
            if len(starts) == 1:
                total *= 2
            out[r0 : r0 + m, j] = np.sqrt(total / (2 * k * s))
    return out


def _check_scales(scales, n: int, min_scale: int) -> np.ndarray:
    """``scales`` as int64, checked as a kernel's box sizes on n points.

    The one check of every scale array a kernel receives: a DataError
    unless it is whole numbers (4.0 counts as 4) in a 1-d, nonempty and
    strictly increasing array, and a ScaleRangeError unless it runs from
    at least ``min_scale`` to at most n.
    """
    given = np.asarray(scales)
    numeric = given.dtype.kind in "iuf"
    if not (numeric and np.all(np.isfinite(given) & (given == np.round(given)))):
        raise DataError("scales must be whole numbers")
    if given.ndim != 1 or len(given) == 0 or np.any(given[1:] <= given[:-1]):
        raise DataError("scales must be a nonempty, strictly increasing 1-d array")
    if given[0] < min_scale:
        raise ScaleRangeError(f"scale {int(given[0])} below method minimum {min_scale}")
    if given[-1] > n:
        raise ScaleRangeError(f"scale {int(given[-1])} exceeds series length {n}")
    return given.astype(np.int64, copy=False)


def fluctuation(y: np.ndarray, scales: np.ndarray, est: Estimator) -> np.ndarray:
    """F of one profile on ``scales``: a read-only float64 1-d array.

    ``y`` is any 1-d, nonempty and finite array, such as a ``profile``
    or a ramp; anything else is a DataError before the kernel runs.  The
    kernel checks ``scales``, and an F that is not finite, such as one
    whose sum of squares overflows, is a DataError too.
    """
    y = _check_row(y, "profile")
    f = est.fluctuation_matrix(y, scales)[0]
    if not np.all(np.isfinite(f)):
        raise DataError("fluctuation values must be finite")
    return _readonly(f, np.float64)
