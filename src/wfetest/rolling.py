"""Estimate-and-test pipeline in moving windows.

Each window of ``window_size`` consecutive returns gets the whole
treatment: profile, fluctuation function on a grid built for the window
length, minimal-residual scaling-range search over a fixed number of
grid points, exponent fit, and a shuffle ensemble over the SAME range.
The result row is the window's whole shuffle test; its flag says where
H falls against the ensemble's 2.5/97.5% band.

Windows are independent work units.  Replicate seeds mix the base seed
with the window's start index, so any single window recomputes in
isolation to bit-identical values and dropping data after some date
leaves all earlier-ending windows unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .detrend import Estimator, ScaleGrid, default_scales
from .errors import ConfigError, InsufficientDataError
from .scaling import DEFAULT_FIT_WINDOW
from .shuffletest import DEFAULT_SEED, ShuffleTestResult, _ordered_map, efficiency_test
from .timeseries import ReturnSeries

WINDOW_CSV_HEADER = "end_date,H,q025,q975,flag,s_lo,s_hi"


@dataclass(frozen=True)
class WindowResult:
    """One window's shuffle test, dated by the window's last return."""

    end_date: np.datetime64
    result: ShuffleTestResult

    @property
    def flag(self) -> str:
        """Where H lies against the band; the band edges count as inside."""
        res = self.result
        if res.h < res.q025:
            return "below"
        if res.h > res.q975:
            return "above"
        return "inside"

    @property
    def outside(self) -> bool:
        return self.flag != "inside"

    def csv_row(self) -> str:
        res = self.result
        return (
            f"{self.end_date},{float(res.h)!r},{res.q025!r},{res.q975!r},"
            f"{self.flag},{int(res.s_lo)},{int(res.s_hi)}"
        )


def window_result(
    r: ReturnSeries,
    start: int,
    window_size: int,
    est: Estimator,
    grid: ScaleGrid | None = None,
    window_len: int = DEFAULT_FIT_WINDOW,
    n_shuffles: int = 1000,
    seed: int = DEFAULT_SEED,
) -> WindowResult:
    """Full pipeline on the window of returns starting at ``start``.

    Replicate seeds depend only on (seed, start, replicate index), never
    on which other windows are being computed, so this reproduces the
    corresponding row of :func:`rolling_analysis` bit-exactly.
    """
    if start < 0 or start + window_size > len(r.values):
        raise ConfigError(
            f"window [{start}, {start + window_size}) outside the "
            f"{len(r.values)} available returns"
        )
    return _window_test(
        _window_job(r, start, window_size), est, grid, window_len, n_shuffles, seed
    )


def _window_job(r: ReturnSeries, start: int, window_size: int) -> tuple:
    # a job carries its own window only: a worker is sent these slices,
    # never the whole series
    stop = start + window_size
    return start, r.dates[start:stop], r.values[start:stop]


def _window_test(
    job: tuple, est: Estimator, grid: ScaleGrid | None, window_len: int,
    n_shuffles: int, seed: int,
) -> WindowResult:
    start, dates, values = job
    sub = ReturnSeries(dates, values)
    res = efficiency_test(
        sub,
        est,
        grid=grid,
        range_policy="auto",
        window_len=window_len,
        n_replicates=n_shuffles,
        seed=seed,
        spawn_prefix=(start,),
    )
    return WindowResult(sub.dates[-1], res)


def rolling_analysis(
    r: ReturnSeries,
    window_size: int = 1000,
    step: int = 1,
    est: Estimator = Estimator.dfa(),
    n_shuffles: int = 1000,
    window_len: int = DEFAULT_FIT_WINDOW,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[WindowResult]:
    """One WindowResult per window of returns, advancing by ``step``.

    Produces exactly ``(n_returns - window_size) // step + 1`` results,
    ordered by window position regardless of worker scheduling.
    ``progress`` is called as ``progress(done, total)`` after each
    window finishes.
    """
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    if n_shuffles < 1:
        raise ConfigError(f"n_shuffles must be >= 1, got {n_shuffles}")
    try:
        grid = default_scales(window_size)
    except InsufficientDataError as exc:
        raise ConfigError(f"window_size {window_size} too small: {exc}") from exc
    if len(r.values) < window_size:
        raise ConfigError(
            f"series has {len(r.values)} returns, fewer than the window "
            f"size {window_size}"
        )

    jobs = [
        _window_job(r, start, window_size)
        for start in range(0, len(r.values) - window_size + 1, step)
    ]
    test = partial(
        _window_test, est=est, grid=grid, window_len=window_len,
        n_shuffles=n_shuffles, seed=seed,
    )
    results: list[WindowResult] = []
    for res in _ordered_map(test, jobs, workers):
        results.append(res)
        if progress is not None:
            progress(len(results), len(jobs))
    return results
