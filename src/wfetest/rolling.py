"""Estimate-and-test pipeline in moving windows.

Each window of ``window_size`` consecutive returns gets the whole
treatment: profile, fluctuation function on a grid built for the window
length, minimal-residual scaling-range search over a fixed number of
grid points, exponent fit, and a shuffle ensemble over the SAME range.
The result row is the window's whole shuffle test; its flag says where
H falls against the ensemble's 2.5/97.5% band.

Windows are independent work units, and every window, in this process
or in a worker, runs through :func:`window_result`; a worker is sent
only its own window's returns.  Replicate seeds mix the base seed
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
from .shuffletest import (
    DEFAULT_SEED,
    ShuffleTestResult,
    _check_shuffle_args,
    efficiency_test,
    worker_map,
)
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
    window: ReturnSeries,
    start: int,
    est: Estimator,
    grid: ScaleGrid | None = None,
    window_len: int = DEFAULT_FIT_WINDOW,
    n_shuffles: int = 1000,
    seed: int = DEFAULT_SEED,
) -> WindowResult:
    """Full pipeline on one window of returns, which starts at index ``start``.

    ``window`` holds only the window's own returns; ``start`` is where it
    begins in the whole series.  Replicate seeds depend only on (seed,
    start, replicate index), never on which other windows are being
    computed, so this reproduces the corresponding row of
    :func:`rolling_analysis` bit-exactly.
    """
    if start < 0:
        raise ConfigError(f"window start must be >= 0, got {start}")
    res = efficiency_test(
        window,
        est,
        grid=grid,
        range_policy="auto",
        window_len=window_len,
        n_replicates=n_shuffles,
        seed=seed,
        spawn_prefix=(start,),
    )
    return WindowResult(window.dates[-1], res)


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
    ordered by window position regardless of worker scheduling.  The
    windows run on one :func:`worker_map` block of up to ``workers``
    processes; each window's shuffles run serially in its worker.
    ``progress`` is called as ``progress(done, total)`` after each
    window finishes.
    """
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    _check_shuffle_args(n_shuffles, seed)
    try:
        grid = default_scales(window_size)
    except InsufficientDataError as exc:
        raise ConfigError(f"window_size {window_size} too small: {exc}") from exc
    if len(r.values) < window_size:
        raise ConfigError(
            f"series has {len(r.values)} returns, fewer than the window "
            f"size {window_size}"
        )

    # a job is its window's start and slices, never the whole series
    starts = range(0, len(r.values) - window_size + 1, step)
    windows = [
        ReturnSeries(r.dates[start : start + window_size], r.values[start : start + window_size])
        for start in starts
    ]
    test = partial(
        window_result, est=est, grid=grid, window_len=window_len,
        n_shuffles=n_shuffles, seed=seed,
    )
    results: list[WindowResult] = []
    with worker_map(workers, len(windows)) as pmap:
        for res in pmap(test, windows, starts):
            results.append(res)
            if progress is not None:
                progress(len(results), len(windows))
    return results
