"""Permutation test of the no-memory null hypothesis.

The statistic is the scaling exponent H.  The return series is shuffled
``n_replicates`` times, the exponent of each shuffled series is
estimated over the SAME scaling range as the original, and the
two-tailed p-value is

    p = Prob(|H_s - <H_s>| > |H - <H_s>|)

with <H_s> the ensemble mean and the inequality strict, so ties favor
non-rejection.  The null is rejected at the 0.01 level.

Replicate i draws its permutation from a generator seeded by
``SeedSequence(base_seed, spawn_key=(*prefix, i))``, so any subset of
replicates can be recomputed independently and results are identical
for any worker count.  A replicate whose estimate is degenerate is
redrawn from indices past ``n_replicates`` (capped at 1% of the
ensemble) and the redraw count is reported.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .detrend import Estimator, ScaleGrid, default_scales
from .errors import ConfigError, DataError, EstimationError
from .scaling import DEFAULT_FIT_WINDOW, _in_range, estimate, slopes_in_range
from .timeseries import ReturnSeries, profile

DEFAULT_SEED = 42
SIGNIFICANCE_LEVEL = 0.01


@dataclass(frozen=True, eq=False)
class ShuffleTestResult:
    """Original exponent and shuffle ensemble; the statistics derive from them."""

    method: str
    h: float
    ensemble: np.ndarray = field(repr=False)
    seed: int
    s_lo: int
    s_hi: int
    n_redraws: int = 0

    def __post_init__(self):
        ensemble = np.ascontiguousarray(np.asarray(self.ensemble, dtype=np.float64))
        ensemble.setflags(write=False)
        object.__setattr__(self, "ensemble", ensemble)
        if len(ensemble) == 0:
            raise DataError("ensemble must be nonempty")
        if self.n_replicates >= 100 and not (
            self.q025 <= self.mean_hs <= self.q975
        ):
            raise DataError("ensemble mean outside its own 2.5/97.5% band")

    def __reduce__(self):
        # unpickle through the constructor: the ensemble comes back
        # read-only and checked, and no cached statistic is carried over
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_replicates(self) -> int:
        return len(self.ensemble)

    @cached_property
    def mean_hs(self) -> float:
        return float(self.ensemble.mean())

    @cached_property
    def p(self) -> float:
        return two_tailed_p(self.h, self.ensemble)

    @cached_property
    def _band(self) -> tuple[float, float]:
        q025, q975 = np.quantile(self.ensemble, [0.025, 0.975], method="linear")
        return float(q025), float(q975)

    @property
    def q025(self) -> float:
        return self._band[0]

    @property
    def q975(self) -> float:
        return self._band[1]

    @property
    def rejected(self) -> bool:
        return self.p < SIGNIFICANCE_LEVEL

    @property
    def verdict(self) -> str:
        return "rejected" if self.rejected else "not rejected"

    def summary(self) -> str:
        return (
            f"{self.method}: H={self.h:.3f} <H^s>={self.mean_hs:.3f} "
            f"p={self.p:.4f} -> null {self.verdict} at {SIGNIFICANCE_LEVEL:g}"
        )

    def to_json_dict(self, include_ensemble: bool = False) -> dict:
        out = {
            "method": self.method,
            "H": self.h,
            "mean_Hs": self.mean_hs,
            "p": self.p,
            "q025": self.q025,
            "q975": self.q975,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "s_lo": self.s_lo,
            "s_hi": self.s_hi,
            "n_redraws": self.n_redraws,
            "rejected_at_1pct": self.rejected,
        }
        if include_ensemble:
            out["ensemble"] = [float(v) for v in self.ensemble]
        return out


def replicate_rng(
    base_seed: int, index: int, prefix: tuple[int, ...] = ()
) -> np.random.Generator:
    """Generator for one replicate; depends only on (base_seed, prefix, index)."""
    seq = np.random.SeedSequence(base_seed, spawn_key=(*prefix, index))
    return np.random.Generator(np.random.PCG64(seq))


def two_tailed_p(h: float, ensemble: np.ndarray) -> float:
    """Fraction of the ensemble strictly farther from its mean than h is."""
    e = np.asarray(ensemble, dtype=np.float64)
    if len(e) == 0:
        raise DataError("ensemble must be nonempty")
    mean = float(e.mean())
    return float(np.count_nonzero(np.abs(e - mean) > abs(h - mean)) / len(e))


def _ordered_map(fn: Callable, jobs: Sequence, workers: int) -> Iterator:
    """Yield fn(job) for each job in order, on up to ``workers`` processes.

    Results never depend on the worker count; one job or one worker
    runs in this process, and the pool never outnumbers the jobs.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, jobs)
    else:
        yield from map(fn, jobs)


def _chunk_size(n: int) -> int:
    # at most 256 profile rows: 256 x 7,400 float64 is about 15 MB; depends only on n
    return int(min(256, max(16, (1 << 21) // max(n, 1))))


def _shuffled_slopes(
    values, est: Estimator, scales, base_seed: int, prefix: tuple, indices: range
) -> np.ndarray:
    """Exponents of the shuffled replicates ``indices``, fitted on all ``scales``."""
    rows = np.empty((len(indices), len(values)), dtype=np.float64)
    for row, i in zip(rows, indices):
        # the same swaps ``permutation`` makes on its copy
        row[:] = values
        replicate_rng(base_seed, i, prefix).shuffle(row)
    rows -= rows.mean(axis=1, keepdims=True)
    np.cumsum(rows, axis=1, out=rows)
    return slopes_in_range(est.fluctuation_matrix(rows, scales), scales)


def shuffle_exponents(
    values: np.ndarray,
    est: Estimator,
    scales: np.ndarray,
    s_range: tuple[int, int],
    n_replicates: int,
    base_seed: int,
    spawn_prefix: tuple[int, ...] = (),
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """Exponents of n_replicates shuffled series over a fixed range.

    Only the grid scales inside ``s_range`` are computed.  Returns the
    ensemble ordered by replicate index and the number of redraws that
    were needed for degenerate replicates.
    """
    if n_replicates < 1:
        raise DataError("n_replicates must be >= 1")
    if base_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {base_seed}")
    values = np.asarray(values, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.int64)
    slopes = partial(
        _shuffled_slopes, values, est, scales[_in_range(scales, s_range)],
        base_seed, spawn_prefix,
    )
    indices = range(n_replicates)
    chunk = _chunk_size(len(values))
    jobs = [indices[k : k + chunk] for k in indices[::chunk]]
    ensemble = np.concatenate(list(_ordered_map(slopes, jobs, workers)))

    # redraw degenerate replicates from indices past the ensemble
    max_redraws = max(1, n_replicates // 100)
    n_redraws = 0
    next_index = n_replicates
    for slot in np.flatnonzero(~np.isfinite(ensemble)):
        while True:
            if n_redraws >= max_redraws:
                raise EstimationError(
                    f"{n_redraws} replicate redraws exhausted the cap "
                    f"({max_redraws}); series is degenerate for {est.tag}"
                )
            n_redraws += 1
            redraw = slopes(range(next_index, next_index + 1))[0]
            next_index += 1
            if np.isfinite(redraw):
                ensemble[slot] = redraw
                break
    return ensemble, n_redraws


def efficiency_test(
    r: ReturnSeries,
    est: Estimator,
    grid: ScaleGrid | None = None,
    range_policy: str = "full",
    window_len: int = DEFAULT_FIT_WINDOW,
    n_replicates: int = 10000,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    spawn_prefix: tuple[int, ...] = (),
) -> ShuffleTestResult:
    """Estimate H, build the shuffle ensemble, and test the null H = <H_s>.

    ``range_policy`` is ``"full"`` (fit the whole grid, the default for
    whole-series runs) or ``"auto"`` (minimal-residual window of
    ``window_len`` grid points).  Shuffled replicates always reuse the
    original series' scaling range.
    """
    if grid is None:
        grid = default_scales(len(r.values))
    _, fit = estimate(profile(r), grid, est, range_policy, window_len)

    ensemble, n_redraws = shuffle_exponents(
        r.values, est, grid.scales, (fit.s_lo, fit.s_hi), n_replicates,
        seed, spawn_prefix, workers,
    )
    return ShuffleTestResult(
        method=est.tag,
        h=fit.h,
        ensemble=ensemble,
        seed=seed,
        s_lo=fit.s_lo,
        s_hi=fit.s_hi,
        n_redraws=n_redraws,
    )
