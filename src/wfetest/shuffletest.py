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
for any worker count.  :func:`replicate_rng` is that definition and
stays the contract.  A chunk of replicates does not build one
``SeedSequence`` per replicate: it mixes the entropy the chunk shares
once, mixes in all of its indices at once with uint32 arithmetic, and
hands each replicate's state words to ``PCG64``, which reproduces
``replicate_rng`` bit for bit.  Degenerate replicates take, in order,
the finite ones of one batch of redraws from the indices past
``n_replicates`` (1% of the ensemble, at least one), and the number of
redraw indices used is reported.

Replicates are mapped in chunks by an ordered ``map`` that the caller
passes in: the builtin ``map`` by default, or the map of a
:func:`worker_map` block, whose one process pool serves every ensemble
a command tests.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .detrend import Estimator, _check_scales
from .errors import ConfigError, DataError, EstimationError
from .scaling import _in_range, detect_scaling_range, estimate
from .timeseries import ReturnSeries, _check_row, _readonly

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
        ensemble = _readonly(self.ensemble, np.float64)
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


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


class _StateWords(ISeedSequence):
    """Hands a bit generator the state words that ``SeedSequence`` would derive."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _n_words(value: int) -> int:
    """How many uint32 words ``SeedSequence`` splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


# uint32 array arithmetic below wraps as SeedSequence's does
def _hashmix(value: np.ndarray, h: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """``SeedSequence``'s hash of uint32 words; the hashed words and the next constant."""
    after = h * mult & _M32
    value = (value ^ h) * after
    return value ^ value >> 16, after


def _mix(x: int, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of pool word x with hashed words y."""
    x = (_MIX_L * x & _M32) - _MIX_R * y
    return x ^ x >> 16


def _replicate_rngs(
    base_seed: int, prefix: tuple[int, ...], indices: range
) -> Iterator[np.random.Generator]:
    """``replicate_rng(base_seed, i, prefix)`` for each i in ``indices``.

    The seed words, zero-padded to four, and the prefix words are the
    entropy every index shares, so ``SeedSequence`` mixes them into the
    pool once.  The index, the last entropy word, is then mixed into all
    the pools as one uint32 array, and ``generate_state(4, np.uint64)``
    runs on all of them at once.  A chunk whose indices do not all fit
    one word falls back to :func:`replicate_rng`.
    """
    if indices[-1] > _M32:
        return (replicate_rng(base_seed, i, prefix) for i in indices)
    # the pool after the shared words is SeedSequence(base_seed,
    # spawn_key=prefix).pool, since padding the seed to four words hashes
    # the same zeros that fill an unpadded pool; mixing L >= 4 words takes
    # 4 * L hash steps (4 to fill the pool, 12 to cross-mix it, 4 per
    # further word)
    pool = [int(w) for w in np.random.SeedSequence(base_seed, spawn_key=prefix).pool]
    shared = max(4, _n_words(base_seed)) + sum(map(_n_words, prefix))
    h = _INIT_A * pow(_MULT_A, 4 * shared, 1 << 32) & _M32
    index = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint32)
    for dst in range(4):
        value, h = _hashmix(index, h)
        pool[dst] = _mix(pool[dst], value)
    state = np.empty((len(index), 8), dtype=np.uint32)
    h = _INIT_B
    for k in range(8):
        state[:, k], h = _hashmix(pool[k % 4], h, _MULT_B)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words)


def two_tailed_p(h: float, ensemble: np.ndarray) -> float:
    """Fraction of the ensemble strictly farther from its mean than h is."""
    e = np.asarray(ensemble, dtype=np.float64)
    if len(e) == 0:
        raise DataError("ensemble must be nonempty")
    mean = float(e.mean())
    return float(np.count_nonzero(np.abs(e - mean) > abs(h - mean)) / len(e))


@contextmanager
def worker_map(workers: int, jobs: int) -> Iterator[Callable[..., Iterator]]:
    """An ordered ``map`` for a block that maps lists of at most ``jobs`` jobs.

    With one worker or one job it is the builtin ``map``, and every job
    runs in this process.  Otherwise it is the ``map`` of one process
    pool of ``min(workers, jobs)`` workers, which serves every map of
    the block and shuts down when the block ends.  Results never depend
    on the worker count.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, jobs)
    if workers < 2:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _check_shuffle_args(n_shuffles: int, seed: int) -> None:
    """Reject a shuffle count or seed that no run could use, before any work."""
    if n_shuffles < 1:
        raise ConfigError(f"n_shuffles must be >= 1, got {n_shuffles}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _chunk_size(n: int) -> int:
    # at most 256 profile rows: 256 x 7,400 float64 is about 15 MB; depends only on n
    return int(min(256, max(16, (1 << 21) // max(n, 1))))


def _replicate_chunks(n: int, n_replicates: int) -> list[range]:
    """Replicate indices in the chunks mapped as jobs for a series of length n."""
    chunk = _chunk_size(n)
    indices = range(n_replicates)
    return [indices[k : k + chunk] for k in indices[::chunk]]


def _shuffled_slopes(
    values, est: Estimator, scales, base_seed: int, prefix: tuple, indices: range
) -> np.ndarray:
    """Exponents of the shuffled replicates ``indices``: the one window of all ``scales``.

    Every row is drawn first; then the whole chunk is demeaned and
    integrated in place, which gives each row the ``profile`` of its
    permutation whatever rows share the chunk.
    """
    rows = np.empty((len(indices), len(values)), dtype=np.float64)
    for row, rng in zip(rows, _replicate_rngs(base_seed, prefix, indices)):
        # the same swaps ``permutation`` makes on its copy
        row[:] = values
        rng.shuffle(row)
    rows -= rows.mean(axis=1, keepdims=True)
    np.cumsum(rows, axis=1, out=rows)
    return detect_scaling_range(est.fluctuation_matrix(rows, scales), scales, len(scales))[1]


def shuffle_exponents(
    values: np.ndarray,
    est: Estimator,
    scales: np.ndarray,
    s_range: tuple[int, int],
    n_replicates: int,
    base_seed: int,
    spawn_prefix: tuple[int, ...] = (),
    pmap: Callable[..., Iterator] = map,
) -> tuple[np.ndarray, int]:
    """Exponents of n_replicates shuffled series over a fixed range.

    A ``values`` array that is not 1-d, nonempty and finite, or a
    ``scales`` array that is not whole, 1-d, nonempty, strictly
    increasing and at most the series length, fails before any
    replicate is drawn; the kernel checks the method minimum.  Only the
    grid scales inside ``s_range`` are computed.  The chunks of
    replicates go through the ordered map ``pmap``, such as the map of a
    :func:`worker_map` block.  Returns the ensemble ordered by replicate
    index and the number of redraws used.  Degenerate (non-finite)
    replicates take, in order, the finite slopes of one batch of
    redraws from index ``n_replicates`` on, 1% of the ensemble and at
    least one; the count runs to the last redraw taken, and too few
    finite redraws raise ``EstimationError``.
    """
    _check_shuffle_args(n_replicates, base_seed)
    values = _check_row(values, "series")
    scales = _check_scales(scales, len(values), 1)
    slopes = partial(
        _shuffled_slopes, values, est, scales[_in_range(scales, s_range)],
        base_seed, spawn_prefix,
    )
    jobs = _replicate_chunks(len(values), n_replicates)
    ensemble = np.concatenate(list(pmap(slopes, jobs)))

    bad = np.flatnonzero(~np.isfinite(ensemble))
    if len(bad) == 0:
        return ensemble, 0
    max_redraws = max(1, n_replicates // 100)
    redraws = slopes(range(n_replicates, n_replicates + max_redraws))
    good = np.flatnonzero(np.isfinite(redraws))
    if len(good) < len(bad):
        raise EstimationError(
            f"{max_redraws} replicate redraws exhausted the cap "
            f"({max_redraws}); series is degenerate for {est.tag}"
        )
    ensemble[bad] = redraws[good[: len(bad)]]
    return ensemble, int(good[len(bad) - 1]) + 1


def efficiency_test(
    r: ReturnSeries,
    est: Estimator,
    range_policy: str = "full",
    n_replicates: int = 10000,
    seed: int = DEFAULT_SEED,
    pmap: Callable[..., Iterator] = map,
    spawn_prefix: tuple[int, ...] = (),
) -> ShuffleTestResult:
    """Estimate H, build the shuffle ensemble, and test the null H = <H_s>.

    H is fitted by :func:`estimate` on ``default_scales`` of the series
    length.  ``range_policy`` is ``"full"`` (fit the whole grid, the
    default for whole-series runs) or ``"auto"`` (minimal-residual
    window of ``FIT_WINDOW`` grid points).  Shuffled replicates always
    reuse the original series' scaling range, and the ensemble is mapped
    with ``pmap`` as in :func:`shuffle_exponents`.  A bad replicate count
    or seed fails before anything is estimated.
    """
    _check_shuffle_args(n_replicates, seed)
    scales, _, fit = estimate(r, est, range_policy)

    ensemble, n_redraws = shuffle_exponents(
        r.values, est, scales, (fit.s_lo, fit.s_hi), n_replicates,
        seed, spawn_prefix, pmap,
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
