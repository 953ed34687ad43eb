"""Dated price series: ingestion, log returns, profiles, event splits.

Input files are plain text with one ``date,price`` record per line (an
optional header line, whose date field holds no digit, is skipped).
Dates may be ISO (``YYYY-MM-DD``) or US (``MM/DD/YYYY``); the first data
line's format holds for the file.  All downstream analysis operates on
the log-return series; :func:`profile` turns any one series into the
plain array the detrenders take (cumulative sum of the demeaned values).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import DataError, FormatError, InsufficientDataError

# Default event cut dates (overridable wherever they are used).  The Gulf
# War and NAFTA dates follow the historical record: 1990-08-02 and
# 1994-01-01.
GULF_WAR = np.datetime64("1990-08-02")
IRAQ_WAR = np.datetime64("2003-03-20")
NAFTA = np.datetime64("1994-01-01")


def _readonly(a, dtype) -> np.ndarray:
    """``a`` as a C-contiguous, read-only, at least 1-d array of ``dtype``.

    Only a view of a read-only array, such as a slice of another frozen
    field, is kept uncopied, so the caller's array stays writable and no
    writable array can change the result.
    """
    base = getattr(a, "base", None)
    if (isinstance(base, np.ndarray) and not base.flags.writeable
            and a.flags.c_contiguous and a.dtype == dtype):
        return a
    a = np.array(a, dtype=dtype, order="C", ndmin=1)
    a.setflags(write=False)
    return a


def _check_row(values, name: str) -> np.ndarray:
    """``values`` as float64; a DataError naming ``name`` unless integer
    or float (checked before the cast), 1-d, nonempty and finite."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise DataError(f"{name} values must be integers or floats")
    values = values.astype(np.float64, copy=False)
    if values.ndim != 1 or len(values) == 0:
        raise DataError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{name} values must be finite")
    return values


def _freeze_dated(series, field: str) -> np.ndarray:
    """Freeze ``series.dates`` and ``series.<field>``; return the latter.

    Checks what every dated series needs: equal-length 1-d arrays and
    strictly increasing dates.
    """
    dates = _readonly(series.dates, "datetime64[D]")
    values = _readonly(getattr(series, field), np.float64)
    object.__setattr__(series, "dates", dates)
    object.__setattr__(series, field, values)
    if dates.shape != values.shape or dates.ndim != 1:
        raise DataError(f"dates and {field} must be 1-d arrays of equal length")
    if not np.all(dates[1:] > dates[:-1]):
        raise DataError("dates must be strictly increasing")
    return values


@dataclass(frozen=True)
class PriceSeries:
    """Dated positive prices, sorted ascending by date.

    Invariants: at least 2 observations, strictly increasing dates,
    every price positive and finite.
    """

    dates: np.ndarray  # datetime64[D]
    prices: np.ndarray  # float64

    def __post_init__(self):
        prices = _freeze_dated(self, "prices")
        if len(prices) < 2:
            raise InsufficientDataError("price series needs at least 2 observations")
        if not np.all(np.isfinite(prices)) or not np.all(prices > 0):
            raise DataError("prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns; each value is dated by the later of its two prices.

    Invariants: nonempty, strictly increasing dates, every value finite.
    """

    dates: np.ndarray  # datetime64[D]
    values: np.ndarray  # float64

    def __post_init__(self):
        values = _freeze_dated(self, "values")
        if len(values) == 0:
            raise InsufficientDataError("return series is empty")
        if not np.all(np.isfinite(values)):
            raise DataError("returns must be finite")

    def __len__(self) -> int:
        return len(self.values)


class LoadedPrices(NamedTuple):
    """Result of :func:`load_prices`.

    ``dropped`` counts records discarded for missing/non-numeric/
    non-positive prices.
    """

    series: PriceSeries
    dropped: int


# The sub-patterns ``datetime.strptime`` uses for %Y, %m and %d, so a
# date parses here exactly when ``strptime`` accepts it with
# "%Y-%m-%d" (iso) or "%m/%d/%Y" (us); ``date`` rejects days past the
# month's end, as ``strptime`` does.
_Y = r"(?P<Y>\d\d\d\d)"
_M = r"(?P<m>1[0-2]|0[1-9]|[1-9])"
_D = r"(?P<d>3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
_DATE_FORMATS = {
    "iso": re.compile(f"{_Y}-{_M}-{_D}"),
    "us": re.compile(f"{_M}/{_D}/{_Y}"),
}
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _parse_date(text: str, fmt: str) -> date | None:
    match = _DATE_FORMATS[fmt].fullmatch(text)
    if match is None:
        return None
    try:
        return date(int(match["Y"]), int(match["m"]), int(match["d"]))
    except ValueError:
        return None


def load_prices(source: str | Path | IO[str] | IO[bytes]) -> LoadedPrices:
    """Parse ``date,price`` lines into a :class:`PriceSeries`.

    Accepts a path or an open text/byte stream; bytes are decoded as
    UTF-8, and a leading byte-order mark is skipped.  Lines starting with
    ``#`` are ignored (this tool's own artifacts carry such a preamble).
    The first other line is skipped as a header when its date field
    holds no digit; any other line with an unparseable date is a
    :class:`FormatError` naming the line.  Records with missing,
    non-numeric, or non-positive prices are dropped and counted.
    Duplicate dates raise :class:`DataError`.  Output is sorted
    ascending by date.

    The first data line's date picks ISO or US for the whole file, so a
    later line in the other format is a :class:`FormatError` naming it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8 text: {exc}") from exc
    lines = raw.removeprefix("\ufeff").splitlines()

    records: list[tuple[date, float]] = []
    dropped = 0
    fmt = None
    header_allowed = True

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        date_text = parts[0]
        price_text = parts[1] if len(parts) > 1 else ""

        day = None
        for candidate in (fmt,) if fmt else _DATE_FORMATS:
            day = _parse_date(date_text, candidate)
            if day is not None:
                fmt = candidate
                break
        if day is None:
            # a header names its columns; a date field with a digit is a bad row
            if header_allowed and not any(c.isdigit() for c in date_text):
                header_allowed = False
                continue
            raise FormatError(f"line {lineno}: unparseable date {date_text!r}")
        header_allowed = False

        if len(parts) > 2:
            raise FormatError(f"line {lineno}: expected 'date,price', got {line!r}")
        try:
            price = float(price_text)
        except ValueError:
            dropped += 1  # missing or non-numeric price
            continue
        if not math.isfinite(price) or price <= 0:
            dropped += 1
            continue
        records.append((day, price))

    if not records:
        raise FormatError("no parseable price records in input")

    records.sort(key=lambda rec: rec[0])
    # datetime64[D] counts days from 1970-01-01: numpy takes such day
    # numbers at once, but a few microseconds per ``date`` object
    days = [r[0].toordinal() - _EPOCH_ORDINAL for r in records]
    dates = np.array(days, dtype="datetime64[D]")
    prices = np.array([r[1] for r in records], dtype=np.float64)

    dup_mask = dates[1:] == dates[:-1]
    if np.any(dup_mask):
        dups = sorted({str(d) for d in dates[1:][dup_mask]})
        raise DataError(f"duplicate dates: {', '.join(dups)}")

    return LoadedPrices(PriceSeries(dates, prices), dropped)


def log_returns(p: PriceSeries) -> ReturnSeries:
    """r[t] = ln(price[t+1]) - ln(price[t]), dated by the later day."""
    values = np.diff(np.log(p.prices))
    return ReturnSeries(p.dates[1:], values)


def profile(values: np.ndarray) -> np.ndarray:
    """Read-only cumulative sum of the demeaned 1-d ``values``; ends at 0 up to rounding."""
    values = _check_row(values, "series")
    return _readonly(np.cumsum(values - values.mean()), np.float64)


def split_by_dates(
    p: PriceSeries, cut_dates: Iterable[np.datetime64 | str]
) -> list[PriceSeries]:
    """Split into contiguous segments at the given cut dates.

    An observation dated before a cut goes to the earlier segment; the
    cut date itself starts the next one.  Each cut must be a whole day
    such as ``1990-08-02``, not a month or an hour; cuts must be
    strictly increasing and strictly inside the series' date span.
    Concatenating the segments reproduces the input exactly.
    """
    cut_dates = list(cut_dates)
    if not cut_dates:
        return [p]
    cuts = np.empty(len(cut_dates), dtype="datetime64[D]")
    for k, c in enumerate(cut_dates):
        try:
            day = np.datetime64(c)
        except ValueError:
            day = np.datetime64("NaT")
        if day.dtype != cuts.dtype or np.isnat(day):
            raise DataError(
                f"cut date {k + 1} of {len(cuts)} is empty or not a date: {str(c)!r}"
            )
        cuts[k] = day
    if not np.all(cuts[1:] > cuts[:-1]):
        raise DataError("cut dates must be strictly increasing")
    if cuts[0] <= p.dates[0] or cuts[-1] >= p.dates[-1]:
        raise DataError(
            f"cut dates must lie strictly inside the span "
            f"[{p.dates[0]}, {p.dates[-1]}]"
        )

    bounds = [0] + [int(np.searchsorted(p.dates, c, side="left")) for c in cuts]
    bounds.append(len(p))
    segments = []
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi - lo < 2:
            raise DataError(
                f"segment {j + 1} would have {hi - lo} observation(s); "
                f"each segment needs at least 2"
            )
        segments.append(PriceSeries(p.dates[lo:hi], p.prices[lo:hi]))
    return segments
