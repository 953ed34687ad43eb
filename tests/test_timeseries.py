import io
import math
import re
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfetest.errors import DataError, FormatError, InsufficientDataError, WfeError
from wfetest.timeseries import (
    GULF_WAR,
    IRAQ_WAR,
    NAFTA,
    PriceSeries,
    ReturnSeries,
    _parse_date,
    load_prices,
    log_returns,
    profile,
    split_by_dates,
)

from conftest import day_range

_FUZZ_DATE = st.dates(min_value=date(1900, 1, 1), max_value=date(2099, 12, 31))
_FUZZ_FIELD = st.one_of(
    _FUZZ_DATE.map(date.isoformat),
    _FUZZ_DATE.map(lambda d: d.strftime("%m/%d/%Y")),
    st.floats().map(repr),
    st.text(max_size=6),
)
_FUZZ_RECORD = st.builds(
    "{},{!r}".format, _FUZZ_DATE.map(date.isoformat), st.floats(0.01, 1e6)
)


@st.composite
def price_file_bytes(draw):
    """Random bytes, or date,price records with BOMs, CRLF/CR endings,
    trailing commas, a stray line and stray bytes mixed in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    lines = draw(st.lists(_FUZZ_RECORD, max_size=8))
    if draw(st.booleans()):
        stray = ",".join(draw(st.lists(_FUZZ_FIELD, max_size=3)))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    trailing = "," * draw(st.sampled_from([0, 0, 1, 2]))
    bom = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = bom + eol.join(line + trailing for line in lines)
    data = text.encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    return data


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPrices:
    def test_iso_with_header(self, tmp_path):
        path = write_csv(
            tmp_path, "date,price\n1990-01-02,20.5\n1990-01-03,21.0\n"
        )
        loaded = load_prices(path)
        assert loaded.dropped == 0
        assert loaded.series.dates.tolist() == [
            np.datetime64("1990-01-02"),
            np.datetime64("1990-01-03"),
        ]
        assert loaded.series.prices.tolist() == [20.5, 21.0]

    def test_no_header(self, tmp_path):
        path = write_csv(tmp_path, "1990-01-02,20.5\n1990-01-03,21.0\n")
        assert len(load_prices(path).series) == 2

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        path = write_csv(
            tmp_path,
            "# generated artifact\n# config: {}\n\ndate,price\n"
            "1990-01-02,20.5\n\n1990-01-03,21.0\n",
        )
        assert len(load_prices(path).series) == 2

    def test_us_format_detected(self, tmp_path):
        path = write_csv(
            tmp_path, "date,price\n01/02/1990,20.5\n1/3/1990,21.0\n"
        )
        loaded = load_prices(path)
        assert loaded.series.dates[0] == np.datetime64("1990-01-02")
        assert loaded.series.dates[1] == np.datetime64("1990-01-03")

    @pytest.mark.parametrize("text", [
        "01/02/1990,20.5\n1990-01-03,21.0\n1990-01-04,21.5\n",
        "1990-01-02,20.5\n01/03/1990,21.0\n01/04/1990,21.5\n",
    ])
    def test_first_row_fixes_the_format(self, tmp_path, text):
        # the second row is not taken for a header: the run fails there
        path = write_csv(tmp_path, text)
        with pytest.raises(FormatError, match="^line 2: unparseable date '"):
            load_prices(path)

    @pytest.mark.parametrize("first", ["1985-02-30,10", "1985-03-01;10"])
    def test_first_row_with_a_digit_is_not_a_header(self, tmp_path, first):
        # an impossible date or a stray separator fails the run instead
        # of losing the row uncounted
        path = write_csv(tmp_path, f"{first}\n1985-03-01,11\n1985-03-04,12\n")
        message = f"line 1: unparseable date {first.split(',')[0]!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_prices(path)

    @pytest.mark.parametrize("header", ["date,price", "Date;Price"])
    def test_header_without_digits_skipped(self, tmp_path, header):
        path = write_csv(tmp_path, f"# note 1\n{header}\n1985-03-01,11\n1985-03-04,12\n")
        loaded = load_prices(path)
        assert loaded.dropped == 0
        assert loaded.series.prices.tolist() == [11.0, 12.0]

    def test_bad_prices_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,price\n1990-01-02,20.5\n1990-01-03,\n1990-01-04,n/a\n"
            "1990-01-05,-3\n1990-01-06,0\n1990-01-07,21.0\n",
        )
        loaded = load_prices(path)
        assert loaded.dropped == 4
        assert len(loaded.series) == 2

    def test_bad_date_names_line(self, tmp_path):
        path = write_csv(
            tmp_path, "date,price\n1990-01-02,20.5\nnot-a-date,21.0\n"
        )
        with pytest.raises(FormatError, match="line 3"):
            load_prices(path)

    def test_extra_columns_rejected(self, tmp_path):
        path = write_csv(tmp_path, "1990-01-02,20.5,extra\n")
        with pytest.raises(FormatError):
            load_prices(path)

    def test_duplicate_dates_listed(self, tmp_path):
        path = write_csv(
            tmp_path,
            "1990-01-02,20.5\n1990-01-03,21.0\n1990-01-02,20.6\n",
        )
        with pytest.raises(DataError, match="1990-01-02"):
            load_prices(path)

    def test_unsorted_input_sorted(self, tmp_path):
        path = write_csv(
            tmp_path, "1990-01-03,21.0\n1990-01-02,20.5\n"
        )
        series = load_prices(path).series
        assert series.dates[0] < series.dates[1]
        assert series.prices.tolist() == [20.5, 21.0]

    def test_no_records_error(self, tmp_path):
        path = write_csv(tmp_path, "date,price\n")
        with pytest.raises(FormatError, match="no parseable"):
            load_prices(path)

    def test_utf8_bom_keeps_first_record(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff2020-01-01,10\n2020-01-02,11\n2020-01-03,12\n".encode())
        text = io.StringIO(path.read_text(encoding="utf-8"))
        for source in (path, io.BytesIO(path.read_bytes()), text):
            loaded = load_prices(source)
            assert len(loaded.series) == 3 and loaded.dropped == 0

    @settings(max_examples=300, deadline=None)
    @given(data=price_file_bytes())
    def test_any_bytes_load_or_raise_typed_error(self, data):
        try:
            load_prices(io.BytesIO(data))
        except WfeError:
            pass

    @pytest.mark.parametrize("fmt, strptime_format", [("iso", "%Y-%m-%d"), ("us", "%m/%d/%Y")])
    @pytest.mark.parametrize("text", [
        "1985-01-02", "1985-1-2", "1985-01- 2", "1984-02-29", "1985-02-29",
        "1985-13-01", "1985-00-10", "85-01-02", "19850102", "1985-01-02T00:00",
        "+1985-01-02", "1/2/1985", "01/02/1985", "1/ 2/1985", "13/01/1985",
        "2/29/1985", "\u0661\u0669\u0668\u0665-01-02",
        "\u0661\u0669\u0668\u0665-\u0660\u0661-\u0660\u0662",
        "01/02/\u0661\u0669\u0668\u0665", "",
    ])
    def test_date_grammar_is_strptime_grammar(self, text, fmt, strptime_format):
        try:
            want = datetime.strptime(text, strptime_format).date()
        except ValueError:
            want = None
        assert _parse_date(text, fmt) == want

    def test_stream_input(self, tmp_path):
        path = write_csv(tmp_path, "1990-01-02,20.5\n1990-01-03,21.0\n")
        with open(path) as fh:
            assert len(load_prices(fh).series) == 2

    @settings(max_examples=25, deadline=None)
    @given(
        prices=st.lists(
            st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_roundtrip_exact(self, tmp_path_factory, prices):
        dates = day_range(len(prices))
        text = "date,price\n" + "".join(
            f"{d},{p!r}\n" for d, p in zip(dates, prices)
        )
        path = tmp_path_factory.mktemp("rt") / "prices.csv"
        path.write_text(text)
        series = load_prices(path).series
        assert series.prices.tolist() == prices
        assert np.array_equal(series.dates, dates)


class TestSeriesTypes:
    @pytest.mark.parametrize("kind", [PriceSeries, ReturnSeries])
    @pytest.mark.parametrize("days", [["1990-01-02", "1990-01-02"],
                                      ["1990-01-03", "1990-01-02"]])
    def test_dates_must_increase(self, kind, days):
        dates = np.array(days, dtype="datetime64[D]")
        with pytest.raises(DataError, match="^dates must be strictly increasing$"):
            kind(dates, np.array([1.0, 2.0]))

    def test_prices_must_be_positive_finite(self):
        dates = day_range(2)
        with pytest.raises(DataError):
            PriceSeries(dates, np.array([1.0, -2.0]))
        with pytest.raises(DataError):
            PriceSeries(dates, np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            PriceSeries(dates, np.array([1.0, np.inf]))

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientDataError):
            PriceSeries(day_range(1), np.array([1.0]))

    def test_arrays_read_only(self):
        series = PriceSeries(day_range(3), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            series.prices[0] = 5.0
        with pytest.raises(ValueError):
            series.dates[0] = np.datetime64("2000-01-01")

    @pytest.mark.parametrize("kind, field", [(PriceSeries, "prices"), (ReturnSeries, "values")])
    def test_caller_arrays_stay_writable_and_unshared(self, kind, field):
        dates, first = day_range(4), day_range(1)[0]
        owner = np.array([1.0, 2.0, 3.0, 4.0])
        frozen_view = owner[:]
        frozen_view.setflags(write=False)
        for values in (owner, owner[:], frozen_view):
            series = kind(dates, values)
            owner[0], dates[0] = 99.0, np.datetime64("1980-01-01")
            assert getattr(series, field)[0] == 1.0 and series.dates[0] == first
            owner[0], dates[0] = 1.0, first
        assert owner.flags.writeable and dates.flags.writeable

    def test_window_of_a_series_shares_its_memory(self):
        r = log_returns(PriceSeries(day_range(6), np.arange(1.0, 7.0)))
        window = ReturnSeries(r.dates[1:4], r.values[1:4])
        inner = ReturnSeries(window.dates[1:], window.values[1:])
        for w in (window, inner):
            assert np.shares_memory(w.values, r.values)
            assert np.shares_memory(w.dates, r.dates)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            PriceSeries(day_range(3), np.array([1.0, 2.0]))

    def test_event_dates(self):
        assert GULF_WAR == np.datetime64("1990-08-02")
        assert IRAQ_WAR == np.datetime64("2003-03-20")
        assert NAFTA == np.datetime64("1994-01-01")


class TestLogReturns:
    def test_hand_value(self):
        series = PriceSeries(day_range(2), np.array([2.0, 8.0]))
        r = log_returns(series)
        assert r.values[0] == pytest.approx(math.log(4.0), abs=1e-15)
        assert len(r.values) == 1
        assert r.dates[0] == series.dates[1]

    def test_constant_prices_zero_returns(self):
        series = PriceSeries(day_range(5), np.full(5, 7.0))
        assert np.all(log_returns(series).values == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        logp=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_recovers_log_differences(self, logp):
        series = PriceSeries(day_range(len(logp)), np.exp(logp))
        r = log_returns(series)
        assert np.allclose(r.values, np.diff(logp), atol=1e-9)


class TestProfile:
    def test_hand_value(self):
        values = np.array([1.0, 2.0, 3.0])
        y = profile(values)
        assert y.tolist() == [-1.0, -1.0, 0.0]
        assert y.dtype == np.float64 and not y.flags.writeable
        assert values.flags.writeable

    def test_profile_ends_near_zero(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(500)
        y = profile(vals)
        assert abs(y[-1]) < 1e-9 * max(1.0, np.abs(vals).sum())

    @pytest.mark.parametrize(
        "values, message",
        [([[1.0, 2.0]], "^series must be a nonempty 1-d array$"),
         ([], "^series must be a nonempty 1-d array$"),
         ([1.0, np.nan], "^series values must be finite$"),
         (["a"], "^series values must be integers or floats$"),
         ([None, 1.0], "^series values must be integers or floats$"),
         ([True, False], "^series values must be integers or floats$")],
        ids=["2-d", "empty", "nan", "strings", "none", "booleans"],
    )
    def test_one_finite_series_only(self, values, message):
        with pytest.raises(DataError, match=message):
            profile(values)


class TestSplitByDates:
    def make(self, n=10):
        return PriceSeries(day_range(n), np.arange(1.0, n + 1))

    def test_cut_date_starts_next_segment(self):
        p = self.make(6)
        cut = p.dates[3]
        left, right = split_by_dates(p, [cut])
        assert left.dates.tolist() == p.dates[:3].tolist()
        assert right.dates.tolist() == p.dates[3:].tolist()

    def test_cut_between_dates(self):
        p = PriceSeries(
            np.array(
                ["1990-01-01", "1990-01-05", "1990-01-09", "1990-01-12"],
                dtype="datetime64[D]",
            ),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        left, right = split_by_dates(p, ["1990-01-07"])
        assert len(left) == 2 and len(right) == 2

    def test_segments_partition_input(self):
        p = self.make(12)
        segs = split_by_dates(p, [p.dates[4], p.dates[8]])
        assert [len(s) for s in segs] == [4, 4, 4]
        recombined = np.concatenate([s.prices for s in segs])
        assert np.array_equal(recombined, p.prices)

    def test_string_cuts_accepted(self):
        p = self.make(6)
        segs = split_by_dates(p, [str(p.dates[2])])
        assert len(segs) == 2

    def test_no_cuts_identity(self):
        p = self.make(4)
        assert split_by_dates(p, []) == [p]

    def test_cut_outside_span(self):
        p = self.make(6)
        with pytest.raises(DataError):
            split_by_dates(p, [p.dates[0]])
        with pytest.raises(DataError):
            split_by_dates(p, [p.dates[-1]])
        with pytest.raises(DataError):
            split_by_dates(p, ["1980-01-01"])

    def test_cuts_must_increase(self):
        p = self.make(8)
        with pytest.raises(DataError):
            split_by_dates(p, [p.dates[4], p.dates[2]])

    def test_empty_cut_named(self):
        p = self.make(8)
        for cuts, bad in (([""], 1), ([p.dates[3], ""], 2), ([np.datetime64("NaT")], 1)):
            with pytest.raises(DataError, match=f"cut date {bad} of {len(cuts)} is empty"):
                split_by_dates(p, cuts)

    def test_unparseable_cut_named(self):
        p = self.make(8)
        for cuts, message in (
            (["2020-13-01"], "cut date 1 of 1 .*'2020-13-01'"),
            ([p.dates[3], "not-a-date"], "cut date 2 of 2 .*'not-a-date'"),
            # a cut is a whole day: a month or an hour is not cast to one
            (["1990-08"], "^cut date 1 of 1 is empty or not a date: '1990-08'$"),
            ([p.dates[3], "1990-08-02T12"], "^cut date 2 of 2 is empty or not a date: '1990-08-02T12'$"),
        ):
            with pytest.raises(DataError, match=message):
                split_by_dates(p, cuts)

    def test_tiny_segment_rejected(self):
        p = self.make(6)
        with pytest.raises(DataError, match="at least 2"):
            split_by_dates(p, [p.dates[1]])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_partition_property(self, data):
        n = data.draw(st.integers(min_value=6, max_value=40))
        p = self.make(n)
        k = data.draw(st.integers(min_value=1, max_value=2))
        idx = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=2, max_value=n - 3),
                    min_size=k,
                    max_size=k,
                )
            )
        )
        if any(b - a < 2 for a, b in zip(idx, idx[1:])):
            return
        segs = split_by_dates(p, [p.dates[i] for i in idx])
        assert sum(len(s) for s in segs) == n
        assert np.array_equal(
            np.concatenate([s.dates for s in segs]), p.dates
        )
