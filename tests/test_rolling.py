import copyreg
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfetest import cli, rolling
from wfetest.detrend import Estimator, default_scales
from wfetest.errors import ConfigError
from wfetest.rolling import WindowResult, rolling_analysis, window_result
from wfetest.shuffletest import ShuffleTestResult
from wfetest.synth import FgnSpec, generate_fgn, synthetic_prices
from wfetest.timeseries import ReturnSeries, log_returns

from conftest import day_range


def make_returns(n_returns, hurst=0.5, seed=13, sigma=0.01):
    vals = generate_fgn(FgnSpec(n=n_returns, hurst=hurst, seed=seed, sigma=sigma))
    return log_returns(synthetic_prices(vals))


def window_of(r, start, size):
    return ReturnSeries(r.dates[start : start + size], r.values[start : start + size])


def band_ensemble(q025, q975):
    # 41 replicates: np.quantile puts the 2.5% and 97.5% points exactly on
    # the second and the second-to-last sorted values
    return np.array([q025 - 0.05, q025] + [0.5] * 37 + [q975, q975 + 0.05])


def rows_as_dicts(rows):
    """Everything a row holds: its end date and its whole test result."""
    return [
        (row.end_date, cli._result_doc(row.result, include_ensemble=True))
        for row in rows
    ]


class TestWindowResult:
    def make(self, h=0.5, q025=0.45, q975=0.55):
        res = ShuffleTestResult(
            method="DFA-1", h=h, ensemble=band_ensemble(q025, q975), seed=7,
            s_lo=10, s_hi=100,
        )
        assert (res.q025, res.q975) == (q025, q975)
        return WindowResult(np.datetime64("2001-01-01"), res)

    def test_holds_only_end_date_and_result(self):
        assert [f.name for f in fields(WindowResult)] == ["end_date", "result"]

    def test_flag_consistency_enforced(self):
        # the flag derives from the result's H and band, so it cannot disagree
        assert self.make().result.flag == "inside"
        assert self.make(h=0.40).result.flag == "below"
        assert self.make(h=0.60).result.flag == "above"

    def test_band_edges_count_as_inside(self):
        assert self.make(h=0.45).result.flag == "inside"
        assert self.make(h=0.55).result.flag == "inside"

    def test_outside_property(self):
        # a window is outside the band exactly when its flag is not "inside"
        assert self.make().result.flag == "inside"
        assert self.make(h=0.40).result.flag != "inside"
        assert self.make(h=0.60).result.flag != "inside"

    def test_csv_row_matches_header(self):
        # values whose repr needs 16-17 significant digits, so rounding shows
        row = cli._window_row(self.make(
            h=np.float64(0.1 + 0.7), q025=0.1 + 0.2, q975=1 - 1 / 7
        ))
        cols = row.split(",")
        assert len(cols) == len(cli._WINDOW_HEADER.split(","))
        assert cols[0] == "2001-01-01"
        assert cols[1:4] == [repr(0.1 + 0.7), repr(0.1 + 0.2), repr(1 - 1 / 7)]
        assert cols[4] == "inside"
        assert cols[5] == "10" and cols[6] == "100"


class TestRollingAnalysis:
    def test_window_count_and_order(self):
        r = make_returns(620)
        rows = rolling_analysis(r, window_size=250, step=90, n_shuffles=20)
        assert len(rows) == (620 - 250) // 90 + 1
        ends = [r.end_date for r in rows]
        assert all(a < b for a, b in zip(ends, ends[1:]))

    def test_end_date_is_last_observation(self):
        r = make_returns(300)
        rows = rolling_analysis(r, window_size=250, step=25, n_shuffles=10)
        for k, row in enumerate(rows):
            assert row.end_date == r.dates[k * 25 + 250 - 1]

    def test_selected_range_has_fifteen_grid_points(self):
        r = make_returns(400)
        rows = rolling_analysis(r, window_size=400, step=1, n_shuffles=10)
        scales = default_scales(400)
        res = rows[0].result
        count = int(np.sum((scales >= res.s_lo) & (scales <= res.s_hi)))
        assert count == 15

    def test_single_window_isolation(self):
        r = make_returns(430)
        rows = rolling_analysis(
            r, window_size=250, step=60, n_shuffles=40, seed=5
        )
        for k, start in enumerate(range(0, len(r.values) - 250 + 1, 60)):
            alone = window_result(
                window_of(r, start, 250), start, Estimator.dfa(), n_shuffles=40,
                seed=5,
            )
            assert rows_as_dicts([alone]) == rows_as_dicts([rows[k]])

    def test_truncation_leaves_early_windows_unchanged(self):
        vals = generate_fgn(FgnSpec(n=520, hurst=0.5, seed=4, sigma=0.01))
        full = rolling_analysis(
            log_returns(synthetic_prices(vals)), window_size=250, step=60,
            n_shuffles=30,
        )
        short = rolling_analysis(
            log_returns(synthetic_prices(vals[:400])), window_size=250,
            step=60, n_shuffles=30,
        )
        assert len(short) >= 2
        assert rows_as_dicts(short) == rows_as_dicts(full[: len(short)])

    def test_workers_do_not_change_results(self):
        r = make_returns(380)
        a = rolling_analysis(r, window_size=250, step=40, n_shuffles=25)
        b = rolling_analysis(r, window_size=250, step=40, n_shuffles=25, workers=2)
        assert rows_as_dicts(a) == rows_as_dicts(b)
        # results pickled back from a worker are rebuilt by the constructor
        assert len(b) > 1
        for row in b:
            ensemble = row.result.ensemble
            assert not ensemble.flags.writeable
            with pytest.raises(ValueError):
                ensemble[0] = 0.0

    def test_workers_are_sent_only_their_windows(self, monkeypatch):
        # count the float64 values pickled for the workers: each window
        # should ship its own returns, not the whole series
        sent = []

        def counting_reduce(arr):
            if arr.dtype == np.float64:
                sent.append(arr.size)
            return arr.__reduce__()

        monkeypatch.setitem(copyreg.dispatch_table, np.ndarray, counting_reduce)
        r = make_returns(380)
        rows = rolling_analysis(r, window_size=250, step=40, n_shuffles=5, workers=2)
        assert len(rows) == 4
        assert sent == [250] * 4

    def test_progress_reported(self):
        r = make_returns(320)
        seen = []
        rolling_analysis(
            r, window_size=250, step=30, n_shuffles=5,
            progress=lambda done, total: seen.append((done, total)),
        )
        total = (320 - 250) // 30 + 1
        assert seen == [(k, total) for k in range(1, total + 1)]

    def test_window_too_small_for_grid(self):
        r = make_returns(600)
        with pytest.raises(ConfigError):
            rolling_analysis(r, window_size=249, n_shuffles=5)

    def test_window_exceeding_data(self):
        r = make_returns(300)
        with pytest.raises(ConfigError):
            rolling_analysis(r, window_size=301, n_shuffles=5)

    def test_bad_step_and_shuffles(self):
        r = make_returns(300)
        with pytest.raises(ConfigError):
            rolling_analysis(r, window_size=250, step=0, n_shuffles=5)
        with pytest.raises(ConfigError):
            rolling_analysis(r, window_size=250, n_shuffles=0)
        with pytest.raises(ConfigError, match=r"^step must be an integer, got 2\.5$"):
            rolling_analysis(r, window_size=250, step=2.5, n_shuffles=5)
        with pytest.raises(ConfigError, match=r"^window_size must be an integer, got 250\.5$"):
            rolling_analysis(r, window_size=250.5, n_shuffles=5)

    def test_window_result_bounds_checked(self):
        r = make_returns(300)
        with pytest.raises(ConfigError):
            window_result(window_of(r, 0, 250), -1, Estimator.dfa(), n_shuffles=5)
        with pytest.raises(ConfigError, match=r"^window start must be an integer, got 1\.5$"):
            window_result(window_of(r, 0, 250), 1.5, Estimator.dfa(), n_shuffles=5)

    def test_one_window_result_call_per_window(self, monkeypatch):
        # every window runs through the public window_result, whose span
        # perfbench times
        calls = []

        def counting(window, start, *args, **kwargs):
            calls.append((start, len(window)))
            return window_result(window, start, *args, **kwargs)

        monkeypatch.setattr(rolling, "window_result", counting)
        r = make_returns(380)
        rows = rolling_analysis(r, window_size=250, step=40, n_shuffles=5)
        assert calls == [(start, 250) for start in range(0, 131, 40)]
        assert len(rows) == len(calls)

    @settings(max_examples=10, deadline=None)
    @given(
        extra=st.integers(min_value=0, max_value=90),
        step=st.integers(min_value=1, max_value=40),
    )
    def test_window_count_formula(self, extra, step):
        n_returns = 250 + extra
        r = make_returns(n_returns)
        rows = rolling_analysis(
            r, window_size=250, step=step, n_shuffles=3
        )
        assert len(rows) == (n_returns - 250) // step + 1


class TestRollingMetamorphic:
    # Returns times 2, or plus a constant, have the same profile up to
    # rounding, so every window's test moves by rounding only.  The
    # largest deviation of H or an H_s measured on these inputs is
    # 4.4e-16; the gate is
    BOUND = 1e-13

    @pytest.mark.parametrize(
        "transform", [lambda v: v * 2.0, lambda v: v + 0.003], ids=["x2", "+0.003"]
    )
    def test_scaled_or_shifted_returns_keep_every_window(self, transform):
        values = generate_fgn(FgnSpec(n=1500, hurst=0.5, sigma=0.02, seed=3))
        base, moved = (
            rolling_analysis(ReturnSeries(day_range(1500), v), window_size=1000,
                             step=100, n_shuffles=300)
            for v in (values, transform(values))
        )
        assert len(base) == len(moved) == 6
        for a, b in zip(base, moved):
            assert abs(b.result.h - a.result.h) <= self.BOUND
            assert np.max(np.abs(b.result.ensemble - a.result.ensemble)) <= self.BOUND
            assert b.result.flag == a.result.flag and b.result.p == a.result.p
            assert (b.result.s_lo, b.result.s_hi) == (a.result.s_lo, a.result.s_hi)


@pytest.mark.slow
class TestCalibration:
    def test_memoryless_walk_rarely_flagged(self):
        # 200 non-overlapping windows of a pure random walk: the band
        # should contain H in at least 90% of them
        n = 500 + 199 * 500
        vals = generate_fgn(FgnSpec(n=n, hurst=0.5, seed=77, sigma=0.01))
        r = log_returns(synthetic_prices(vals))
        rows = rolling_analysis(
            r, window_size=500, step=500, n_shuffles=1000, seed=42, workers=2
        )
        assert len(rows) == 200
        outside = sum(r.result.flag != "inside" for r in rows)
        assert outside / len(rows) <= 0.10, f"{outside}/200 outside"
