import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from wfetest.detrend import Estimator, default_scales, fluctuation
from wfetest.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    InsufficientDataError,
)
from wfetest.scaling import (
    FIT_WINDOW,
    ScalingFit,
    _ols,
    detect_scaling_range,
    estimate,
    fit_power_law,
)
from wfetest.shuffletest import shuffle_exponents
from wfetest.timeseries import ReturnSeries, profile

from conftest import day_range


def power_law_f(scales, h, amp=1.0):
    return amp * np.asarray(scales, dtype=float) ** h


def scaling_range(f: np.ndarray, scales: np.ndarray, window_len: int):
    """(s_lo, s_hi) of the range rule's window for the one row f, or None."""
    (start,), (slope,) = detect_scaling_range(f[None, :], scales, window_len)
    if start < 0:
        assert np.isnan(slope)
        return None
    return int(scales[start]), int(scales[start + window_len - 1])


class TestOls:
    def test_hand_values(self):
        slope, rss = _ols(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
        assert slope == pytest.approx(1.5, abs=1e-15)
        assert rss == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_two_points_exact_fit(self):
        slope, rss = _ols(np.array([1.0, 3.0]), np.array([2.0, 8.0]))
        assert slope == pytest.approx(3.0, abs=1e-15)
        assert rss == pytest.approx(0.0, abs=1e-28)

    def test_rows_broadcast_and_match_single_fits_exactly(self):
        rng = np.random.default_rng(3)
        x = np.log(np.arange(10.0, 27.0))
        ys = rng.standard_normal((6, len(x)))
        slopes, rss = _ols(x, ys)
        assert slopes.shape == rss.shape == (6,)
        for i in range(6):
            assert (slopes[i], rss[i]) == _ols(x, ys[i])

    def test_slopes_match_pointwise_ols(self):
        # the range search fits every window of the grid in one call
        rng = np.random.default_rng(4)
        x = np.log(np.arange(10.0, 40.0))
        y = rng.standard_normal(30)
        slopes, rss = _ols(sliding_window_view(x, 5), sliding_window_view(y, 5))
        assert slopes.shape == rss.shape == (26,)
        for w in range(26):
            slope, res = _ols(x[w : w + 5], y[w : w + 5])
            assert slopes[w] == pytest.approx(slope, abs=1e-12)
            assert rss[w] == pytest.approx(res, abs=1e-12)


class TestFitPowerLaw:
    def test_hand_values(self):
        # ln s = ln2 * (1, 2, 3) and ln F = ln2 * (0, 1, 3)
        fit = fit_power_law(np.array([1.0, 2.0, 8.0]), np.array([2, 4, 8]), 3)
        assert fit.h == pytest.approx(1.5, abs=1e-15)
        assert fit.rss == pytest.approx(math.log(2.0) ** 2 / 6.0, abs=1e-15)
        assert fit.stderr == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-15)

    def test_two_points_have_zero_stderr(self):
        fit = fit_power_law(np.array([1.0, 8.0]), np.array([2, 8]), 2)
        assert fit.h == pytest.approx(1.5, abs=1e-15)
        assert fit.stderr == 0.0

    def test_exact_law_recovered(self):
        scales = default_scales(4096)
        fit = fit_power_law(power_law_f(scales, 0.7, amp=2.0), scales, len(scales))
        assert fit.h == pytest.approx(0.7, abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-24)
        assert fit.stderr == pytest.approx(0.0, abs=1e-13)
        assert fit.n_points == len(scales)

    def test_zero_f_rejected(self):
        scales = np.array([4, 8, 16, 32])
        f = np.array([1.0, 0.0, 2.0, 3.0])
        message = r"^F\(s\) is 0 or not finite in every window of 3 grid points$"
        with pytest.raises(DegenerateInputError, match=message):
            fit_power_law(f, scales, 3)
        # fine when a window of the given length misses the zero
        fit = fit_power_law(f, scales, 2)
        assert (fit.s_lo, fit.s_hi, fit.n_points) == (16, 32, 2)

    @pytest.mark.parametrize(
        "f, scales",
        [([1.0], [4, 8]), ([1.0, 2.0], [8, 4]), ([[1.0, 2.0]], [4, 8])],
        ids=["length-mismatch", "unsorted", "2-d"],
    )
    def test_unpaired_input_is_data_error(self, f, scales):
        with pytest.raises(DataError):
            fit_power_law(np.array(f), np.array(scales), 2)

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.floats(min_value=0.05, max_value=0.95),
        amp=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_amplitude_never_biases_slope(self, h, amp):
        scales = np.arange(10, 200, 7)
        fit = fit_power_law(power_law_f(scales, h, amp=amp), scales, len(scales))
        assert fit.h == pytest.approx(h, abs=1e-9)


class TestScalingFitType:
    def test_validation(self):
        with pytest.raises(DataError):
            ScalingFit(h=0.5, stderr=0.01, s_lo=40, s_hi=40, rss=0.0, n_points=5)
        with pytest.raises(DataError):
            ScalingFit(h=0.5, stderr=0.01, s_lo=10, s_hi=40, rss=0.0, n_points=1)
        with pytest.raises(DataError):
            ScalingFit(h=0.5, stderr=-1.0, s_lo=10, s_hi=40, rss=0.0, n_points=5)

    def test_json_keys(self):
        fit = ScalingFit(h=0.5, stderr=0.01, s_lo=10, s_hi=40, rss=0.2, n_points=5)
        assert fit.to_json_dict() == {
            "H": 0.5, "stderr": 0.01, "s_lo": 10, "s_hi": 40,
            "rss": 0.2, "n_points": 5,
        }


class TestScanWindows:
    """The window scan inside :func:`detect_scaling_range`."""

    def test_window_geometry(self):
        # noisy F except on the last 15 grid points: the last window wins
        scales = np.arange(10, 60)
        y = 0.5 * np.log(scales.astype(float))
        y[:35] += 1e-2 * np.sin(np.arange(35))
        assert scaling_range(np.exp(y), scales, 15) == (45, 59)

    def test_zero_f_window_gets_inf(self):
        # exact law on grid points 0..7, so the zero at 3 excludes windows 0..3
        scales = np.arange(10, 26)
        values = np.exp(np.random.default_rng(2).standard_normal(16))
        values[:8] = scales[:8] ** 0.5
        values[3] = 0.0
        assert scaling_range(values, scales, 4) == (14, 17)

    def test_bad_window_len(self):
        scales = np.arange(10, 30)
        f = power_law_f(scales, 0.5)
        with pytest.raises(ConfigError, match=r"^window_len must be >= 2, got 1$"):
            scaling_range(f, scales, 1)
        with pytest.raises(
            ConfigError, match=r"^window_len 21 exceeds the 20-point scale grid$"
        ):
            scaling_range(f, scales, 21)


class TestDetectScalingRange:
    def test_finds_clean_regime(self):
        # noisy short-scale regime, exactly collinear beyond s = 40
        scales = default_scales(4000)
        x = np.log(scales.astype(float))
        x40 = math.log(40.0)
        y = np.where(x <= x40, 0.9 * x, 0.9 * x40 + 0.4 * (x - x40))
        y = y + np.where(scales <= 40, 1e-3 * np.sin(np.arange(len(x))), 0.0)
        lo, hi = scaling_range(np.exp(y), scales, 6)
        # which clean window wins among ~1e-30 rss values is unspecified,
        # but the range must avoid the noisy regime entirely
        assert lo > 40
        fit = fit_power_law(np.exp(y), scales, 6)
        assert (fit.s_lo, fit.s_hi) == (lo, hi)
        assert fit.h == pytest.approx(0.4, abs=1e-6)

    def test_exact_ties_take_earliest_window(self):
        # constant F: every window has rss exactly +0.0
        scales = np.arange(10, 40)
        lo, hi = scaling_range(np.ones(30), scales, 15)
        assert lo == 10 and hi == 24

    def test_window_len_is_exact(self):
        scales = default_scales(2000)
        lo, hi = scaling_range(power_law_f(scales, 0.5), scales, 15)
        count = int(np.sum((scales >= lo) & (scales <= hi)))
        assert count == 15

    def test_no_contiguous_usable_window(self):
        scales = np.arange(10, 30)
        values = np.linspace(1.0, 2.0, 20)
        values[5] = 0.0
        values[12] = 0.0
        assert scaling_range(values, scales, 15) is None

    def test_too_few_usable_points(self):
        # 14 positive points, each window of 15 touches a zero
        scales = np.arange(10, 30)
        values = power_law_f(scales, 0.5)
        values[14:] = 0.0
        assert scaling_range(values, scales, 15) is None
        assert scaling_range(values, scales, 14) == (10, 23)

    @pytest.mark.parametrize(
        "f_matrix, scales, message",
        [(np.ones((1, 1)), [4, 8], "^f_matrix must be 2-d with one column per scale$"),
         (np.ones(2), [4, 8], "^f_matrix must be 2-d with one column per scale$"),
         (np.ones((1, 2)), [8, 4], "^scales must be a nonempty, strictly increasing 1-d array$"),
         (power_law_f(default_scales(1000), 0.5)[None, ::-1], default_scales(1000)[::-1],
          "^scales must be a nonempty, strictly increasing 1-d array$"),
         (np.ones((1, 2)), [4.5, 8], "^scales must be whole numbers$")],
        ids=["length-mismatch", "1-d", "unsorted", "reversed-grid", "fraction"],
    )
    def test_unpaired_input_is_data_error(self, f_matrix, scales, message):
        # unchecked, a short row was a broadcast ValueError, a 1-d F an
        # AxisError, and a reversed grid was fitted to slope -0.4999
        with pytest.raises(DataError, match=message):
            detect_scaling_range(f_matrix, np.array(scales), 2)


def fit_with_h(h: float) -> ScalingFit:
    return ScalingFit(h=h, stderr=0.01, s_lo=10, s_hi=40, rss=0.2, n_points=5)


class TestExponentRelations:
    """eta and gamma derive from the fitted H."""

    def test_values(self):
        fit = fit_with_h(0.75)
        assert fit.eta == 0.5 and fit.gamma == 0.5
        fit = fit_with_h(0.5)
        assert fit.eta == 0.0 and fit.gamma == 1.0

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(min_value=-2, max_value=3, allow_nan=False))
    def test_relations_hold_for_any_h(self, h):
        fit = fit_with_h(h)
        assert fit.eta == 2.0 * h - 1.0
        assert fit.gamma == 2.0 - 2.0 * h


class TestBatchedRule:
    def test_rows_match_their_one_row_calls(self):
        # each row's window and slope do not depend on the rows beside it
        rng = np.random.default_rng(21)
        n = 2000
        scales = default_scales(n)
        profiles = np.cumsum(rng.standard_normal((6, n)), axis=1)
        f_matrix = Estimator.dfa().fluctuation_matrix(profiles, scales)
        f_matrix[1, 4] = 0.0
        f_matrix[4, 9] = np.nan
        # four windows, starting at columns 0 to 3: all of them hold the
        # 0 at column 4 and the NaN at column 9
        window_len = len(scales) - 3
        assert 9 < window_len
        start, slopes = detect_scaling_range(f_matrix, scales, window_len)
        assert start.dtype.kind == "i"
        for i in range(6):
            if i in (1, 4):
                assert start[i] == -1 and np.isnan(slopes[i])
                continue
            (one_start,), (one_slope,) = detect_scaling_range(
                f_matrix[i : i + 1], scales, window_len
            )
            assert start[i] == one_start >= 0 and slopes[i] == one_slope
            lo, hi = int(scales[start[i]]), int(scales[start[i] + window_len - 1])
            fit = fit_power_law(f_matrix[i], scales, window_len)
            assert slopes[i] == fit.h and (fit.s_lo, fit.s_hi) == (lo, hi)

    def test_bad_window_never_wins_and_ties_go_earliest(self):
        # constant F: every window has rss exactly +0.0 unless it holds the NaN
        scales = np.arange(10, 26)
        rows = np.ones((2, len(scales)))
        rows[1, 3] = np.nan
        start, slopes = detect_scaling_range(rows, scales, 4)
        assert start.tolist() == [0, 4]
        assert slopes.tolist() == [0.0, 0.0]


class TestOneWindow:
    """With window_len == len(scales) the rule is the fixed-range fit."""

    def test_matches_scalar_fit(self):
        # every column given is fitted, as fit_power_law fits its one window
        rng = np.random.default_rng(8)
        scales = default_scales(2000)[3:17]
        rows = np.exp(rng.standard_normal((5, len(scales))))
        start, slopes = detect_scaling_range(rows, scales, len(scales))
        assert start.tolist() == [0] * 5
        for i in range(5):
            fit = fit_power_law(rows[i], scales, len(scales))
            assert slopes[i] == fit.h

    @pytest.mark.parametrize("est", [Estimator.dfa(), Estimator.dma(0.5)], ids=["dfa", "cdma"])
    def test_ensemble_rows_bitwise_equal_to_fit(self, est):
        # H from the whole grid and H_s from the fitted scales only are one fit
        n = 1000
        scales = default_scales(n)
        profiles = np.cumsum(np.random.default_rng(11).standard_normal((64, n)), axis=1)
        f_matrix = est.fluctuation_matrix(profiles, scales)
        for lo, hi in ((0, len(scales)), (3, 18)):
            fitted = scales[lo:hi]
            f_fitted = est.fluctuation_matrix(profiles, fitted)
            _, slopes = detect_scaling_range(f_fitted, fitted, len(fitted))
            for i, row in enumerate(f_matrix):
                assert slopes[i] == fit_power_law(row[lo:hi], fitted, len(fitted)).h

    def test_bad_rows_become_nan(self):
        scales = np.array([10, 20, 40, 80])
        rows = np.array(
            [[1.0, 2.0, 3.0, 4.0],
             [1.0, 0.0, 3.0, 4.0],
             [1.0, np.nan, 3.0, 4.0]]
        )
        start, slopes = detect_scaling_range(rows, scales, 4)
        assert start.tolist() == [0, -1, -1]
        assert np.isfinite(slopes[0])
        assert np.isnan(slopes[1]) and np.isnan(slopes[2])

    def test_narrow_range_rejected(self):
        # a fixed range must hold two grid points, as any fit window does
        scales = np.array([10, 20, 40, 80])
        message = r"range \[15, 30\] holds 1 grid point\(s\); need >= 2"
        with pytest.raises(InsufficientDataError, match=message):
            shuffle_exponents(np.arange(400.0), Estimator.dfa(), scales, (15, 30), 3, 0)

    def test_fit_window_constant(self):
        assert FIT_WINDOW == 15


class TestEstimate:
    @pytest.mark.parametrize("est", [Estimator.dfa(), Estimator.dma(0.5)], ids=lambda e: e.tag)
    @pytest.mark.parametrize("range_policy", ["full", "auto"])
    def test_takes_the_returns(self, est, range_policy):
        values = np.random.default_rng(17).standard_t(3, 1200) * 0.01
        scales, f, fit = estimate(ReturnSeries(day_range(1200), values), est, range_policy)
        assert np.array_equal(scales, default_scales(1200))
        assert np.array_equal(f, fluctuation(profile(values), scales, est))
        assert f.dtype == np.float64 and not f.flags.writeable
        n_fit = len(scales) if range_policy == "full" else FIT_WINDOW
        assert fit == fit_power_law(f, scales, n_fit)
        assert fit.n_points == n_fit
