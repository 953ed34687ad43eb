import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfetest.detrend import (
    BLOCK_CELLS,
    Estimator,
    FluctuationFunction,
    ScaleGrid,
    _dfa_basis,
    _window_split,
    default_scales,
    dfa_fluctuation_matrix,
    dma_fluctuation_matrix,
    fluctuation,
)
from wfetest.errors import (
    DataError,
    InsufficientDataError,
    ScaleRangeError,
)
from wfetest.shuffletest import replicate_rng
from wfetest.timeseries import Profile


def dma_reference(prof, scales, theta):
    """Literal windowed-average implementation, one index at a time."""
    prof = np.asarray(prof, dtype=np.float64)
    n = len(prof)
    out = []
    for s in scales:
        future = int(math.floor((s - 1) * theta))
        past = (s - 1) - future
        sq = [
            (prof[i] - prof[i - past : i + future + 1].mean()) ** 2
            for i in range(past, n - future)
        ]
        out.append(math.sqrt(np.mean(sq)))
    return np.array(out)


def dfa_reference(prof, scales, order):
    """Literal per-box polyfit implementation, both coverage passes."""
    prof = np.asarray(prof, dtype=np.float64)
    n = len(prof)
    out = []
    for s in scales:
        k = n // s
        t = np.arange(s, dtype=np.float64)
        sq = []
        for i in range(k):
            for seg in (prof[i * s : (i + 1) * s],
                        prof[n - (i + 1) * s : n - i * s]):
                coef = np.polyfit(t, seg, order)
                sq.append(((seg - np.polyval(coef, t)) ** 2).mean())
        out.append(math.sqrt(np.mean(sq)))
    return np.array(out)


def dfa1_longdouble_reference(prof, scales):
    """DFA-1 in extended precision: each box projected onto {1, t} explicitly.

    Centring the box and its abscissa makes the two basis vectors
    orthogonal, so the residual is formed directly, never as a difference
    of accumulated moments.  Returns longdouble F, shape (rows, scales).
    """
    prof = np.atleast_2d(prof).astype(np.longdouble)
    rows, n = prof.shape
    out = np.empty((rows, len(scales)), dtype=np.longdouble)
    for j, s in enumerate(scales):
        s = int(s)
        k = n // s
        boxes = np.concatenate(
            [prof[:, : k * s].reshape(rows, k, s), prof[:, n - k * s :].reshape(rows, k, s)],
            axis=1,
        )
        t = np.arange(s, dtype=np.longdouble) - np.longdouble(s - 1) / 2
        centred = boxes - boxes.mean(axis=2, keepdims=True)
        resid = centred - ((centred @ t) / (t @ t))[..., None] * t
        out[:, j] = np.sqrt(np.mean(resid * resid, axis=(1, 2)))
    return out


def dfa_scale_outer_reference(profiles, scales, order):
    """The kernel with the scale loop outside the row-block loop.

    The same BLAS and einsum calls on the same operands as
    :func:`dfa_fluctuation_matrix`, with fresh arrays for every scale,
    so its F must equal the kernel's bit for bit.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    rows, n = profiles.shape
    block = max(1, BLOCK_CELLS // n)
    out = np.empty((rows, len(scales)), dtype=np.float64)
    for j, s in enumerate(scales):
        s = int(s)
        k = n // s
        design, pinv_t = _dfa_basis(s, order)
        starts = (0,) if k * s == n else (0, n - k * s)
        box_ss = np.empty((rows, 2, k), dtype=np.float64)
        buf = np.empty((min(block, rows), k, s), dtype=np.float64)
        for r0 in range(0, rows, block):
            part = profiles[r0 : r0 + block]
            res = buf[: len(part)]
            for cover, start in enumerate(starts):
                boxes = part[:, start : start + k * s].reshape(len(part), k, s)
                np.matmul(boxes @ pinv_t, design.T, out=res)
                np.subtract(boxes, res, out=res)
                box_ss[r0 : r0 + block, cover] = np.einsum("rks,rks->rk", res, res)
        if len(starts) == 1:
            box_ss[:, 1] = box_ss[:, 0]
        out[:, j] = np.sqrt(box_ss.reshape(rows, 2 * k).sum(axis=1) / (2 * k * s))
    return out


def dma_longdouble_reference(prof, scales, theta):
    """DMA in extended precision: prefix, window sums and residuals.

    Returns longdouble F, shape (rows, scales).
    """
    prof = np.atleast_2d(prof).astype(np.longdouble)
    rows, n = prof.shape
    prefix = np.zeros((rows, n + 1), dtype=np.longdouble)
    np.cumsum(prof, axis=1, out=prefix[:, 1:])
    out = np.empty((rows, len(scales)), dtype=np.longdouble)
    for j, s in enumerate(scales):
        s = int(s)
        past, future = _window_split(s, theta)
        resid = prof[:, past : n - future] - (prefix[:, s:] - prefix[:, :-s]) / s
        out[:, j] = np.sqrt(np.mean(resid * resid, axis=1))
    return out


def shuffled_bridge_rows(n, count=32):
    """Profiles of shuffled heavy-tailed returns, as the shuffle test builds them."""
    returns = np.random.default_rng(6).standard_t(3, n) * 0.01
    rows = np.empty((count, n))
    for i, row in enumerate(rows):
        perm = replicate_rng(53, i).permutation(returns)
        row[:] = np.cumsum(perm - perm.mean())
    return rows


def max_relative_error(fast, ref):
    return float(np.max(np.abs((fast - ref) / ref)))


class TestWindowSplit:
    def test_extremes(self):
        assert _window_split(10, 0.0) == (9, 0)
        assert _window_split(10, 1.0) == (0, 9)

    def test_centered_odd_symmetric(self):
        assert _window_split(11, 0.5) == (5, 5)

    def test_centered_even_leans_to_past(self):
        assert _window_split(10, 0.5) == (5, 4)

    def test_binary_rounding_snapped(self):
        # (11 - 1) * 0.3 is 2.9999999999999996 in binary; must act as 3
        assert _window_split(11, 0.3) == (7, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(min_value=2, max_value=500),
        theta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_always_s_points(self, s, theta):
        past, future = _window_split(s, theta)
        assert past >= 0 and future >= 0
        assert past + future == s - 1


class TestDmaOracles:
    def test_backward_hand_value(self):
        # residuals: 4 - mean(1,2,4) = 5/3 and 8 - mean(2,4,8) = 10/3
        f = dma_fluctuation_matrix(np.array([1.0, 2.0, 4.0, 8.0]), [3], 0.0)
        assert f[0, 0] == pytest.approx(math.sqrt(125.0 / 18.0), abs=1e-13)

    def test_scale_two_rejected(self):
        with pytest.raises(ScaleRangeError):
            dma_fluctuation_matrix(np.array([1.0, 2.0, 3.0, 4.0]), [2], 0.0)

    def test_centered_kills_linear_window(self):
        f = dma_fluctuation_matrix(np.array([1.0, 2.0, 3.0]), [3], 0.5)
        assert f[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_linear_profile_closed_forms(self):
        y = np.arange(1000, dtype=np.float64)
        scales = default_scales(1000).scales
        backward = dma_fluctuation_matrix(y, scales, 0.0)[0]
        expected = (scales - 1) / 2.0
        assert np.all(np.abs(backward - expected) <= 1e-10 * expected)
        forward = dma_fluctuation_matrix(y, scales, 1.0)[0]
        assert np.all(np.abs(forward - expected) <= 1e-10 * expected)
        odd = scales[scales % 2 == 1]
        centered = dma_fluctuation_matrix(y, odd, 0.5)[0]
        assert np.all(centered <= 1e-10)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_reference(self, theta):
        rng = np.random.default_rng(17)
        profs = np.cumsum(rng.standard_normal((3, 400)), axis=1)
        scales = [3, 4, 5, 7, 10, 16, 25, 40]
        fast = dma_fluctuation_matrix(profs, scales, theta)
        for row in range(3):
            ref = dma_reference(profs[row], scales, theta)
            assert np.allclose(fast[row], ref, rtol=1e-10, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        shift=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        theta=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_constant_shift_invariant(self, shift, theta, seed):
        prof = np.cumsum(np.random.default_rng(seed).standard_normal(200))
        scales = [3, 5, 9, 17]
        base = dma_fluctuation_matrix(prof, scales, theta)
        shifted = dma_fluctuation_matrix(prof + shift, scales, theta)
        assert np.allclose(base, shifted, rtol=1e-7, atol=1e-7)


class TestDfaOracles:
    def test_hand_value(self):
        # boxes (1,2,4) and (8,16,32): residual sums 1/6 and 16/3
        prof = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        f = dfa_fluctuation_matrix(prof, [3], 1)
        assert f[0, 0] == pytest.approx(math.sqrt(65.0) / 6.0, abs=1e-12)

    @pytest.mark.parametrize(
        "order,scales",
        [(1, [3, 4, 5, 7, 10, 16, 25, 40]),
         (2, [4, 5, 7, 10, 16, 25, 40]),
         (3, [5, 7, 10, 16, 25, 40])],
    )
    def test_matches_reference(self, order, scales):
        rng = np.random.default_rng(23)
        profs = np.cumsum(rng.standard_normal((3, 400)), axis=1)
        fast = dfa_fluctuation_matrix(profs, scales, order)
        for row in range(3):
            ref = dfa_reference(profs[row], scales, order)
            assert np.allclose(fast[row], ref, rtol=1e-9, atol=1e-11)

    def test_partial_tail_covered_from_both_ends(self):
        # n = 10, s = 3: forward boxes cover 0..8, backward cover 1..9;
        # the literal reference encodes exactly that box set
        prof = np.cumsum(np.random.default_rng(5).standard_normal(10))
        fast = dfa_fluctuation_matrix(prof, [3], 1)[0, 0]
        assert fast == pytest.approx(dfa_reference(prof, [3], 1)[0], rel=1e-12)

    def test_divisible_length_equals_single_pass(self):
        # when s divides n the two passes see identical boxes
        prof = np.cumsum(np.random.default_rng(6).standard_normal(120))
        s = 12
        k = 10
        t = np.arange(s, dtype=np.float64)
        sq = []
        for i in range(k):
            seg = prof[i * s : (i + 1) * s]
            coef = np.polyfit(t, seg, 1)
            sq.append(((seg - np.polyval(coef, t)) ** 2).mean())
        single_pass = math.sqrt(np.mean(sq))
        fast = dfa_fluctuation_matrix(prof, [s], 1)[0, 0]
        assert fast == pytest.approx(single_pass, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_scales_dividing_n_match_reference_across_blocks(self, order):
        # one cover is detrended and counted twice when s divides n; the
        # reference detrends both covers box by box
        n, scales = 1000, [8, 10, 20, 25, 40, 50, 100, 125, 200]
        rows = np.cumsum(np.random.default_rng(31).standard_normal((140, n)), axis=1)
        assert BLOCK_CELLS // n < 70  # 140 rows span three row blocks
        fast = dfa_fluctuation_matrix(rows, scales, order)
        for row in (0, 64, 65, 129, 130, 139):
            ref = dfa_reference(rows[row], scales, order)
            assert np.allclose(fast[row], ref, rtol=1e-9, atol=1e-11), row

    def test_basis_is_read_only_and_unchanged_by_the_kernel(self):
        design, pinv_t = _dfa_basis(20, 2)
        before = design.copy(), pinv_t.copy()
        assert not design.flags.writeable and not pinv_t.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
        with pytest.raises(ValueError):
            pinv_t[0, 0] = 1.0
        rows = np.cumsum(np.random.default_rng(3).standard_normal((5, 400)), axis=1)
        dfa_fluctuation_matrix(rows, [20, 21], 2)
        assert _dfa_basis(20, 2)[0] is design
        assert np.array_equal(design, before[0]) and np.array_equal(pinv_t, before[1])

    def test_linear_profile_detrended_away(self):
        y = np.arange(500, dtype=np.float64) * 3.0 + 7.0
        f = dfa_fluctuation_matrix(y, [4, 8, 16, 32], 1)
        assert np.all(f <= 1e-10)

    def test_order_two_kills_quadratic(self):
        t = np.arange(500, dtype=np.float64)
        y = 0.01 * t**2 - t
        f1 = dfa_fluctuation_matrix(y, [8, 16, 32], 1)
        f2 = dfa_fluctuation_matrix(y, [8, 16, 32], 2)
        assert np.all(f1 > 1e-3)
        assert np.all(f2 <= 1e-6)
        assert np.all(f1 > 1e4 * f2)

    def test_order_below_one_rejected(self):
        with pytest.raises(DataError):
            dfa_fluctuation_matrix(np.arange(100.0), [4], 0)


class TestDfaPrecision:
    N = 7400

    def test_bridge_rows_match_extended_precision(self):
        rows = shuffled_bridge_rows(self.N)
        scales = default_scales(self.N).scales
        assert len(scales) == 39
        fast = dfa_fluctuation_matrix(rows, scales, 1)
        assert max_relative_error(fast, dfa1_longdouble_reference(rows, scales)) <= 1e-14

    def test_tent_profile_conditioning(self):
        # a regime shift in the mean return: the profile climbs to about
        # 3,700 and falls back while the residuals are about 1e-3 * sqrt(s)
        rng = np.random.default_rng(7)
        drift = np.where(np.arange(self.N) < self.N // 2, 1.0, -1.0)
        tent = np.cumsum(drift + 1e-3 * rng.standard_normal(self.N))
        scales = default_scales(self.N).scales
        fast = dfa_fluctuation_matrix(tent, scales, 1)
        assert max_relative_error(fast, dfa1_longdouble_reference(tent, scales)) <= 1e-11

    def test_rows_across_blocks_equal_single_rows(self):
        rows = np.cumsum(np.random.default_rng(8).standard_normal((40, self.N)), axis=1)
        scales = default_scales(self.N).scales
        batch = dfa_fluctuation_matrix(rows, scales, 1)
        for i in (0, 9, 39):
            assert np.array_equal(batch[i], dfa_fluctuation_matrix(rows[i], scales, 1)[0])


class TestDfaBlockOuterLoop:
    """Each row block runs through every scale in buffers reused across scales."""

    @pytest.mark.parametrize("n,block", [(1000, 65), (7400, 8)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_scale_outer_loop_bit_for_bit(self, order, n, block):
        assert BLOCK_CELLS // n == block
        scales = default_scales(n).scales
        # a scale dividing n right after one that does not: the second
        # cover's slot then holds the previous scale's box sums unless
        # the kernel fills it
        assert any(n % b == 0 and n % a for a, b in zip(scales, scales[1:]))
        rows = np.cumsum(np.random.default_rng(n + order).standard_normal((140, n)), axis=1)
        for count in (1, block, block + 3, 140):
            fast = dfa_fluctuation_matrix(rows[:count], scales, order)
            assert np.array_equal(fast, dfa_scale_outer_reference(rows[:count], scales, order)), count

    def test_read_only_profiles_accepted_and_unchanged(self):
        rows = np.cumsum(np.random.default_rng(12).standard_normal((70, 1000)), axis=1)
        before = rows.copy()
        rows.setflags(write=False)
        scales = default_scales(1000).scales
        fast = dfa_fluctuation_matrix(rows, scales, 2)
        assert np.array_equal(rows, before)
        assert np.array_equal(fast, dfa_fluctuation_matrix(before, scales, 2))


class TestDmaPrecision:
    N = 7400
    # the shortest segment of the paper's Gulf/Iraq sub-series split
    SEGMENT_N = 1455

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_bridge_rows_match_extended_precision(self, theta):
        for n, n_scales in ((self.N, 39), (self.SEGMENT_N, 25)):
            rows = shuffled_bridge_rows(n)
            scales = default_scales(n).scales
            assert len(scales) == n_scales
            fast = dma_fluctuation_matrix(rows, scales, theta)
            ref = dma_longdouble_reference(rows, scales, theta)
            assert max_relative_error(fast, ref) <= 1e-14, n

    # A ramp far from zero makes the prefix sums reach about 1e8, so a
    # float64 prefix loses about eps * 1e8 in every window sum.  Centred
    # windows cancel the ramp, leaving residuals of the noise's size, so
    # CDMA shows the loss most.  Longdouble-prefix errors (measured) vs a
    # float64 prefix: CDMA 1.8e-11 vs 6.5e-9 (noise 1e-3) and 2.2e-8 vs
    # 5.3e-6 (noise 1e-6); BDMA and FDMA at most 4.4e-15 vs 4.6e-12.
    @pytest.mark.parametrize(
        "theta, noise, gate",
        [(0.5, 1e-3, 1e-10), (0.5, 1e-6, 1e-7), (0.0, 1e-3, 1e-13),
         (0.0, 1e-6, 1e-13), (1.0, 1e-3, 1e-13), (1.0, 1e-6, 1e-13)],
    )
    def test_long_non_integer_ramp(self, theta, noise, gate):
        assert self.ramp_error(self.N, theta, noise) <= gate

    # The same ramp at segment length; the prefix reaches about 1.5e7.
    # Measured errors with the longdouble prefix: CDMA 3.7e-11 (noise
    # 1e-3) and 3.7e-8 (noise 1e-6); BDMA and FDMA at most 6.6e-15.
    @pytest.mark.parametrize(
        "theta, noise, gate",
        [(0.5, 1e-3, 1e-10), (0.5, 1e-6, 1e-7), (0.0, 1e-3, 1e-13),
         (0.0, 1e-6, 1e-13), (1.0, 1e-3, 1e-13), (1.0, 1e-6, 1e-13)],
    )
    def test_non_integer_ramp_at_segment_length(self, theta, noise, gate):
        assert self.ramp_error(self.SEGMENT_N, theta, noise) <= gate

    @staticmethod
    def ramp_error(n, theta, noise):
        t = np.arange(n)
        ramp = 1e4 + 0.7318 * t + noise * np.random.default_rng(9).standard_normal(n)
        scales = default_scales(n).scales
        fast = dma_fluctuation_matrix(ramp, scales, theta)
        return max_relative_error(fast, dma_longdouble_reference(ramp, scales, theta))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_rows_across_blocks_equal_single_rows(self, theta):
        # At least three blocks of BLOCK_CELLS // n rows.  Every third row
        # is a ramp from 1e9, so a window that read past a row's end
        # would move its neighbour's F.
        for n in (self.N, 1001, self.SEGMENT_N):
            count = 2 * (BLOCK_CELLS // n) + 2
            rows = np.cumsum(np.random.default_rng(8).standard_normal((count, n)), axis=1)
            rows[::3] += 1e9 + 0.7318 * np.arange(n)
            scales = default_scales(n).scales
            batch = dma_fluctuation_matrix(rows, scales, theta)
            for i, row in enumerate(rows):
                single = dma_fluctuation_matrix(row, scales, theta)[0]
                assert np.array_equal(batch[i], single), (n, i)


class TestScaleGrid:
    def test_default_grid_shape(self):
        grid = default_scales(7401)
        s = grid.scales
        assert s[0] == 10 and s[-1] <= 740
        assert len(s) >= 16
        assert np.all(s[1:] > s[:-1])

    def test_density_scales_with_length(self):
        assert len(default_scales(16384)) >= 40

    def test_minimum_length_boundary(self):
        assert len(default_scales(250)) == 16
        with pytest.raises(InsufficientDataError):
            default_scales(249)

    def test_sparse_density_still_enough_points(self):
        grid = default_scales(7401, points_per_decade=5)
        assert len(grid) >= 16

    def test_bad_density(self):
        with pytest.raises(DataError):
            default_scales(1000, points_per_decade=0)

    @staticmethod
    def uncapped_scales(n, points_per_decade):
        # the grid rule with logspace sized by the requested density alone
        s_max = n // 10
        decades = math.log10(s_max / 10.0)
        num = max(math.ceil(points_per_decade * decades) + 1, 16)
        for trial in (num, 2 * num, 4 * num, 8 * num):
            scales = np.unique(
                np.round(np.logspace(1.0, math.log10(s_max), trial)).astype(np.int64)
            )
            if len(scales) >= 16:
                return scales
        return np.arange(10, s_max + 1)

    def test_density_cap_changes_no_grid(self):
        for n in range(250, 20001, 569):
            for ppd in (1, 5, 20, 150, 2000, 30000):
                assert np.array_equal(
                    default_scales(n, ppd).scales, self.uncapped_scales(n, ppd)
                ), (n, ppd)

    def test_past_the_cap_every_integer_is_hit(self):
        for n in (160, 1000, 7401, 50000):
            s_max = n // 10
            c = math.ceil(math.log10(s_max / 10) / math.log10(1 + 1 / (2 * s_max))) + 1
            for num in (c, c + 1, 2 * c, 10 * c + 7):
                grid = np.unique(np.round(np.logspace(1.0, math.log10(s_max), num)))
                assert np.array_equal(grid, np.arange(10, s_max + 1)), (n, num)

    def test_huge_density_gives_every_integer(self):
        for n in (250, 7401, 50000):
            grid = default_scales(n, points_per_decade=10**12)
            assert np.array_equal(grid.scales, np.arange(10, n // 10 + 1))

    def test_validation(self):
        with pytest.raises(DataError):
            ScaleGrid(np.array([4, 4, 5]))
        with pytest.raises(DataError):
            ScaleGrid(np.array([], dtype=np.int64))
        with pytest.raises(ScaleRangeError):
            ScaleGrid(np.array([1, 5]))

    def test_scale_bounds_checked(self):
        prof = np.arange(50.0)
        with pytest.raises(ScaleRangeError):
            dma_fluctuation_matrix(prof, [2, 10], 0.0)
        with pytest.raises(ScaleRangeError):
            dma_fluctuation_matrix(prof, [10, 51], 0.0)
        with pytest.raises(ScaleRangeError):
            dfa_fluctuation_matrix(prof, [4, 10], 3)  # min is order + 2


class TestEstimator:
    def test_tags(self):
        assert Estimator.dfa().tag == "DFA"
        assert Estimator.dfa(2).tag == "DFA(2)"
        assert Estimator.dma(0.0).tag == "BDMA"
        assert Estimator.dma(0.5).tag == "CDMA"
        assert Estimator.dma(1.0).tag == "FDMA"
        assert Estimator.dma(0.25).tag == "DMA(theta=0.25)"

    def test_validation(self):
        with pytest.raises(DataError):
            Estimator("spectral")
        with pytest.raises(DataError):
            Estimator.dma(1.5)
        with pytest.raises(DataError):
            Estimator.dfa(0)
        with pytest.raises(DataError):
            Estimator.dma(-0.1)

    def test_dispatch_matches_kernels(self):
        prof = np.cumsum(np.random.default_rng(9).standard_normal(300))
        scales = np.array([4, 8, 16])
        via_est = Estimator.dma(0.5).fluctuation_matrix(prof, scales)
        direct = dma_fluctuation_matrix(prof, scales, 0.5)
        assert np.array_equal(via_est, direct)
        via_est = Estimator.dfa(2).fluctuation_matrix(prof, scales)
        direct = dfa_fluctuation_matrix(prof, scales, 2)
        assert np.array_equal(via_est, direct)

    @pytest.mark.parametrize("est", [Estimator.dma(0.5), Estimator.dfa(1)], ids=lambda e: e.tag)
    def test_empty_batch_gives_empty_matrix(self, est):
        out = est.fluctuation_matrix(np.empty((0, 300)), np.array([4, 8, 16]))
        assert out.shape == (0, 3)


class TestColumnIndependence:
    # an ensemble computed on the fitted scales only must match the
    # whole-grid F the original H is fitted on, column for column
    MASKS = {
        "first": np.arange(21) < 15,
        "last": np.arange(21) >= 6,
        "middle": (np.arange(21) >= 3) & (np.arange(21) < 18),
        "odd": np.arange(21) % 2 == 1,
        "one": np.arange(21) == 9,
    }

    @pytest.mark.parametrize(
        "est",
        [Estimator.dfa(1), Estimator.dfa(2), Estimator.dma(0.0), Estimator.dma(0.5),
         Estimator.dma(1.0)],
        ids=lambda e: e.tag,
    )
    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_subset_columns_bitwise_equal(self, est, mask):
        rows = np.cumsum(np.random.default_rng(41).standard_normal((6, 1000)), axis=1)
        scales = default_scales(1000).scales
        m = self.MASKS[mask]
        assert len(scales) == len(m)
        whole = est.fluctuation_matrix(rows, scales)
        assert np.array_equal(est.fluctuation_matrix(rows, scales[m]), whole[:, m])


class TestSingleSeriesWrappers:
    def test_wrappers_share_kernel_path(self):
        values = np.cumsum(np.random.default_rng(2).standard_normal(400))
        y = Profile(values)
        grid = ScaleGrid(np.array([4, 8, 16, 32]))
        a = fluctuation(y, grid, Estimator.dma(0.5))
        assert a.method == "CDMA" and a.n == 400
        assert np.array_equal(
            a.f, dma_fluctuation_matrix(values, grid.scales, 0.5)[0]
        )
        b = fluctuation(y, grid, Estimator.dfa(1))
        assert b.method == "DFA" and b.n == 400
        assert np.array_equal(
            b.f, dfa_fluctuation_matrix(values, grid.scales, 1)[0]
        )

    def test_batch_rows_equal_single_rows(self):
        rng = np.random.default_rng(31)
        profs = np.cumsum(rng.standard_normal((8, 600)), axis=1)
        scales = default_scales(600).scales
        for theta in (0.0, 0.5, 1.0):
            batch = dma_fluctuation_matrix(profs, scales, theta)
            for i in (0, 3, 7):
                single = dma_fluctuation_matrix(profs[i], scales, theta)[0]
                assert np.array_equal(batch[i], single)
        batch = dfa_fluctuation_matrix(profs, scales, 1)
        for i in (0, 3, 7):
            single = dfa_fluctuation_matrix(profs[i], scales, 1)[0]
            assert np.array_equal(batch[i], single)


class TestFluctuationFunction:
    def test_validation(self):
        with pytest.raises(DataError):
            FluctuationFunction(np.array([4, 8]), np.array([1.0]), "DFA", 100)
        with pytest.raises(DataError):
            FluctuationFunction(
                np.array([8, 4]), np.array([1.0, 2.0]), "DFA", 100
            )
        with pytest.raises(DataError):
            FluctuationFunction(
                np.array([4, 8]), np.array([1.0, np.nan]), "DFA", 100
            )
