import math
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfetest import detrend
from wfetest.detrend import (
    BLOCK_CELLS,
    DOT_CELLS,
    MIN_GRID_POINTS,
    Estimator,
    _dfa_basis,
    _dfa_projector,
    _row_sum_squares,
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
from wfetest.scaling import FIT_WINDOW
from wfetest.shuffletest import replicate_rng
from wfetest.timeseries import profile

from conftest import SAMPLE_PRICES, child_env


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


def dfa_longdouble_reference(prof, scales, order):
    """DFA of any order in extended precision, against an orthonormal basis.

    The powers 1, t, ..., t^order of the box's centred abscissa, scaled
    to [-1, 1], are orthonormalized in longdouble (Gram-Schmidt, each
    vector swept twice), and each box's residual is the box minus its
    projection onto each basis vector in turn, formed directly.
    Returns longdouble F, shape (rows, scales).
    """
    prof = np.atleast_2d(prof).astype(np.longdouble)
    rows, n = prof.shape
    out = np.empty((rows, len(scales)), dtype=np.longdouble)
    for j, s in enumerate(scales):
        s = int(s)
        k = n // s
        resid = np.concatenate(
            [prof[:, : k * s].reshape(rows, k, s), prof[:, n - k * s :].reshape(rows, k, s)],
            axis=1,
        )
        half = np.longdouble(s - 1) / 2
        t = (np.arange(s, dtype=np.longdouble) - half) / half
        basis = []
        for q in range(order + 1):
            v = t**q
            for _ in range(2):
                for e in basis:
                    v = v - (v @ e) * e
            basis.append(v / np.sqrt(v @ v))
        for e in basis:
            resid = resid - (resid @ e)[..., None] * e
        out[:, j] = np.sqrt(np.mean(resid * resid, axis=(1, 2)))
    return out


def dfa_scale_outer_reference(profiles, scales, order):
    """The kernel with the scale loop outside the row-block loop.

    The same BLAS calls on the same operands as
    :func:`dfa_fluctuation_matrix`, with fresh arrays for every scale,
    so its F must equal the kernel's bit for bit: boxes of at most
    ``detrend._PROJECTOR_MAX_S`` points through the cached projector,
    longer ones through the pseudo-inverse fit.
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
        cover_ss = np.empty((len(starts), rows), dtype=np.float64)
        buf = np.empty((min(block, rows), k, s), dtype=np.float64)
        for r0 in range(0, rows, block):
            part = profiles[r0 : r0 + block]
            res = buf[: len(part)]
            for cover, start in enumerate(starts):
                boxes = part[:, start : start + k * s].reshape(len(part), k, s)
                if s <= detrend._PROJECTOR_MAX_S:
                    np.matmul(boxes, _dfa_projector(s, order), out=res)
                else:
                    np.matmul(boxes @ pinv_t, design.T, out=res)
                    np.subtract(boxes, res, out=res)
                cover_ss[cover, r0 : r0 + block] = _row_sum_squares(
                    res.reshape(len(part), k * s)
                )
        # when s divides n the one cover counts twice
        out[:, j] = np.sqrt((cover_ss[0] + cover_ss[-1]) / (2 * k * s))
    return out


def dfa_box_sum_reference(profiles, scales, order):
    """DFA with one einsum per box and one sum over a row's 2k box sums.

    The reduction the kernel used before it took one BLAS dot per row
    and cover; the fits are the kernel's, so only the summation order
    differs.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    rows, n = profiles.shape
    out = np.empty((rows, len(scales)), dtype=np.float64)
    for j, s in enumerate(scales):
        s = int(s)
        k = n // s
        design, pinv_t = _dfa_basis(s, order)
        box_ss = np.empty((rows, 2, k), dtype=np.float64)
        for cover, start in enumerate((0, n - k * s)):
            boxes = profiles[:, start : start + k * s].reshape(rows, k, s)
            res = boxes - (boxes @ pinv_t) @ design.T
            box_ss[:, cover] = np.einsum("rks,rks->rk", res, res)
        out[:, j] = np.sqrt(box_ss.reshape(rows, 2 * k).sum(axis=1) / (2 * k * s))
    return out


def dma_einsum_reference(profiles, scales, theta):
    """The DMA kernel with each row's squares summed by one einsum.

    The reduction the kernel used before it took BLAS dots; everything
    else is the kernel's, so only the summation order differs.
    """
    def einsum_rows(rows):
        return np.einsum("ij,ij->i", rows, rows)

    with mock.patch.object(detrend, "_row_sum_squares", einsum_rows):
        return dma_fluctuation_matrix(profiles, scales, theta)


def dma_divide_reference(profiles, scales, theta):
    """The DMA kernel's arithmetic as it was when it divided every cell.

    One row at a time: the TwoSum prefix hi + lo, each window sum
    (hi[s:] - hi[:-s]) + (lo[s:] - lo[:-s]) divided by s, the residual
    x - mean, and F the root mean square of the residuals, not scaled.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    rows, n = profiles.shape
    out = np.empty((rows, len(scales)), dtype=np.float64)
    for i, row in enumerate(profiles):
        x = np.concatenate(([0.0], row))
        hi = np.cumsum(x)
        b = hi[1:] - hi[:-1]
        lo = np.cumsum(np.concatenate(([0.0], (hi[:-1] - (hi[1:] - b)) + (x[1:] - b))))
        for j, s in enumerate(scales):
            s = int(s)
            past, _ = _window_split(s, theta)
            mean = ((hi[s:] - hi[:-s]) + (lo[s:] - lo[:-s])) / s
            resid = x[past + 1 : past + 1 + len(mean)] - mean
            out[i, j] = math.sqrt(_row_sum_squares(resid[None])[0] / (n + 1 - s))
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
        row[:] = profile(perm)
    return rows


def max_relative_error(fast, ref):
    return float(np.max(np.abs((fast - ref) / ref)))


class TestMetamorphic:
    """Relations between F on related profiles, gated at METAMORPHIC_TOL.

    They catch a fault that a kernel and its slow reference share.  The
    measured deviations are at most about 4e-16; the bound is two orders
    of magnitude below the kernel tests' 1e-12.
    """

    METAMORPHIC_TOL = 1e-14

    @pytest.fixture(params=[1000, 1455, 7400])
    def walk(self, request):
        x = np.random.default_rng(request.param).standard_normal(request.param)
        return profile(x), default_scales(request.param)

    @pytest.mark.parametrize("order", [1, 2])
    def test_dfa_reversal_invariant(self, walk, order):
        # reversing the profile swaps the forward and backward covers
        y, scales = walk
        f = dfa_fluctuation_matrix(y, scales, order)
        f_rev = dfa_fluctuation_matrix(y[::-1].copy(), scales, order)
        assert max_relative_error(f_rev, f) <= self.METAMORPHIC_TOL

    def test_bdma_of_reversed_is_fdma(self, walk):
        y, scales = walk
        fdma = dma_fluctuation_matrix(y, scales, 1.0)
        bdma_rev = dma_fluctuation_matrix(y[::-1].copy(), scales, 0.0)
        assert max_relative_error(bdma_rev, fdma) <= self.METAMORPHIC_TOL

    def test_cdma_reversal_invariant_at_odd_scales(self, walk):
        y, scales = walk
        odd = scales[scales % 2 == 1]
        assert len(odd) >= 5
        f = dma_fluctuation_matrix(y, odd, 0.5)
        f_rev = dma_fluctuation_matrix(y[::-1].copy(), odd, 0.5)
        assert max_relative_error(f_rev, f) <= self.METAMORPHIC_TOL

    @pytest.mark.parametrize("est", [Estimator.dfa(), Estimator.dma(0.5)], ids=["dfa", "cdma"])
    def test_scale_equivariant(self, walk, est):
        y, scales = walk
        f = est.fluctuation_matrix(y, scales)
        f3 = est.fluctuation_matrix(3.0 * y, scales)
        assert max_relative_error(f3, 3.0 * f) <= self.METAMORPHIC_TOL


class TestWindowSplit:
    def test_extremes(self):
        assert _window_split(10, 0.0) == (9, 0)
        assert _window_split(10, 1.0) == (0, 9)

    def test_centered_odd_symmetric(self):
        assert _window_split(11, 0.5) == (5, 5)

    def test_centered_even_leans_to_past(self):
        assert _window_split(10, 0.5) == (5, 4)

    def test_binary_rounding_snapped(self):
        # (91 - 1) * 0.7 is 62.99999999999999 in binary; must act as 63
        assert _window_split(91, 0.7) == (27, 63)

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
        scales = default_scales(1000)
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
        scales = default_scales(self.N)
        assert len(scales) == 39
        fast = dfa_fluctuation_matrix(rows, scales, 1)
        assert max_relative_error(fast, dfa1_longdouble_reference(rows, scales)) <= 1e-14

    # measured: 2.9e-12, 5.9e-12 and 5.8e-12 for orders 1, 2 and 3
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_tent_profile_conditioning(self, order):
        # a regime shift in the mean return: the profile climbs to about
        # 3,700 and falls back while the residuals are about 1e-3 * sqrt(s)
        rng = np.random.default_rng(7)
        drift = np.where(np.arange(self.N) < self.N // 2, 1.0, -1.0)
        tent = np.cumsum(drift + 1e-3 * rng.standard_normal(self.N))
        scales = default_scales(self.N)
        fast = dfa_fluctuation_matrix(tent, scales, order)
        assert max_relative_error(fast, dfa_longdouble_reference(tent, scales, order)) <= 1e-11

    def test_general_order_reference_agrees_with_dfa1_reference(self):
        # two extended-precision constructions of DFA-1: explicit centring,
        # and the orthonormal basis that the tent gate uses for every order
        rows = shuffled_bridge_rows(1000, count=3)
        scales = default_scales(1000)
        general = dfa_longdouble_reference(rows, scales, 1)
        assert max_relative_error(general, dfa1_longdouble_reference(rows, scales)) <= 1e-17

    def test_rows_across_blocks_equal_single_rows(self):
        rows = np.cumsum(np.random.default_rng(8).standard_normal((40, self.N)), axis=1)
        scales = default_scales(self.N)
        batch = dfa_fluctuation_matrix(rows, scales, 1)
        for i in (0, 9, 39):
            assert np.array_equal(batch[i], dfa_fluctuation_matrix(rows[i], scales, 1)[0])


class TestDfaBlockOuterLoop:
    """Each row block runs through every scale in buffers reused across scales."""

    @pytest.mark.parametrize("n,block", [(1000, 65), (7400, 8)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_scale_outer_loop_bit_for_bit(self, order, n, block):
        assert BLOCK_CELLS // n == block
        scales = default_scales(n)
        # a scale dividing n right after one that does not: one cover
        # counted twice, next to two covers
        assert any(n % b == 0 and n % a for a, b in zip(scales, scales[1:]))
        rows = np.cumsum(np.random.default_rng(n + order).standard_normal((140, n)), axis=1)
        for count in (1, block, block + 3, 140):
            fast = dfa_fluctuation_matrix(rows[:count], scales, order)
            assert np.array_equal(fast, dfa_scale_outer_reference(rows[:count], scales, order)), count

    def test_read_only_profiles_accepted_and_unchanged(self):
        rows = np.cumsum(np.random.default_rng(12).standard_normal((70, 1000)), axis=1)
        before = rows.copy()
        rows.setflags(write=False)
        scales = default_scales(1000)
        fast = dfa_fluctuation_matrix(rows, scales, 2)
        assert np.array_equal(rows, before)
        assert np.array_equal(fast, dfa_fluctuation_matrix(before, scales, 2))


class TestDfaProjector:
    """Boxes of at most _PROJECTOR_MAX_S points are detrended by one cached projector."""

    # entries of P are of order 1; measured at most 1.0e-15 off symmetric,
    # 6.7e-16 off idempotent and 1.5e-15 off annihilating the design
    BOUND = 1e-14

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_projector_is_the_residual_projection_of_its_design(self, order):
        assert detrend._PROJECTOR_MAX_S == 32
        for s in range(order + 2, detrend._PROJECTOR_MAX_S + 1):
            proj = _dfa_projector(s, order)
            design = _dfa_basis(s, order)[0]
            assert proj.shape == (s, s) and not proj.flags.writeable, s
            with pytest.raises(ValueError):
                proj[0, 0] = 1.0
            assert np.max(np.abs(proj - proj.T)) <= self.BOUND, s
            assert np.max(np.abs(proj @ proj - proj)) <= self.BOUND, s
            assert np.max(np.abs(proj @ design)) <= self.BOUND, s
            assert _dfa_projector(s, order) is proj


class TestRowSumSquares:
    """Both kernels sum each row's squares as BLAS dots of at most DOT_CELLS values."""

    def test_long_rows_are_in_order_sums_of_their_piece_dots(self):
        # strided rows, as the DMA kernel's valid positions are
        width = 2 * DOT_CELLS + 123
        rows = np.random.default_rng(14).standard_normal((3, width + 7))[:, :width]
        for row, got in zip(rows, _row_sum_squares(rows)):
            expected = 0.0
            for c0 in range(0, width, DOT_CELLS):
                piece = row[c0 : c0 + DOT_CELLS]
                expected += float(np.dot(piece, piece))
            assert got == expected

    # OpenBLAS splits a dot of more than 10,000 values over its threads;
    # at n = 30,000 every DFA cover and DMA pass is longer than that
    KERNELS = """
import sys
import numpy as np
from wfetest.detrend import default_scales, dfa_fluctuation_matrix, dma_fluctuation_matrix
rows = np.cumsum(np.random.default_rng(15).standard_normal((3, 30000)), axis=1)
scales = default_scales(30000)
out = [dfa_fluctuation_matrix(rows, scales, order) for order in (1, 2)]
out.append(dma_fluctuation_matrix(rows, scales, 0.5))
sys.stdout.buffer.write(np.concatenate(out).tobytes())
"""

    def test_kernel_bits_do_not_depend_on_blas_threads(self):
        outputs = []
        for threads in ("1", "2"):
            env = child_env() | {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", self.KERNELS], capture_output=True, env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 9 * len(default_scales(30000)) * 8
        assert outputs[0] == outputs[1]

    # the reduction moves F in the last bits only: 4e-15 relative is
    # about 18 units of float64 rounding
    @pytest.mark.parametrize("n", [1000, 7400])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_dfa_near_per_box_sums(self, order, n):
        rows = shuffled_bridge_rows(n)
        scales = default_scales(n)
        fast = dfa_fluctuation_matrix(rows, scales, order)
        assert max_relative_error(fast, dfa_box_sum_reference(rows, scales, order)) <= 4e-15

    @pytest.mark.parametrize("n", [1000, 7400])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_dma_near_einsum_sums(self, theta, n):
        rows = shuffled_bridge_rows(n)
        scales = default_scales(n)
        fast = dma_fluctuation_matrix(rows, scales, theta)
        assert max_relative_error(fast, dma_einsum_reference(rows, scales, theta)) <= 4e-15


class TestDmaPrecision:
    N = 7400
    # the shortest segment of the paper's Gulf/Iraq sub-series split
    SEGMENT_N = 1455

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_bridge_rows_match_extended_precision(self, theta):
        for n, n_scales in ((self.N, 39), (self.SEGMENT_N, 25)):
            rows = shuffled_bridge_rows(n)
            scales = default_scales(n)
            assert len(scales) == n_scales
            fast = dma_fluctuation_matrix(rows, scales, theta)
            ref = dma_longdouble_reference(rows, scales, theta)
            assert max_relative_error(fast, ref) <= 1e-14, n

    # A ramp far from zero makes the prefix sums reach about 1e8, so a
    # float64 prefix loses about eps * 1e8 in every window sum.  Centred
    # windows cancel the ramp, leaving residuals of the noise's size, so
    # CDMA shows the loss most.  Errors of this kernel (measured) vs a
    # float64 prefix: CDMA 3.2e-11 vs 6.5e-9 (noise 1e-3) and 2.6e-8 vs
    # 5.3e-6 (noise 1e-6); BDMA and FDMA at most 8.1e-15 vs 4.6e-12.
    @pytest.mark.parametrize(
        "theta, noise, gate",
        [(0.5, 1e-3, 1e-10), (0.5, 1e-6, 1e-7), (0.0, 1e-3, 1e-13),
         (0.0, 1e-6, 1e-13), (1.0, 1e-3, 1e-13), (1.0, 1e-6, 1e-13)],
    )
    def test_long_non_integer_ramp(self, theta, noise, gate):
        assert self.ramp_error(self.N, theta, noise) <= gate

    # The same ramp at segment length; the prefix reaches about 1.5e7.
    # Measured errors of this kernel: CDMA 4.4e-11 (noise 1e-3) and
    # 4.8e-8 (noise 1e-6); BDMA and FDMA at most 6.3e-15.
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
        scales = default_scales(n)
        fast = dma_fluctuation_matrix(ramp, scales, theta)
        return max_relative_error(fast, dma_longdouble_reference(ramp, scales, theta))

    # The kernel forms s times each residual and divides F by s once, where
    # it used to divide every window sum by s; F moves in the last bits
    # only (at most 4 ulp measured on these rows).  n runs over the
    # lengths of the paper's Gulf/Iraq segments, with rows in three blocks.
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1455, 2649, 3294])
    def test_within_a_few_ulp_of_dividing_every_cell(self, n, theta):
        rows = shuffled_bridge_rows(n, count=2 * (BLOCK_CELLS // 2 // (n + 1)) + 3)
        scales = default_scales(n)
        fast = dma_fluctuation_matrix(rows, scales, theta)
        ref = dma_divide_reference(rows, scales, theta)
        assert np.all(np.abs(fast - ref) <= 6 * np.spacing(ref))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_rows_across_blocks_equal_single_rows(self, theta):
        # At least three blocks of BLOCK_CELLS // n rows.  Every third row
        # is a ramp from 1e9, so a window that read past a row's end
        # would move its neighbour's F.
        for n in (self.N, 1001, self.SEGMENT_N):
            count = 2 * (BLOCK_CELLS // n) + 2
            rows = np.cumsum(np.random.default_rng(8).standard_normal((count, n)), axis=1)
            rows[::3] += 1e9 + 0.7318 * np.arange(n)
            scales = default_scales(n)
            batch = dma_fluctuation_matrix(rows, scales, theta)
            for i, row in enumerate(rows):
                single = dma_fluctuation_matrix(row, scales, theta)[0]
                assert np.array_equal(batch[i], single), (n, i)


class TestDefaultScales:
    def test_default_grid_shape(self):
        s = default_scales(7401)
        assert s.dtype == np.int64 and s.ndim == 1 and not s.flags.writeable
        assert s[0] == 10 and s[-1] <= 740
        assert len(s) >= 16
        assert np.all(s[1:] > s[:-1])

    def test_density_scales_with_length(self):
        assert len(default_scales(16384)) >= 40

    def test_minimum_length_boundary(self):
        assert len(default_scales(250)) == MIN_GRID_POINTS == 16
        with pytest.raises(InsufficientDataError):
            default_scales(249)
        # so no grid is shorter than the auto range's fit window
        assert MIN_GRID_POINTS > FIT_WINDOW

    @staticmethod
    def uncapped_scales(n):
        # the grid rule at 20 points a decade, with no density cap
        s_max = n // 10
        decades = math.log10(s_max / 10.0)
        num = max(math.ceil(20 * decades) + 1, 16)
        for trial in (num, 2 * num, 4 * num, 8 * num):
            scales = np.unique(
                np.round(np.logspace(1.0, math.log10(s_max), trial)).astype(np.int64)
            )
            if len(scales) >= 16:
                return scales
        return np.arange(10, s_max + 1)

    def test_density_cap_changes_no_grid(self):
        for n in range(250, 20001, 569):
            assert np.array_equal(default_scales(n), self.uncapped_scales(n)), n

    def test_grid_equals_np_unique_of_the_rounded_logspace(self):
        # default_scales keeps each value that differs from its predecessor
        for n in range(250, 200_001, 61):
            assert np.array_equal(default_scales(n), self.uncapped_scales(n)), n

    ANALYZE = """
import sys
from wfetest import cli
assert "numpy.ma" not in sys.modules
code = cli.main(["analyze", "-i", sys.argv[1], "-o", sys.argv[2]])
print(code, "numpy.ma" in sys.modules)
"""

    def test_analyze_imports_no_masked_arrays(self, tmp_path):
        # np.unique imports numpy.ma on its first call, 6 ms of an analyze run
        proc = subprocess.run(
            [sys.executable, "-c", self.ANALYZE, str(SAMPLE_PRICES), str(tmp_path / "a.csv")],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


# every way a scale array reaches a kernel; each runs the one check,
# detrend._check_scales, on a profile of n = 50
SCALE_ENTRY_POINTS = {
    "dma": lambda prof, scales: dma_fluctuation_matrix(prof, scales, 0.5),
    "dfa": lambda prof, scales: dfa_fluctuation_matrix(prof, scales, 1),
    "fluctuation-dma": lambda prof, scales: fluctuation(prof, scales, Estimator.dma(0.5)),
    "fluctuation-dfa": lambda prof, scales: fluctuation(prof, scales, Estimator.dfa(1)),
}


class TestCheckScales:
    PROF = np.cumsum(np.random.default_rng(5).standard_normal(50))

    SHAPE = "^scales must be a nonempty, strictly increasing 1-d array$"
    WHOLE = "^scales must be whole numbers$"

    @pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "scales, message",
        [([4, 4, 5], SHAPE), ([60, 10], SHAPE), ([5, 2], SHAPE), ([], SHAPE),
         ([[4, 8]], SHAPE), (8, SHAPE), ([4.7, 8.9], WHOLE), ([4, 8.5], WHOLE),
         ([np.nan, 8.0], WHOLE), ([4.0, np.inf], WHOLE), ([[4.5, 8.0]], WHOLE),
         (["4", "8"], WHOLE), ([None, 8], WHOLE), ([True, False], WHOLE)],
        ids=["repeated", "decreasing", "decreasing-below-minimum", "empty", "2-d", "0-d",
             "fractions", "one-fraction", "nan", "inf", "2-d-fraction",
             "strings", "none", "booleans"],
    )
    def test_malformed_grid_is_data_error(self, entry, scales, message):
        # a box size cast to int64 unchecked would truncate 4.7 to 4 silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                SCALE_ENTRY_POINTS[entry](self.PROF, scales)

    @pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "scales, message",
        [([1, 5], "^scale 1 below method minimum 3$"),
         ([10, 51], "^scale 51 exceeds series length 50$")],
        ids=["below-minimum", "past-n"],
    )
    def test_grid_outside_bounds_is_scale_range_error(self, entry, scales, message):
        with pytest.raises(ScaleRangeError, match=message):
            SCALE_ENTRY_POINTS[entry](self.PROF, scales)

    @pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
    def test_integral_floats_are_their_ints(self, entry):
        whole = SCALE_ENTRY_POINTS[entry](self.PROF, [4, 8, 16])
        floats = SCALE_ENTRY_POINTS[entry](self.PROF, np.array([4.0, 8.0, 16.0]))
        assert np.array_equal(whole, floats)

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

    # each bad theta or order, and the message that the Estimator and the
    # kernel that takes it both give
    BAD_PARAMETERS = [
        ("dma", 2.0, "theta must be in [0, 1], got 2.0"),
        ("dma", -1.0, "theta must be in [0, 1], got -1.0"),
        ("dma", np.nan, "theta must be in [0, 1], got nan"),
        ("dma", "0.5", "theta must be a real number, got '0.5'"),
        ("dfa", 1.5, "dfa order must be an integer, got 1.5"),
        ("dfa", 0, "dfa order must be >= 1, got 0"),
        ("dfa", "2", "dfa order must be an integer, got '2'"),
        ("dfa", True, "dfa order must be an integer, got True"),
        ("dma", True, "theta must be a real number, got True"),
    ]

    @pytest.mark.parametrize("kind,value,message", BAD_PARAMETERS)
    def test_kernel_checks_its_parameter(self, kind, value, message):
        # unchecked, the DMA kernel raised a bare numpy ValueError for a
        # theta of 2.0, -1.0 or NaN, and the DFA kernel a TypeError for 1.5
        prof = np.cumsum(np.random.default_rng(9).standard_normal(300))
        kernel, scales = {"dma": (dma_fluctuation_matrix, [4, 8, 16]),
                          "dfa": (dfa_fluctuation_matrix, [10, 20])}[kind]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            kernel(prof, scales, value)

    @pytest.mark.parametrize("kind,value,message", BAD_PARAMETERS)
    def test_estimator_checks_as_its_kernel(self, kind, value, message):
        make = {"dma": Estimator.dma, "dfa": Estimator.dfa}[kind]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make(value)

    def test_numpy_parameters_accepted(self):
        prof = np.cumsum(np.random.default_rng(9).standard_normal(300))
        scales = np.array([8, 16])
        for est, plain in [(Estimator.dfa(np.int64(2)), Estimator.dfa(2)),
                           (Estimator.dma(np.float32(0.5)), Estimator.dma(0.5))]:
            assert est.tag == plain.tag
            assert np.array_equal(est.fluctuation_matrix(prof, scales),
                                  plain.fluctuation_matrix(prof, scales))

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
        scales = default_scales(1000)
        m = self.MASKS[mask]
        assert len(scales) == len(m)
        whole = est.fluctuation_matrix(rows, scales)
        assert np.array_equal(est.fluctuation_matrix(rows, scales[m]), whole[:, m])


class TestSingleSeriesWrappers:
    def test_wrappers_share_kernel_path(self):
        values = np.cumsum(np.random.default_rng(2).standard_normal(400))
        grid = np.array([4, 8, 16, 32])
        a = fluctuation(values, grid, Estimator.dma(0.5))
        assert a.shape == (4,) and a.dtype == np.float64 and not a.flags.writeable
        assert np.array_equal(a, dma_fluctuation_matrix(values, grid, 0.5)[0])
        b = fluctuation(values, grid, Estimator.dfa(1))
        assert b.shape == (4,) and b.dtype == np.float64 and not b.flags.writeable
        assert np.array_equal(b, dfa_fluctuation_matrix(values, grid, 1)[0])

    @pytest.mark.parametrize("est", [Estimator.dma(0.5), Estimator.dfa(1)], ids=lambda e: e.tag)
    @pytest.mark.parametrize(
        "y, message",
        [(np.zeros((2, 50)), "^profile must be a nonempty 1-d array$"),
         (np.zeros((1, 50)), "^profile must be a nonempty 1-d array$"),
         (np.zeros(0), "^profile must be a nonempty 1-d array$"),
         (np.r_[np.zeros(49), np.nan], "^profile values must be finite$"),
         (np.r_[-np.inf, np.zeros(49)], "^profile values must be finite$"),
         (["a"] * 50, "^profile values must be integers or floats$"),
         ([None] * 50, "^profile values must be integers or floats$"),
         ([True] * 50, "^profile values must be integers or floats$")],
        ids=["2-d", "one-row-2-d", "empty", "nan", "inf", "strings", "none", "booleans"],
    )
    def test_profile_must_be_one_finite_row(self, monkeypatch, est, y, message):
        # the kernels take any 2-d batch, so the one-row wrapper must refuse one
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix", lambda *a: computed.append(a))
        with pytest.raises(DataError, match=message):
            fluctuation(y, np.array([4, 8, 16]), est)
        assert computed == []

    def test_any_finite_row_is_a_profile(self):
        # analytic profiles (ramps, polynomials) need not end at 0
        f = fluctuation(np.array([-5.0, 3.0, 4.0, 7.5]), [3, 4], Estimator.dma(0.0))
        assert f.shape == (2,) and np.all(np.isfinite(f))

    def test_overflowing_f_is_data_error(self):
        # squares of a profile near 1e202 overflow, and F comes out inf
        y = np.cumsum(np.full(100, 1e200))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DataError, match="^fluctuation values must be finite$"):
                fluctuation(y, [4, 8], Estimator.dfa())

    def test_overflowing_dma_f_is_data_error(self):
        # the DMA kernel squares s times each residual, which overflows
        # s^2 sooner than the residual itself; the error is the same
        y = np.cumsum(np.full(100, 1e152))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DataError, match="^fluctuation values must be finite$"):
                fluctuation(y, [4, 8], Estimator.dma(0.0))

    def test_batch_rows_equal_single_rows(self):
        rng = np.random.default_rng(31)
        profs = np.cumsum(rng.standard_normal((8, 600)), axis=1)
        scales = default_scales(600)
        for theta in (0.0, 0.5, 1.0):
            batch = dma_fluctuation_matrix(profs, scales, theta)
            for i in (0, 3, 7):
                single = dma_fluctuation_matrix(profs[i], scales, theta)[0]
                assert np.array_equal(batch[i], single)
        batch = dfa_fluctuation_matrix(profs, scales, 1)
        for i in (0, 3, 7):
            single = dfa_fluctuation_matrix(profs[i], scales, 1)[0]
            assert np.array_equal(batch[i], single)
