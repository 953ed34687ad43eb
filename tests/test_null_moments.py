"""Exact permutation-null moments of F^2(s): a gate on the kernels.

Under the shuffle null the profile is y = cumsum(z), with z a random
permutation of the demeaned returns.  z is exchangeable with zero sum,
so Cov(z) = c (I - 11'/n) with c = v n / (n - 1), v the mean squared
deviation of the returns, and Cov(y)_ij = c (min(i, j) - i j / n) for
1-based i, j.  F^2(s) is a quadratic form in y, so E_perm[F^2(s)] is
exact for any return distribution:

- DFA of any order: each box's detrending removes the level and the
  drift, so only the min(i, j) part survives, and
  E[F^2] = c / s * sum_m |P h_m|^2 over the within-box step functions
  h_m(p) = 1[p >= m], P the residual projection of the box fit.  For
  DFA-1 that sum is (s^2 - 4) / 15.
- DMA(theta): the residual at any index is sum_m w_m z_m over the s - 1
  in-window increments, w_m = 1[past >= m] - (s - m) / s, so
  E[F^2] = c (|w|^2 - (sum w)^2 / n).

Each closed form is checked against a brute-force sum over the boxes or
windows of the exact covariance, the kernels are checked against it
exactly through the trace identity E[y'Qy] = sum over columns b of B of
b'Qb (Cov(y) = B B'), and the ensemble mean of F^2 over seeded
permutations is checked against it within four Monte Carlo standard
errors.
"""

import numpy as np
import pytest

from wfetest.detrend import Estimator, _window_split
from wfetest.shuffletest import replicate_rng


def dfa_null_f2(s: int, order: int, c: float = 1.0) -> float:
    """E[F^2(s)] of DFA(order) as a sum over within-box step functions."""
    t = np.arange(s, dtype=np.float64) - (s - 1) / 2.0
    q, _ = np.linalg.qr(np.vander(t / t[-1], order + 1, increasing=True))
    steps = np.tri(s, dtype=np.float64)  # column m is 1[p >= m]
    resid = steps - q @ (q.T @ steps)
    return c / s * float(np.sum(resid**2))


def dfa1_null_f2(s: int, c: float = 1.0) -> float:
    return c * (s * s - 4) / (15.0 * s)


def dma_null_f2(s: int, theta: float, n: int, c: float = 1.0) -> float:
    past, _ = _window_split(s, theta)
    m = np.arange(1, s)
    w = (past >= m).astype(np.float64) - (s - m) / s
    return c * (float(w @ w) - float(w.sum()) ** 2 / n)


def bridge_cov(n: int, c: float = 1.0) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=np.float64)
    return c * (np.minimum.outer(i, i) - np.outer(i, i) / n)


def dfa_brute_f2(n: int, s: int, order: int) -> float:
    """Average of tr(P Cov_box) over both box covers, from the definition."""
    cov = bridge_cov(n)
    k = n // s
    t = np.arange(s, dtype=np.float64)
    x = np.vander(t, order + 1)
    proj = np.eye(s) - x @ np.linalg.lstsq(x, np.eye(s), rcond=None)[0]
    starts = [i * s for i in range(k)] + [n - k * s + i * s for i in range(k)]
    total = sum(np.trace(proj @ cov[a : a + s, a : a + s]) for a in starts)
    return total / (2 * k * s)


def dma_brute_f2(n: int, s: int, theta: float) -> float:
    """Average over indices of Var(y_i - window mean), from the definition."""
    cov = bridge_cov(n)
    past, future = _window_split(s, theta)
    total = 0.0
    for i in range(past, n - future):
        a = np.zeros(n)
        a[i - past : i + future + 1] -= 1.0 / s
        a[i] += 1.0
        total += a @ cov @ a
    return total / (n - s + 1)


def null_f2(est: Estimator, s: int, n: int, c: float = 1.0) -> float:
    if est.kind == "dma":
        return dma_null_f2(s, est.theta, n, c)
    return dfa_null_f2(s, est.order, c)


ESTIMATORS = [Estimator.dfa(1), Estimator.dfa(2), Estimator.dma(0.0),
              Estimator.dma(0.5), Estimator.dma(1.0)]


class TestClosedForms:
    @pytest.mark.parametrize("s", [3, 4, 5, 10, 17, 50, 333])
    def test_dfa1_step_sum_is_closed_form(self, s):
        assert dfa_null_f2(s, 1) == pytest.approx(dfa1_null_f2(s), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [30, 47])
    def test_dfa_matches_brute_force(self, order, n):
        for s in range(order + 2, n // 2 + 1):
            brute = dfa_brute_f2(n, s, order)
            assert null_f2(Estimator.dfa(order), s, n) == pytest.approx(
                brute, rel=1e-12, abs=1e-14
            ), s

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [30, 47])
    def test_dma_matches_brute_force(self, theta, n):
        for s in range(3, n // 2 + 1):
            brute = dma_brute_f2(n, s, theta)
            assert dma_null_f2(s, theta, n) == pytest.approx(brute, rel=1e-12), s


class TestKernelTrace:
    # Cov(y) = B B' with B = L (I - 11'/n), L the cumsum matrix, so the
    # exact null mean is the sum of the kernel's F^2 over B's columns
    @pytest.mark.parametrize("est", ESTIMATORS, ids=lambda e: e.tag)
    def test_kernel_sum_over_covariance_factor(self, est):
        n = 120
        b = np.cumsum(np.eye(n) - 1.0 / n, axis=0)
        scales = np.array([4, 5, 7, 10, 13, 20, 29, 40, 60])
        f = est.fluctuation_matrix(np.ascontiguousarray(b.T), scales)
        got = np.sum(f**2, axis=0)
        want = [null_f2(est, int(s), n) for s in scales]
        assert np.allclose(got, want, rtol=1e-12, atol=0)


class TestEnsembleMean:
    N = 600
    REPLICATES = 4000
    SCALES = np.array([10, 13, 17, 25, 37, 60])

    @pytest.fixture(scope="class")
    def shuffled(self):
        returns = np.random.default_rng(2015).standard_t(3, self.N)
        rows = np.empty((self.REPLICATES, self.N))
        for i, row in enumerate(rows):
            perm = replicate_rng(327, i).permutation(returns)
            row[:] = np.cumsum(perm - perm.mean())
        v = float(np.mean((returns - returns.mean()) ** 2))
        return rows, v * self.N / (self.N - 1)

    @pytest.mark.parametrize("est", ESTIMATORS, ids=lambda e: e.tag)
    def test_mean_f2_within_four_standard_errors(self, est, shuffled):
        rows, c = shuffled
        f2 = est.fluctuation_matrix(rows, self.SCALES) ** 2
        se = f2.std(axis=0, ddof=1) / np.sqrt(len(f2))
        want = np.array([null_f2(est, int(s), self.N, c) for s in self.SCALES])
        z = (f2.mean(axis=0) - want) / se
        assert np.all(np.abs(z) < 4.0), z
