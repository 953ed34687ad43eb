import numpy as np
import pytest

from wfetest.detrend import Estimator, default_scales
from wfetest.errors import DataError
from wfetest.scaling import fit_power_law
from wfetest.synth import (
    FgnSpec,
    _embedding_eigenvalues,
    _fgn_from_draws,
    fgn_autocovariance,
    generate_fgn,
    synthetic_prices,
)
from wfetest.timeseries import log_returns, profile


def fitted_h(values, est=Estimator.dfa()):
    grid = default_scales(len(values))
    f = est.fluctuation_matrix(profile(values), grid)[0]
    return fit_power_law(f, grid, len(grid)).h


class TestAutocovariance:
    def test_white_noise_case(self):
        gamma = fgn_autocovariance(np.arange(5), hurst=0.5, sigma=1.0)
        assert gamma[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(gamma[1:], 0.0, atol=1e-15)

    def test_lag_one_closed_form(self):
        for h in (0.3, 0.7, 0.9):
            gamma = fgn_autocovariance(np.arange(2), hurst=h, sigma=1.0)
            assert gamma[1] == pytest.approx(2 ** (2 * h - 1) - 1, abs=1e-12)

    def test_sigma_scales_quadratically(self):
        g1 = fgn_autocovariance(np.arange(4), hurst=0.7, sigma=1.0)
        g3 = fgn_autocovariance(np.arange(4), hurst=0.7, sigma=3.0)
        assert np.allclose(g3, 9.0 * g1, rtol=1e-14)

    def test_positive_memory_positive_covariance(self):
        gamma = fgn_autocovariance(np.arange(10), hurst=0.8, sigma=1.0)
        assert np.all(gamma > 0)

    def test_negative_memory_negative_lag_one(self):
        gamma = fgn_autocovariance(np.arange(2), hurst=0.3, sigma=1.0)
        assert gamma[1] < 0


class TestEmbedding:
    @pytest.mark.parametrize("h", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_eigenvalues_nonnegative_across_h(self, h):
        lam = _embedding_eigenvalues(n=512, hurst=h, sigma=1.0)
        assert len(lam) == 2 * (512 - 1)
        assert np.all(lam >= 0)


class TestGenerateFgn:
    def test_deterministic_given_seed(self):
        spec = FgnSpec(n=256, hurst=0.7, seed=5)
        a = generate_fgn(spec)
        b = generate_fgn(spec)
        assert np.array_equal(a, b)
        c = generate_fgn(FgnSpec(n=256, hurst=0.7, seed=6))
        assert not np.array_equal(a, c)

    def test_length_and_dtype(self):
        values = generate_fgn(FgnSpec(n=1000, hurst=0.4, seed=0))
        assert values.shape == (1000,) and values.dtype == np.float64

    def test_minimum_length(self):
        values = generate_fgn(FgnSpec(n=2, hurst=0.6, seed=1))
        assert values.shape == (2,)

    def test_sign_symmetry_is_bitwise(self):
        lam = _embedding_eigenvalues(n=300, hurst=0.65, sigma=1.0)
        draws = np.random.default_rng(11).standard_normal((300, 2))
        a = _fgn_from_draws(lam, draws)
        b = _fgn_from_draws(lam, -draws)
        assert np.array_equal(a, -b)

    def test_white_noise_statistics(self):
        values = generate_fgn(FgnSpec(n=2**14, hurst=0.5, seed=3))
        assert values.mean() == pytest.approx(0.0, abs=4 / np.sqrt(2**14))
        assert values.var() == pytest.approx(1.0, abs=0.05)
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert lag1 == pytest.approx(0.0, abs=0.02)

    @pytest.mark.parametrize(
        "h,target", [(0.7, 2**0.4 - 1), (0.3, 2**-0.4 - 1)]
    )
    def test_lag_one_autocorrelation(self, h, target):
        values = generate_fgn(FgnSpec(n=2**14, hurst=h, seed=2))
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert lag1 == pytest.approx(target, abs=0.02)

    def test_mean_concentrates_over_seeds(self):
        # sd of the sample mean is sigma * n^(H-1); for H <= 0.5 that is
        # within the sigma/sqrt(n) envelope, above it the long memory
        # widens the envelope and the bound must follow
        n = 2**14
        for h, bound in ((0.4, 4 / np.sqrt(n)), (0.7, 4 * n ** (0.7 - 1.0))):
            means = [
                generate_fgn(FgnSpec(n=n, hurst=h, seed=s)).mean()
                for s in range(40)
            ]
            inside = np.count_nonzero(np.abs(means) <= bound)
            assert inside >= 38, (h, inside)

    def test_variance_concentrates(self):
        for h in (0.3, 0.5, 0.7):
            v = [
                generate_fgn(FgnSpec(n=2**13, hurst=h, seed=s)).var()
                for s in range(10)
            ]
            assert np.mean(v) == pytest.approx(1.0, abs=0.05)

    def test_sigma_rescales_output(self):
        a = generate_fgn(FgnSpec(n=512, hurst=0.6, seed=9, sigma=1.0))
        b = generate_fgn(FgnSpec(n=512, hurst=0.6, seed=9, sigma=2.5))
        assert np.allclose(b, 2.5 * a, rtol=1e-12)

    def test_monotone_recovery(self):
        mean_h = []
        for h in (0.3, 0.5, 0.7):
            fits = [
                fitted_h(generate_fgn(FgnSpec(n=2**13, hurst=h, seed=s)))
                for s in range(20)
            ]
            mean_h.append(np.mean(fits))
        assert mean_h[0] < mean_h[1] < mean_h[2]

    def test_dfa_recovers_low_h(self):
        fits = [
            fitted_h(generate_fgn(FgnSpec(n=2**14, hurst=0.3, seed=s)))
            for s in range(10)
        ]
        assert np.mean(fits) == pytest.approx(0.3, abs=0.03)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            FgnSpec(n=1, hurst=0.5, seed=0)
        with pytest.raises(DataError):
            FgnSpec(n=100, hurst=0.0, seed=0)
        with pytest.raises(DataError):
            FgnSpec(n=100, hurst=1.0, seed=0)
        with pytest.raises(DataError):
            FgnSpec(n=100, hurst=0.5, seed=0, sigma=0.0)
        for sigma in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DataError, match="sigma"):
                FgnSpec(n=100, hurst=0.5, seed=0, sigma=sigma)
        with pytest.raises(DataError, match="seed"):
            FgnSpec(n=100, hurst=0.5, seed=-1)


class TestSyntheticPrices:
    def test_structure(self):
        values = generate_fgn(FgnSpec(n=50, hurst=0.5, seed=7, sigma=0.02))
        series = synthetic_prices(values)
        assert len(series) == 51
        assert series.prices[0] == 100.0
        assert series.dates[0] == np.datetime64("2000-01-03")
        assert np.all(np.diff(series.dates).astype(int) == 1)

    def test_log_returns_recover_values(self):
        values = generate_fgn(FgnSpec(n=200, hurst=0.6, seed=8, sigma=0.02))
        series = synthetic_prices(values)
        recovered = log_returns(series).values
        assert np.allclose(recovered, values, atol=1e-12)

    def test_prices_positive(self):
        values = generate_fgn(FgnSpec(n=500, hurst=0.8, seed=3, sigma=0.05))
        series = synthetic_prices(values)
        assert np.all(series.prices > 0)
