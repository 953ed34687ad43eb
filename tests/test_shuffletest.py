import json
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from wfetest import shuffletest
from wfetest.cli import main
from wfetest.detrend import Estimator, default_scales
from wfetest.errors import ConfigError, DataError, EstimationError
from wfetest.rolling import WINDOW_CSV_HEADER
from wfetest.scaling import fit_power_law
from wfetest.shuffletest import (
    DEFAULT_SEED,
    SIGNIFICANCE_LEVEL,
    ShuffleTestResult,
    _chunk_size,
    _replicate_rngs,
    _shuffled_slopes,
    efficiency_test,
    replicate_rng,
    shuffle_exponents,
    two_tailed_p,
    worker_map,
)
from wfetest.synth import FgnSpec, generate_fgn
from wfetest.timeseries import ReturnSeries, profile

from conftest import SAMPLE_PRICES, day_range


def make_returns(n=1500, hurst=0.5, seed=11):
    return ReturnSeries(day_range(n), generate_fgn(FgnSpec(n=n, hurst=hurst, seed=seed)))


class TestTwoTailedP:
    def test_hand_count_three_members(self):
        assert two_tailed_p(0.52, np.array([0.45, 0.50, 0.55])) == 2 / 3

    def test_hand_count_five_members(self):
        # mean 0.5; |e - mean| = .1, .05, 0, .05, .1; threshold .02
        ens = np.array([0.40, 0.45, 0.50, 0.55, 0.60])
        assert two_tailed_p(0.52, ens) == 0.8

    def test_far_h_has_zero_p(self):
        assert two_tailed_p(10.0, np.array([0.45, 0.50, 0.55])) == 0.0

    def test_strict_inequality_keeps_ties_out(self):
        # |h - mean| = 0.05 equals two members' deviation: not counted
        assert two_tailed_p(0.55, np.array([0.45, 0.50, 0.55])) == 0.0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(DataError):
            two_tailed_p(0.5, np.array([]))

    def test_p_range(self):
        rng = np.random.default_rng(0)
        ens = rng.normal(0.5, 0.02, size=500)
        for h in (0.3, 0.5, 0.52, 0.7):
            assert 0.0 <= two_tailed_p(h, ens) <= 1.0


class TestShuffle:
    """The permutation replicate i draws: ``replicate_rng(seed, i).permutation``."""

    def test_permutes_multiset_keeps_input(self):
        values = np.arange(20.0)
        values.setflags(write=False)
        s = replicate_rng(3, 0).permutation(values)
        assert sorted(s.tolist()) == list(range(20))
        assert not np.array_equal(s, values)
        assert np.array_equal(values, np.arange(20.0))

    def test_seed_determinism(self):
        values = make_returns(200).values
        draw = replicate_rng(5, 0).permutation(values)
        assert np.array_equal(draw, replicate_rng(5, 0).permutation(values))
        assert not np.array_equal(draw, replicate_rng(6, 0).permutation(values))
        assert not np.array_equal(draw, replicate_rng(5, 1).permutation(values))

    def test_permutations_uniform(self):
        # all 6 orderings of 3 values should appear ~1000 times in 6000
        # replicates of one base seed, as in an ensemble
        values = np.array([0.0, 1.0, 2.0])
        counts = dict.fromkeys(permutations((0.0, 1.0, 2.0)), 0)
        for i in range(6000):
            counts[tuple(replicate_rng(DEFAULT_SEED, i).permutation(values))] += 1
        for perm, count in counts.items():
            assert abs(count / 6000 - 1 / 6) < 0.02, (perm, count)


    @pytest.mark.parametrize("n", [1000, 10001, 20000])
    def test_chunk_rows_are_profiles_of_permutations(self, n):
        values = np.random.default_rng(4).standard_t(3, n) * 0.01
        seen = []

        class Recorder:
            def fluctuation_matrix(self, profiles, scales):
                seen.append(profiles.copy())
                return np.ones((len(profiles), len(scales)))

        indices = range(3, 3 + _chunk_size(n))
        _shuffled_slopes(values, Recorder(), np.array([10, 20]), 8, (2,), indices)
        for row, i in zip(seen[0], indices, strict=True):
            perm = replicate_rng(8, i, (2,)).permutation(values)
            assert np.array_equal(row, profile(perm)), i


class TestReplicateRng:
    def test_same_coordinates_same_stream(self):
        a = replicate_rng(42, 7).standard_normal(4)
        b = replicate_rng(42, 7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_coordinates_distinct_streams(self):
        base = replicate_rng(42, 7).standard_normal(4)
        assert not np.array_equal(base, replicate_rng(42, 8).standard_normal(4))
        assert not np.array_equal(base, replicate_rng(43, 7).standard_normal(4))
        assert not np.array_equal(
            base, replicate_rng(42, 7, prefix=(1,)).standard_normal(4)
        )


class TestChunkGenerators:
    """A chunk's batched seed words give exactly ``replicate_rng``'s streams."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("prefix", [(), (0,), (6400,), (1, 2), (2**33,)])
    def test_same_state_and_shuffle_as_replicate_rng(self, seed, prefix):
        row = np.arange(50.0)
        chunks = [range(300), range(2**32 - 2, 2**32), range(2**32 - 1, 2**32 + 2)]
        for indices in chunks:
            rngs = _replicate_rngs(seed, prefix, indices)
            for i, rng in zip(indices, rngs, strict=True):
                want = replicate_rng(seed, i, prefix)
                assert rng.bit_generator.state == want.bit_generator.state, i
                got = row.copy()
                rng.shuffle(got)
                assert np.array_equal(got, want.permutation(row)), i


class TestShuffleExponents:
    def setup_method(self):
        self.r = make_returns(1200)
        self.grid = default_scales(1200)
        self.range = (int(self.grid[0]), int(self.grid[-1]))

    def test_ensemble_indexed_by_replicate(self):
        ens, redraws = shuffle_exponents(
            self.r.values, Estimator.dfa(), self.grid, self.range,
            40, base_seed=9,
        )
        assert ens.shape == (40,) and redraws == 0
        # replicate i recomputed alone must equal its slot
        for i in (0, 17, 39):
            alone = _shuffled_slopes(
                self.r.values, Estimator.dfa(), self.grid, 9, (), range(i, i + 1)
            )[0]
            assert ens[i] == alone

    def test_worker_count_is_invisible(self):
        args = (self.r.values, Estimator.dfa(), self.grid, self.range, 70, 4)
        e1, _ = shuffle_exponents(*args)
        with worker_map(2, 2) as pmap:
            e2, _ = shuffle_exponents(*args, pmap=pmap)
        with worker_map(3, 3) as pmap:
            e3, _ = shuffle_exponents(*args, pmap=pmap)
        assert np.array_equal(e1, e2) and np.array_equal(e1, e3)

    def test_count_not_divisible_by_chunk(self):
        chunk = _chunk_size(1200)
        n = chunk + 3
        ens, _ = shuffle_exponents(
            self.r.values, Estimator.dfa(), self.grid, self.range,
            n, base_seed=2,
        )
        assert ens.shape == (n,) and np.all(np.isfinite(ens))

    def test_degenerate_series_exhausts_redraw_cap(self):
        # constant returns shuffle to constant: F = 0 on every replicate
        values = np.zeros(1200)
        message = r"^1 replicate redraws exhausted the cap \(1\); series is degenerate for DFA$"
        with pytest.raises(EstimationError, match=message):
            shuffle_exponents(
                values, Estimator.dfa(), self.grid, self.range,
                50, base_seed=1,
            )

    class ZeroAtOneScale:
        """F = s^(0.5 + row[1] / 1000), but 0 at the second scale for the
        rows that start with 198 or 199 (1% of the shuffles of 0..199)."""

        tag = "stub"

        def fluctuation_matrix(self, profiles, scales):
            f = scales ** (0.5 + 1e-3 * profiles[:, 1:2])
            f[profiles[:, 0] > 98.0, 1] = 0.0
            return f

    # (seed, degenerate replicates, redraws): seed 5 and 35 redraw a
    # degenerate replicate once, and seed 34 does so on the last redraw
    # the cap allows
    @pytest.mark.parametrize(
        "seed, n_bad, n_redraws", [(31, 4, 4), (5, 6, 7), (13, 10, 10), (34, 9, 10), (35, 9, 10)]
    )
    def test_redraws_fill_bad_slots_in_order(self, seed, n_bad, n_redraws):
        values, scales, est = np.arange(200.0), np.array([10, 20, 40, 80]), self.ZeroAtOneScale()
        ens, redraws = shuffle_exponents(values, est, scales, (10, 80), 1000, base_seed=seed)
        first = _shuffled_slopes(values, est, scales, seed, (), range(1000))
        bad = np.flatnonzero(~np.isfinite(first))
        assert len(bad) == n_bad and redraws == n_redraws
        assert np.array_equal(np.delete(ens, bad), np.delete(first, bad))
        # each bad slot, in order, takes the next finite replicate past the ensemble
        drawn = [_shuffled_slopes(values, est, scales, seed, (), range(i, i + 1))[0]
                 for i in range(1000, 1000 + n_redraws)]
        assert np.array_equal(ens[bad], [h for h in drawn if np.isfinite(h)])
        assert np.all(np.isfinite(ens))

    @pytest.mark.parametrize("seed", [11, 38])
    def test_redraw_cap_hit_by_degenerate_redraws(self, seed):
        # 10 and 11 degenerate replicates, and the first redraw is degenerate too
        message = r"^10 replicate redraws exhausted the cap \(10\); series is degenerate for stub$"
        with pytest.raises(EstimationError, match=message):
            shuffle_exponents(
                np.arange(200.0), self.ZeroAtOneScale(), np.array([10, 20, 40, 80]),
                (10, 80), 1000, base_seed=seed,
            )

    @pytest.mark.parametrize(
        "scales, message",
        [([60, 10], "^scales must be a nonempty, strictly increasing 1-d array$"),
         ([[10, 20]], "^scales must be a nonempty, strictly increasing 1-d array$"),
         ([], "^scales must be a nonempty, strictly increasing 1-d array$"),
         ([10.5, 20.0], "^scales must be whole numbers$"),
         ([np.nan, 20.0], "^scales must be whole numbers$"),
         ([10.0, np.inf], "^scales must be whole numbers$")],
        ids=["decreasing", "2-d", "empty", "fraction", "nan", "inf"],
    )
    def test_malformed_grid_fails_before_any_draw(self, monkeypatch, scales, message):
        # on 50 returns, [60, 10] once gave all-NaN slopes and a redraw-cap error
        drawn = []
        monkeypatch.setattr(shuffletest, "_replicate_rngs", lambda *a: drawn.append(a))
        with pytest.raises(DataError, match=message):
            shuffle_exponents(
                self.r.values[:50], Estimator.dfa(), scales, (10, 60), 100, base_seed=1
            )
        assert drawn == []

    def test_range_snaps_to_grid(self, monkeypatch):
        # only the grid scales inside s_range are computed and fitted
        scales = np.arange(10, 101, 10)
        seen = []
        kernel = Estimator.fluctuation_matrix

        def spy(est, profiles, grid_scales):
            seen.append(np.array(grid_scales))
            return kernel(est, profiles, grid_scales)

        monkeypatch.setattr(Estimator, "fluctuation_matrix", spy)
        args = (self.r.values, Estimator.dfa(), scales)
        snapped, _ = shuffle_exponents(*args, (12, 47), 20, base_seed=3)
        assert seen and all(s.tolist() == [20, 30, 40] for s in seen)
        assert np.array_equal(snapped, shuffle_exponents(*args, (20, 40), 20, base_seed=3)[0])

    def test_integral_float_grid_is_the_int_grid(self):
        ensembles = [
            shuffle_exponents(self.r.values, Estimator.dfa(), grid, self.range, 20, base_seed=3)[0]
            for grid in (self.grid, self.grid.astype(np.float64))
        ]
        assert np.array_equal(*ensembles)

    @pytest.mark.parametrize(
        "values, message",
        [(np.r_[np.zeros(499), np.nan], "^series values must be finite$"),
         (np.r_[np.inf, np.zeros(499)], "^series values must be finite$"),
         (np.zeros((2, 500)), "^series must be a nonempty 1-d array$"),
         (np.zeros(0), "^series must be a nonempty 1-d array$"),
         (["a"] * 500, "^series values must be integers or floats$"),
         ([None] * 500, "^series values must be integers or floats$"),
         ([True] * 500, "^series values must be integers or floats$")],
        ids=["nan", "inf", "2-d", "empty", "strings", "none", "booleans"],
    )
    def test_bad_values_fail_before_any_draw(self, monkeypatch, values, message):
        # unchecked, NaN returns end in a redraw-cap EstimationError and a
        # 2-d array in a ScaleRangeError against its row count
        drawn = []
        monkeypatch.setattr(shuffletest, "_replicate_rngs", lambda *a: drawn.append(a))
        grid = default_scales(500)
        with pytest.raises(DataError, match=message):
            shuffle_exponents(
                values, Estimator.dfa(), grid, (int(grid[0]), int(grid[-1])), 50, base_seed=1
            )
        assert drawn == []

    def test_replicate_count_validated(self):
        with pytest.raises(ConfigError, match=r"^n_shuffles must be >= 1, got 0$"):
            shuffle_exponents(
                self.r.values, Estimator.dfa(), self.grid,
                self.range, 0, base_seed=1,
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            shuffle_exponents(
                self.r.values, Estimator.dfa(), self.grid,
                self.range, 10, base_seed=-1,
            )
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            efficiency_test(self.r, Estimator.dfa(), n_replicates=10, seed=-5)

    @pytest.mark.parametrize(
        "n_replicates, seed, message",
        [(0, 1, "n_shuffles must be >= 1, got 0"), (10, -1, "seed must be >= 0, got -1")],
    )
    def test_efficiency_test_checks_arguments_before_estimating(
        self, monkeypatch, n_replicates, seed, message
    ):
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix", lambda *a: computed.append(a))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            efficiency_test(self.r, Estimator.dfa(), n_replicates=n_replicates, seed=seed)
        assert computed == []

    def test_only_fitted_scales_computed(self, monkeypatch):
        scales = self.grid
        s_range = (int(scales[3]), int(scales[17]))
        in_range = (scales >= s_range[0]) & (scales <= s_range[1])
        fitted = scales[in_range]
        seen = []
        kernel = Estimator.fluctuation_matrix

        def spy(est, profiles, grid_scales):
            seen.append(np.array(grid_scales))
            return kernel(est, profiles, grid_scales)

        monkeypatch.setattr(Estimator, "fluctuation_matrix", spy)
        ens, _ = shuffle_exponents(
            self.r.values, Estimator.dfa(), scales, s_range, 20, base_seed=3
        )
        assert seen and all(np.array_equal(s, fitted) for s in seen)
        # the original H and each H_s are the same fit over the same range
        perm = replicate_rng(3, 7).permutation(self.r.values)
        f = Estimator.dfa().fluctuation_matrix(profile(perm), scales)[0]
        assert ens[7] == fit_power_law(f[in_range], fitted, len(fitted)).h

    def test_zero_outside_range_harmless(self):
        # F = 0 below the range would make a whole-grid fit degenerate
        class ZeroBelow20:
            tag = "stub"

            def fluctuation_matrix(self, profiles, scales):
                f = np.where(scales < 20, 0.0, scales.astype(float))
                return np.tile(f, (len(profiles), 1))

        scales = np.array([10, 20, 40, 80])
        ens, redraws = shuffle_exponents(
            np.arange(400.0), ZeroBelow20(), scales, (20, 80), 5, base_seed=1
        )
        assert redraws == 0
        assert ens == pytest.approx(np.ones(5), abs=1e-12)


class TestEfficiencyTest:
    def test_full_range_policy_uses_grid_ends(self):
        r = make_returns(1500)
        res = efficiency_test(r, Estimator.dfa(), n_replicates=60, seed=3)
        grid = default_scales(1500)
        assert res.s_lo == int(grid[0])
        assert res.s_hi == int(grid[-1])
        assert res.method == "DFA"
        assert res.n_replicates == 60

    def test_auto_range_policy_selects_window(self):
        r = make_returns(1500)
        res = efficiency_test(
            r, Estimator.dfa(), range_policy="auto", n_replicates=30, seed=3
        )
        grid = default_scales(1500)
        count = int(np.sum((grid >= res.s_lo) & (grid <= res.s_hi)))
        assert count == 15

    def test_unknown_policy_rejected(self, monkeypatch):
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix",
                            lambda *a: computed.append(a))
        with pytest.raises(DataError, match=r"^range_policy must be one of \('full', 'auto'\)$"):
            efficiency_test(make_returns(800), Estimator.dfa(), range_policy="best")
        assert computed == []

    def test_single_replicate_p_is_zero_or_one(self):
        r = make_returns(900)
        res = efficiency_test(r, Estimator.dfa(), n_replicates=1, seed=4)
        assert res.p in (0.0, 1.0)
        assert res.q025 == res.q975 == res.mean_hs

    def test_determinism_and_seed_sensitivity(self):
        r = make_returns(1000)
        a = efficiency_test(r, Estimator.dma(0.0), n_replicates=50, seed=5)
        b = efficiency_test(r, Estimator.dma(0.0), n_replicates=50, seed=5)
        c = efficiency_test(r, Estimator.dma(0.0), n_replicates=50, seed=6)
        assert a.to_json_dict(include_ensemble=True) == b.to_json_dict(
            include_ensemble=True
        )
        assert not np.array_equal(a.ensemble, c.ensemble)

    def test_null_data_not_rejected(self):
        res = efficiency_test(
            make_returns(2048, seed=14), Estimator.dfa(),
            n_replicates=300, seed=7,
        )
        assert res.p >= SIGNIFICANCE_LEVEL
        assert not res.rejected
        assert res.verdict == "not rejected"

    def test_strong_memory_rejected(self):
        res = efficiency_test(
            make_returns(4096, hurst=0.85, seed=14), Estimator.dfa(),
            n_replicates=400, seed=7,
        )
        assert res.p < SIGNIFICANCE_LEVEL
        assert res.rejected

    def test_summary_line(self):
        res = efficiency_test(make_returns(900), Estimator.dma(0.5),
                              n_replicates=25, seed=2)
        line = res.summary()
        assert line.startswith("CDMA: H=")
        assert "p=" in line and "0.01" in line


# Returns times a positive factor, or plus a constant, have the same
# profile up to rounding, and a shuffle permutes the same positions, so
# the whole test moves by rounding only.  The largest deviation of H or
# an H_s measured on these inputs is 6.7e-16; the gate is
METAMORPHIC_H_BOUND = 1e-13
RETURN_TRANSFORMS = {
    "x2": lambda v: v * 2.0,
    "x0.37": lambda v: v * 0.37,
    "+0.003": lambda v: v + 0.003,
}


@lru_cache(maxsize=None)
def metamorphic_test(est, range_policy, transform=None):
    values = generate_fgn(FgnSpec(n=1500, hurst=0.5, sigma=0.02, seed=3))
    if transform is not None:
        values = RETURN_TRANSFORMS[transform](values)
    return efficiency_test(
        ReturnSeries(day_range(1500), values), est, range_policy, n_replicates=300
    )


class TestPipelineMetamorphic:
    @pytest.mark.parametrize("transform", sorted(RETURN_TRANSFORMS))
    @pytest.mark.parametrize("range_policy", ["full", "auto"])
    @pytest.mark.parametrize("est", [Estimator.dfa(1), Estimator.dma(0.5)], ids=lambda e: e.tag)
    def test_scaled_or_shifted_returns_keep_the_test(self, est, range_policy, transform):
        base = metamorphic_test(est, range_policy)
        moved = metamorphic_test(est, range_policy, transform)
        assert abs(moved.h - base.h) <= METAMORPHIC_H_BOUND
        assert np.max(np.abs(moved.ensemble - base.ensemble)) <= METAMORPHIC_H_BOUND
        assert moved.p == base.p
        assert (moved.s_lo, moved.s_hi, moved.n_redraws) == (base.s_lo, base.s_hi, base.n_redraws)


class TestShuffleTestResult:
    def valid_kwargs(self):
        return dict(
            method="DFA", h=0.5, ensemble=np.array([0.48, 0.5, 0.52, 0.49, 0.51]),
            seed=1, s_lo=10, s_hi=100,
        )

    def test_valid_construction(self):
        res = ShuffleTestResult(**self.valid_kwargs())
        assert res.n_redraws == 0

    def test_statistics_derive_from_ensemble(self):
        res = ShuffleTestResult(**self.valid_kwargs())
        assert res.n_replicates == 5
        assert res.mean_hs == float(res.ensemble.mean())
        assert res.p == two_tailed_p(0.5, res.ensemble)

    def test_quantiles_must_be_ordered(self):
        res = ShuffleTestResult(**self.valid_kwargs())
        q = np.quantile(res.ensemble, [0.025, 0.975], method="linear")
        assert (res.q025, res.q975) == (q[0], q[1])
        assert res.q025 <= res.mean_hs <= res.q975

    def test_empty_ensemble_rejected(self):
        kwargs = self.valid_kwargs()
        kwargs["ensemble"] = np.array([])
        with pytest.raises(DataError):
            ShuffleTestResult(**kwargs)

    def test_mean_outside_band_rejected(self):
        # one huge outlier among 100 drags the mean above the 97.5% quantile
        kwargs = self.valid_kwargs()
        kwargs["ensemble"] = np.r_[np.full(99, 0.5), 1e6]
        with pytest.raises(DataError, match="outside"):
            ShuffleTestResult(**kwargs)

    def test_json_dict_round_trips(self):
        res = ShuffleTestResult(**self.valid_kwargs())
        d = res.to_json_dict()
        assert d["H"] == 0.5 and d["n_replicates"] == 5
        assert "ensemble" not in d
        assert d["rejected_at_1pct"] is False
        d = res.to_json_dict(include_ensemble=True)
        assert d["ensemble"] == res.ensemble.tolist()

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 42
        assert SIGNIFICANCE_LEVEL == 0.01


class TestWorkerMap:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Pool sizes requested; the stand-in pool runs jobs in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(shuffletest, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_capped_at_job_bound(self, pool_sizes):
        with worker_map(5000, 3) as pmap:
            assert list(pmap(abs, [-1, -2, -3])) == [1, 2, 3]
        with worker_map(2, 9):
            pass
        assert pool_sizes == [3, 2]

    @pytest.mark.parametrize("workers, jobs", [(1, 5000), (5000, 1)])
    def test_one_worker_or_job_is_builtin_map(self, pool_sizes, workers, jobs):
        with worker_map(workers, jobs) as pmap:
            assert pmap is map
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, pool_sizes, workers):
        with pytest.raises(ConfigError, match="worker count must be >= 1"):
            with worker_map(workers, 2):
                pass
        assert pool_sizes == []

    def test_one_pool_serves_every_map_of_a_block(self, monkeypatch):
        pools = []

        class RecordingPool(shuffletest.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(self)

        monkeypatch.setattr(shuffletest, "ProcessPoolExecutor", RecordingPool)
        with worker_map(2, 9) as pmap:
            assert list(pmap(abs, [-1, -2, -3])) == [1, 2, 3]
            assert list(pmap(pow, range(9), [2] * 9)) == [k * k for k in range(9)]
            assert pmap == pools[0].map
        assert len(pools) == 1

    def test_test_command_starts_one_pool(self, pool_sizes, tmp_path):
        # three segments of about 500 returns, two chunks of replicates each
        out = tmp_path / "t.json"
        assert main(["test", "-i", str(SAMPLE_PRICES), "--cuts", "2002-01-02,2004-01-02",
                     "--n-shuffles", "300", "--threads", "2", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["segments"]) == 3
        assert pool_sizes == [2]

    def test_test_command_pool_sized_for_longest_job_list(self, pool_sizes, tmp_path):
        # 256 replicates are one job of 256 for the first segment's 514
        # returns and two of up to 253 for the second's 8,285
        prices, out = tmp_path / "p.csv", tmp_path / "t.json"
        assert main(["synth", "--hurst", "0.5", "--n", "8800", "--sigma", "0.02",
                     "--prices", "-o", str(prices)]) == 0
        assert main(["test", "-i", str(prices), "--cuts", "2001-06-01",
                     "--n-shuffles", "256", "--threads", "8", "-o", str(out)]) == 0
        segments = json.loads(out.read_text())["segments"]
        assert [seg["n_returns"] for seg in segments] == [514, 8285]
        assert pool_sizes == [2]

    def test_rolling_command_starts_one_pool_capped_at_windows(self, pool_sizes, tmp_path):
        # the sample's 2,500 returns hold four windows of 500 at step 600
        out = tmp_path / "r.csv"
        assert main(["rolling", "-i", str(SAMPLE_PRICES), "--window", "500", "--step", "600",
                     "--n-shuffles", "20", "--threads", "8", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[3] == WINDOW_CSV_HEADER
        assert len(out.read_text().splitlines()[4:]) == 4
        assert pool_sizes == [4]
