"""End-to-end acceptance gate.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them on success). The two real-data criteria need the WTI daily
futures file described in data/README.md and skip when it is absent.
"""

import numpy as np
import pytest

from conftest import WTI_SKIP_REASON, day_range, wti_csv_path
from wfetest.cli import main
from wfetest.detrend import Estimator, default_scales, fluctuation
from wfetest.rolling import WindowResult, rolling_analysis
from wfetest.scaling import fit_power_law
from wfetest.shuffletest import (
    efficiency_test,
    shuffle_exponents,
    two_tailed_p,
    worker_map,
)
from wfetest.synth import FgnSpec, generate_fgn
from wfetest.timeseries import (
    GULF_WAR,
    IRAQ_WAR,
    NAFTA,
    PriceSeries,
    ReturnSeries,
    load_prices,
    log_returns,
    profile,
    split_by_dates,
)

DFA = Estimator.dfa()
BDMA = Estimator.dma(0.0)
CDMA = Estimator.dma(0.5)
FDMA = Estimator.dma(1.0)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def full_range_h(values: np.ndarray, est: Estimator) -> float:
    grid = default_scales(len(values))
    f = fluctuation(profile(values), grid, est)
    return fit_power_law(f, grid, len(grid)).h


def test_criterion_1_estimators_recover_known_exponents():
    n = 2**14
    worst = 0.0
    for target in (0.3, 0.5, 0.7):
        series = [
            generate_fgn(FgnSpec(n=n, hurst=target, seed=seed))
            for seed in range(10)
        ]
        for est in (DFA, CDMA):
            mean_h = np.mean([full_range_h(v, est) for v in series])
            worst = max(worst, abs(mean_h - target))
    report(1, worst <= 0.03, f"max |mean H - target| = {worst:.4f} (tol 0.03)")


def test_criterion_2_shuffling_destroys_memory():
    values = generate_fgn(FgnSpec(n=2**14, hurst=0.8, seed=0))
    grid = default_scales(len(values))
    ensemble, _ = shuffle_exponents(
        values, DFA, grid, (grid[0], grid[-1]),
        n_replicates=100, base_seed=42,
    )
    inside = int(np.count_nonzero((ensemble >= 0.47) & (ensemble <= 0.53)))
    report(2, inside >= 95, f"{inside}/100 shuffled exponents in [0.47, 0.53]")


def test_criterion_3_linear_profile_closed_forms():
    prof = np.arange(1000, dtype=np.float64)
    grid = default_scales(1000)
    f_b = fluctuation(prof, grid, BDMA)
    expected = (grid - 1) / 2.0
    rel = np.max(np.abs(f_b - expected) / expected)
    f_c = fluctuation(prof, grid, CDMA)
    odd = grid % 2 == 1
    centered = np.max(f_c[odd])
    ok = rel <= 1e-10 and centered <= 1e-10
    report(3, ok, f"BDMA rel err {rel:.2e}, CDMA odd-s max F {centered:.2e}")


def test_criterion_4_tail_probability_hand_count():
    p = two_tailed_p(0.52, np.array([0.45, 0.50, 0.55]))
    report(4, p == 2.0 / 3.0, f"p = {p!r}, expected {2.0 / 3.0!r}")


def _wti_prices() -> PriceSeries:
    path = wti_csv_path()
    if path is None:
        pytest.skip(WTI_SKIP_REASON)
    return load_prices(path).series


def subseries_segments(prices: PriceSeries) -> list[ReturnSeries]:
    """Whole series, then sub-series 1..3 (Gulf/Iraq) and 4..5 (NAFTA).

    As in ``wfetest test``, the prices are split and each segment takes
    its own returns, so the return spanning a cut belongs to no segment.
    """
    segments = [log_returns(prices)]
    for cuts in ((GULF_WAR, IRAQ_WAR), (NAFTA,)):
        segments += [log_returns(seg) for seg in split_by_dates(prices, cuts)]
    return segments


def rolling_windows(
    prices: PriceSeries, step: int, n_shuffles: int
) -> tuple[list[WindowResult], np.ndarray]:
    """1000-return DFA windows as ``wfetest rolling`` makes them, and the
    date of each window's first return."""
    r = log_returns(prices)
    rows = rolling_analysis(r, window_size=1000, step=step, est=DFA,
                            n_shuffles=n_shuffles, seed=42)
    starts = r.dates[::step][: len(rows)]
    return rows, starts


def test_criterion_5_reference_exponents_and_verdicts():
    path = wti_csv_path()
    if path is None:
        print(f"criterion 5: SKIP - {WTI_SKIP_REASON}")
        pytest.skip(WTI_SKIP_REASON)
    methods = {"BDMA": BDMA, "CDMA": CDMA, "FDMA": FDMA, "DFA": DFA}
    expected_whole = {"BDMA": 0.527, "CDMA": 0.503, "FDMA": 0.528, "DFA": 0.501}
    segments = subseries_segments(_wti_prices())
    rejected_by = {2: {"CDMA", "DFA"}, 4: {"CDMA", "DFA"}}
    problems = []
    for idx, seg in enumerate(segments):  # 0 = whole series
        for name, est in methods.items():
            res = efficiency_test(seg, est, n_replicates=10_000, seed=42)
            if idx == 0 and abs(res.h - expected_whole[name]) > 0.02:
                problems.append(
                    f"whole {name} H={res.h:.3f} vs {expected_whole[name]}"
                )
            want_reject = name in rejected_by.get(idx, set())
            if res.rejected != want_reject:
                problems.append(
                    f"segment {idx} {name} p={res.p:.4f} "
                    f"rejected={res.rejected} want={want_reject}"
                )
    report(5, not problems, "; ".join(problems) or
           "whole-series exponents within 0.02 and all verdict patterns match")


def test_criterion_6_rolling_excursions_and_majority_inside():
    path = wti_csv_path()
    if path is None:
        print(f"criterion 6: SKIP - {WTI_SKIP_REASON}")
        pytest.skip(WTI_SKIP_REASON)
    rows, starts = rolling_windows(_wti_prices(), step=5, n_shuffles=1000)
    periods = {
        "1985-86": (np.datetime64("1985-01-01"), np.datetime64("1986-12-31")),
        "1990-91": (np.datetime64("1990-01-01"), np.datetime64("1991-12-31")),
        "2008": (np.datetime64("2008-01-01"), np.datetime64("2008-12-31")),
    }
    missing = []
    for label, (lo, hi) in periods.items():
        hit = any(
            row.flag == "above"
            and start <= hi
            and row.end_date >= lo
            for start, row in zip(starts, rows)
        )
        if not hit:
            missing.append(label)
    outside = sum(row.outside for row in rows) / len(rows)
    ok = not missing and outside < 0.5
    detail = f"outside fraction {outside:.3f}"
    if missing:
        detail += f"; no above-band window overlapping {', '.join(missing)}"
    report(6, ok, detail)


def test_real_data_call_sequence_on_synthetic_stand_in():
    """Criteria 5 and 6's calls on a WTI-shaped fGn series (no WTI numbers)."""
    values = generate_fgn(FgnSpec(n=7400, hurst=0.5, sigma=0.02, seed=3))
    prices = PriceSeries(
        np.busday_offset("1985-01-02", np.arange(7401), roll="forward"),
        100.0 * np.exp(np.concatenate(([0.0], np.cumsum(values)))),
    )
    r = log_returns(prices)

    segments = subseries_segments(prices)
    assert len(segments) == 1 + 3 + 2
    assert len(segments[0]) == len(r)
    # each split drops the one return that spans each of its cuts
    assert sum(map(len, segments[1:4])) == len(r) - 2
    assert sum(map(len, segments[4:6])) == len(r) - 1
    for parts, cuts in ((segments[1:4], (GULF_WAR, IRAQ_WAR)),
                        (segments[4:6], (NAFTA,))):
        for before, cut, after in zip(parts, cuts, parts[1:]):
            assert before.dates[-1] < cut <= after.dates[0]
    for seg in segments:
        res = efficiency_test(seg, DFA, n_replicates=20, seed=42)
        assert np.isfinite(res.h) and 0.0 <= res.p <= 1.0

    step = 2000
    rows, starts = rolling_windows(prices, step=step, n_shuffles=20)
    assert len(rows) == (len(r) - 1000) // step + 1
    assert len(starts) == len(rows)
    assert np.all(starts[1:] > starts[:-1])
    for k, (start, row) in enumerate(zip(starts, rows)):
        assert start == r.dates[k * step]
        assert row.end_date == r.dates[k * step + 999]


@pytest.mark.slow
def test_criterion_7_size_calibration_on_iid_noise():
    # results do not depend on the worker count: 50 series on one pool of
    # two; 1000 replicates of 4096 returns are four jobs of 256
    rejections = 0
    with worker_map(2, 4) as pmap:
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            r = ReturnSeries(day_range(4096), rng.standard_normal(4096))
            res = efficiency_test(r, DFA, n_replicates=1000, seed=42, pmap=pmap)
            rejections += res.rejected
    report(7, rejections <= 3, f"{rejections}/50 null rejections at 0.01")


def test_criterion_8_artifacts_identical_across_thread_counts(tmp_path):
    prices = tmp_path / "prices.csv"
    assert main(["synth", "--hurst", "0.5", "--n", "800", "--sigma", "0.02",
                 "--seed", "7", "--prices", "-o", str(prices)]) == 0

    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"test-{threads}.json"
        assert main(["test", "-i", str(prices), "--n-shuffles", "300",
                     "--seed", "42", "--threads", threads,
                     "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    test_ok = outputs[0] == outputs[1] == outputs[2]

    rolls = []
    for threads in ("1", "3"):
        out = tmp_path / f"roll-{threads}.csv"
        assert main(["rolling", "-i", str(prices), "--window", "300",
                     "--step", "100", "--n-shuffles", "100", "--seed", "42",
                     "--threads", threads, "-o", str(out)]) == 0
        rolls.append(out.read_bytes())
    roll_ok = rolls[0] == rolls[1]

    report(8, test_ok and roll_ok,
           "test and rolling artifacts byte-identical for threads 1/2/4 and 1/3")
