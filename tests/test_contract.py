"""The typed-error contract of the public API.

Each row of PARAMETERS is one numeric, string-choice or array parameter
of a public function or constructor of ``detrend``, ``scaling``,
``shuffletest``, ``rolling``, ``timeseries`` or ``synth``: a call that
puts a value there with valid arguments everywhere else, and one valid
value.  Every value of POOL must either succeed or raise a WfeError.  A
whole-number, string-choice or dates parameter rejects every value of
POOL, and a real one rejects True.  A dates parameter also rejects each
value of NOT_DAYS, dates of the right length that are not calendar
days.  A function that fits or draws replicates makes no kernel call for
an argument it rejects.
"""

import numpy as np
import pytest

from wfetest.detrend import (
    Estimator,
    default_scales,
    dfa_fluctuation_matrix,
    dma_fluctuation_matrix,
    fluctuation,
)
from wfetest.errors import DataError, WfeError
from wfetest.rolling import rolling_analysis, window_result
from wfetest.scaling import detect_scaling_range, estimate, fit_power_law
from wfetest.shuffletest import (
    efficiency_test,
    replicate_rng,
    shuffle_exponents,
    two_tailed_p,
    worker_map,
)
from wfetest.synth import FgnSpec, fgn_autocovariance, generate_fgn, synthetic_prices
from wfetest.timeseries import PriceSeries, ReturnSeries, log_returns, profile, split_by_dates

POOL = [
    ("fraction", 2.5),
    ("nan", float("nan")),
    ("inf", float("inf")),
    ("negative", -3),
    ("bool", True),
    ("str", "ab"),
    ("none", None),
    ("numpy-float", np.float64(1.5)),
    ("0-d", np.array(7.0)),
    ("2-d", np.ones((3, 4))),
    ("empty", np.array([])),
    ("object", np.array([1, "a", None], dtype=object)),
    ("ragged", [[1, 2], [3]]),
]

# made from a valid dates array: numpy would truncate each to whole days
NOT_DAYS = [
    ("float-days", lambda days: days.astype(np.int64) + 0.5),
    ("time-of-day", lambda days: days.astype("datetime64[h]") + np.timedelta64(12, "h")),
]

WHOLE, REAL, CHOICE, ARRAY, DATES = "whole", "real", "choice", "array", "dates"

# the functions that fit or draw: a rejected argument makes no kernel call
CHECKED_FIRST = {"estimate", "shuffle_exponents", "efficiency_test", "window_result",
                 "rolling_analysis"}

P = synthetic_prices(generate_fgn(FgnSpec(n=300, hurst=0.5, sigma=0.01, seed=3)))
R = log_returns(P)
WINDOW = ReturnSeries(R.dates[:250], R.values[:250])
DFA = Estimator.dfa()
GRID = default_scales(len(R))
PROFILE = profile(R.values)
F = fluctuation(PROFILE, GRID, DFA)
_, _, FIT = estimate(R, DFA)
RANGE = (FIT.s_lo, FIT.s_hi)


def _shuffle(**given):
    args = dict(values=R.values, est=DFA, scales=GRID, s_range=RANGE, n_replicates=4,
                base_seed=1)
    return shuffle_exponents(**{**args, **given})


def _rolling(**given):
    args = dict(window_size=250, step=25, est=DFA, n_shuffles=4, seed=1, workers=1)
    return rolling_analysis(R, **{**args, **given})


def _worker_map(workers, jobs):
    with worker_map(workers, jobs):
        pass


# (function.parameter, kind, call with the value, a valid value)
PARAMETERS = [
    ("PriceSeries.dates", DATES, lambda v: PriceSeries(v, P.prices), P.dates),
    ("PriceSeries.prices", ARRAY, lambda v: PriceSeries(P.dates, v), P.prices),
    ("ReturnSeries.dates", DATES, lambda v: ReturnSeries(v, R.values), R.dates),
    ("ReturnSeries.values", ARRAY, lambda v: ReturnSeries(R.dates, v), R.values),
    ("profile.values", ARRAY, profile, R.values),
    ("split_by_dates.cut_dates", ARRAY, lambda v: split_by_dates(P, v), ["2000-06-01"]),
    ("Estimator.kind", CHOICE, Estimator, "dfa"),
    ("Estimator.theta", REAL, lambda v: Estimator("dma", theta=v), 0.5),
    ("Estimator.order", WHOLE, lambda v: Estimator("dfa", order=v), 2),
    ("Estimator.dma.theta", REAL, Estimator.dma, 0.5),
    ("Estimator.dfa.order", WHOLE, Estimator.dfa, 2),
    ("Estimator.fluctuation_matrix.profiles", ARRAY,
     lambda v: DFA.fluctuation_matrix(v, GRID), PROFILE),
    ("Estimator.fluctuation_matrix.scales", ARRAY,
     lambda v: DFA.fluctuation_matrix(PROFILE, v), GRID),
    ("default_scales.n", WHOLE, default_scales, 300),
    ("dma_fluctuation_matrix.profiles", ARRAY,
     lambda v: dma_fluctuation_matrix(v, GRID, 0.5), PROFILE),
    ("dma_fluctuation_matrix.scales", ARRAY,
     lambda v: dma_fluctuation_matrix(PROFILE, v, 0.5), GRID),
    ("dma_fluctuation_matrix.theta", REAL,
     lambda v: dma_fluctuation_matrix(PROFILE, GRID, v), 0.5),
    ("dfa_fluctuation_matrix.profiles", ARRAY,
     lambda v: dfa_fluctuation_matrix(v, GRID, 1), PROFILE),
    ("dfa_fluctuation_matrix.scales", ARRAY,
     lambda v: dfa_fluctuation_matrix(PROFILE, v, 1), GRID),
    ("dfa_fluctuation_matrix.order", WHOLE,
     lambda v: dfa_fluctuation_matrix(PROFILE, GRID, v), 2),
    ("fluctuation.y", ARRAY, lambda v: fluctuation(v, GRID, DFA), PROFILE),
    ("fluctuation.scales", ARRAY, lambda v: fluctuation(PROFILE, v, DFA), GRID),
    ("fit_power_law.f", ARRAY, lambda v: fit_power_law(v, GRID), F),
    ("fit_power_law.scales", ARRAY, lambda v: fit_power_law(F, v), GRID),
    ("fit_power_law.window_len", WHOLE, lambda v: fit_power_law(F, GRID, v), 5),
    ("detect_scaling_range.f_matrix", ARRAY, lambda v: detect_scaling_range(v, GRID), F[None]),
    ("detect_scaling_range.scales", ARRAY, lambda v: detect_scaling_range(F[None], v), GRID),
    ("detect_scaling_range.window_len", WHOLE,
     lambda v: detect_scaling_range(F[None], GRID, v), 5),
    ("estimate.range_policy", CHOICE, lambda v: estimate(R, DFA, v), "auto"),
    ("replicate_rng.base_seed", WHOLE, lambda v: replicate_rng(v, 0), 42),
    ("replicate_rng.index", WHOLE, lambda v: replicate_rng(42, v), 7),
    ("replicate_rng.prefix", ARRAY, lambda v: replicate_rng(42, 7, v), (1,)),
    ("two_tailed_p.h", REAL, lambda v: two_tailed_p(v, F), 0.5),
    ("two_tailed_p.ensemble", ARRAY, lambda v: two_tailed_p(0.5, v), F),
    ("worker_map.workers", WHOLE, lambda v: _worker_map(v, 4), 1),
    ("worker_map.jobs", WHOLE, lambda v: _worker_map(2, v), 1),
    ("shuffle_exponents.values", ARRAY, lambda v: _shuffle(values=v), R.values),
    ("shuffle_exponents.scales", ARRAY, lambda v: _shuffle(scales=v), GRID),
    ("shuffle_exponents.s_range", ARRAY, lambda v: _shuffle(s_range=v), RANGE),
    ("shuffle_exponents.n_replicates", WHOLE, lambda v: _shuffle(n_replicates=v), 4),
    ("shuffle_exponents.base_seed", WHOLE, lambda v: _shuffle(base_seed=v), 1),
    ("shuffle_exponents.spawn_prefix", ARRAY, lambda v: _shuffle(spawn_prefix=v), (3,)),
    ("efficiency_test.n_replicates", WHOLE,
     lambda v: efficiency_test(R, DFA, FIT, n_replicates=v), 4),
    ("efficiency_test.seed", WHOLE, lambda v: efficiency_test(R, DFA, FIT, 4, seed=v), 1),
    ("efficiency_test.spawn_prefix", ARRAY,
     lambda v: efficiency_test(R, DFA, FIT, 4, spawn_prefix=v), (3,)),
    ("window_result.start", WHOLE, lambda v: window_result(WINDOW, v, DFA, 4), 0),
    ("window_result.n_shuffles", WHOLE, lambda v: window_result(WINDOW, 0, DFA, v), 4),
    ("window_result.seed", WHOLE, lambda v: window_result(WINDOW, 0, DFA, 4, v), 1),
    ("rolling_analysis.window_size", WHOLE, lambda v: _rolling(window_size=v), 250),
    ("rolling_analysis.step", WHOLE, lambda v: _rolling(step=v), 25),
    ("rolling_analysis.n_shuffles", WHOLE, lambda v: _rolling(n_shuffles=v), 4),
    ("rolling_analysis.seed", WHOLE, lambda v: _rolling(seed=v), 1),
    ("rolling_analysis.workers", WHOLE, lambda v: _rolling(workers=v), 1),
    ("FgnSpec.n", WHOLE, lambda v: FgnSpec(n=v, hurst=0.7), 8),
    ("FgnSpec.hurst", REAL, lambda v: FgnSpec(n=8, hurst=v), 0.7),
    ("FgnSpec.sigma", REAL, lambda v: FgnSpec(n=8, hurst=0.7, sigma=v), 2.0),
    ("FgnSpec.seed", WHOLE, lambda v: FgnSpec(n=8, hurst=0.7, seed=v), 1),
    ("fgn_autocovariance.lags", ARRAY, lambda v: fgn_autocovariance(v, 0.7), np.arange(5)),
    ("fgn_autocovariance.hurst", REAL, lambda v: fgn_autocovariance(np.arange(5), v), 0.7),
    ("fgn_autocovariance.sigma", REAL,
     lambda v: fgn_autocovariance(np.arange(5), 0.7, v), 2.0),
    ("synthetic_prices.values", ARRAY, synthetic_prices, R.values),
]
PARAMETER_IDS = [row[0] for row in PARAMETERS]


@pytest.mark.parametrize("name, kind, call, valid", PARAMETERS, ids=PARAMETER_IDS)
def test_valid_value_runs(name, kind, call, valid):
    call(valid)


@pytest.mark.parametrize("value", [v for _, v in POOL], ids=[k for k, _ in POOL])
@pytest.mark.parametrize("name, kind, call, valid", PARAMETERS, ids=PARAMETER_IDS)
def test_bad_value_runs_or_is_a_wfe_error(monkeypatch, name, kind, call, valid, value):
    calls = []
    kernel = Estimator.fluctuation_matrix

    def counting(self, profiles, scales):
        calls.append(name)
        return kernel(self, profiles, scales)

    monkeypatch.setattr(Estimator, "fluctuation_matrix", counting)
    try:
        call(value)
    except WfeError:
        if name.split(".")[0] in CHECKED_FIRST:
            assert calls == [], f"{name} ran a kernel before rejecting {value!r}"
    else:
        assert kind == ARRAY or (kind == REAL and value is not True), (
            f"{name} accepted {value!r}"
        )


@pytest.mark.parametrize("make", [m for _, m in NOT_DAYS], ids=[k for k, _ in NOT_DAYS])
@pytest.mark.parametrize("name, kind, call, valid",
                         [row for row in PARAMETERS if row[1] == DATES],
                         ids=[row[0] for row in PARAMETERS if row[1] == DATES])
def test_dates_that_are_not_calendar_days_are_rejected(name, kind, call, valid, make):
    with pytest.raises(DataError, match="^dates must be calendar days$"):
        call(make(valid))
