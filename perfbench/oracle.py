"""Reference answers for the benchmark's output check.

The values are computed here from the definitions wfetest documents
(profile, DFA/DMA fluctuation, log-log OLS fit, 15-point minimal-residual
range, per-replicate seeded shuffles, two-tailed p), without importing
wfetest, so a later change to the program is checked against this
commit's answers for any seed.  Tolerances allow last-bit kernel
changes and catch a wrong answer:

- H, mean_Hs, q025, q975 within 1e-9; p within 2/N;
- s_lo, s_hi, verdicts, segment bounds and counts exact;
- rolling flags exact unless H is within 1e-9 of a band edge.

Rolling windows all get their H and range checked; the shuffle band is
recomputed for ``ROLLING_FULL_CHECKS`` windows spread over the run,
because recomputing every band costs as much as the run itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import SUBSERIES_CUTS, Call

H_TOL = 1e-9
FIT_WINDOW = 15
CHUNK = 256
ROLLING_FULL_CHECKS = 4


class OracleError(Exception):
    """The reference cannot be computed for this input."""


def read_prices(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    dates = np.array([r[0] for r in rows], dtype="datetime64[D]")
    return dates, np.array([float(r[1]) for r in rows])


def default_scales(n: int, per_decade: int = 20) -> np.ndarray:
    s_max = n // 10
    num = max(math.ceil(per_decade * math.log10(s_max / 10.0)) + 1, 16)
    for trial in (num, 2 * num, 4 * num, 8 * num):
        scales = np.unique(np.round(np.logspace(1.0, math.log10(s_max), trial)).astype(np.int64))
        if len(scales) >= 16:
            return scales
    return np.arange(10, s_max + 1)


def fluctuation(profiles: np.ndarray, scales: np.ndarray, method: str, param: str) -> np.ndarray:
    rows, n = profiles.shape
    out = np.empty((rows, len(scales)))
    if method == "dma":
        theta = float(param)
        prefix = np.zeros((rows, n + 1), dtype=np.longdouble)
        np.cumsum(profiles, axis=1, dtype=np.longdouble, out=prefix[:, 1:])
    for j, s in enumerate(int(s) for s in scales):
        if method == "dfa":
            k = n // s
            boxes = np.concatenate(
                [profiles[:, : k * s].reshape(rows, k, s),
                 profiles[:, n - k * s :].reshape(rows, k, s)], axis=1)
            q, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, s), int(param) + 1))
            resid = boxes - (boxes @ q) @ q.T
            out[:, j] = np.sqrt(np.mean(np.square(resid), axis=(1, 2)))
        else:
            future = math.floor((s - 1) * theta)
            past = s - 1 - future
            mov = ((prefix[:, s:] - prefix[:, :-s]) / s).astype(np.float64)
            out[:, j] = np.sqrt(np.mean(np.square(profiles[:, past : n - future] - mov), axis=1))
    return out


def slopes(f: np.ndarray, scales: np.ndarray, lo: int, hi: int) -> np.ndarray:
    mask = (scales >= lo) & (scales <= hi)
    x = np.log(scales[mask].astype(np.float64))
    x -= x.mean()
    y = np.log(f[:, mask])
    return (y - y.mean(axis=1, keepdims=True)) @ x / (x @ x)


def auto_range(f: np.ndarray, scales: np.ndarray) -> tuple[int, int]:
    x, y = np.log(scales.astype(np.float64)), np.log(f)
    best, best_rss = 0, math.inf
    for i in range(len(scales) - FIT_WINDOW + 1):
        xs, ys = x[i : i + FIT_WINDOW], y[i : i + FIT_WINDOW]
        coef = np.polyfit(xs, ys, 1)
        rss = float(np.sum((ys - np.polyval(coef, xs)) ** 2))
        if rss < best_rss:
            best, best_rss = i, rss
    return int(scales[best]), int(scales[best + FIT_WINDOW - 1])


def estimate(r: np.ndarray, call: Call) -> dict:
    """H, range and scales of one return series under the call's estimator."""
    scales = default_scales(len(r))
    f = fluctuation(np.cumsum(r - r.mean())[None, :], scales, call.method, call.param)
    if call.range_policy == "auto" or call.command == "rolling":
        lo, hi = auto_range(f[0], scales)
    else:
        lo, hi = int(scales[0]), int(scales[-1])
    return {"H": float(slopes(f, scales, lo, hi)[0]), "s_lo": lo, "s_hi": hi, "scales": scales}


def shuffle_band(r: np.ndarray, call: Call, est: dict, seed: int, prefix: tuple = ()) -> dict:
    """Shuffle ensemble statistics over the original's range."""
    n_rep = call.n_shuffles
    parts = []
    for start in range(0, n_rep, CHUNK):
        rows = np.empty((min(CHUNK, n_rep - start), len(r)))
        for i in range(len(rows)):
            seq = np.random.SeedSequence(seed, spawn_key=(*prefix, start + i))
            perm = np.random.Generator(np.random.PCG64(seq)).permutation(r)
            rows[i] = np.cumsum(perm - perm.mean())
        f = fluctuation(rows, est["scales"], call.method, call.param)
        parts.append(slopes(f, est["scales"], est["s_lo"], est["s_hi"]))
    ens = np.concatenate(parts)
    if not np.all(np.isfinite(ens)):
        raise OracleError("degenerate shuffle replicate; the oracle does not model redraws")
    mean = float(ens.mean())
    q025, q975 = np.quantile(ens, [0.025, 0.975])
    p = float(np.mean(np.abs(ens - mean) > abs(est["H"] - mean)))
    return {"mean_Hs": mean, "q025": float(q025), "q975": float(q975), "p": p}


def expected(call: Call, dates: np.ndarray, prices: np.ndarray, seed: int) -> dict:
    """The reference answer for one call on the given price series."""
    if call.command == "test":
        bounds = [0, *(int(np.searchsorted(dates, np.datetime64(c))) for c in SUBSERIES_CUTS[call.subseries]),
                  len(prices)]
        segs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            r = np.diff(np.log(prices[lo:hi]))
            est = estimate(r, call)
            segs.append({**est, **shuffle_band(r, call, est, seed),
                         "start": str(dates[lo]), "end": str(dates[hi - 1]), "n_returns": len(r)})
        return {"segments": segs}
    r, rdates = np.diff(np.log(prices)), dates[1:]
    starts = list(range(0, len(r) - call.window + 1, call.step))
    full = set(starts[:: max(1, len(starts) // ROLLING_FULL_CHECKS)][:ROLLING_FULL_CHECKS - 1])
    full.add(starts[-1])
    windows = []
    for start in starts:
        w = r[start : start + call.window]
        est = estimate(w, call)
        win = {"end_date": str(rdates[start + call.window - 1]), "H": est["H"],
               "s_lo": est["s_lo"], "s_hi": est["s_hi"]}
        if start in full:
            win.update(shuffle_band(w, call, est, seed, prefix=(start,)))
        windows.append(win)
    return {"windows": windows}


def _close(problems: list, what: str, got, want, tol: float) -> None:
    if not abs(float(got) - float(want)) <= tol:
        problems.append(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def _same(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _flag(h: float, q025: float, q975: float) -> str:
    return "below" if h < q025 else "above" if h > q975 else "inside"


def check(call: Call, text: str, want: dict) -> list[str]:
    """Problems found comparing one artifact with its reference; empty if correct."""
    problems: list[str] = []
    if call.command == "test":
        segs = json.loads(text)["segments"]
        _same(problems, "segments", len(segs), len(want["segments"]))
        for i, (got, exp) in enumerate(zip(segs, want["segments"])):
            res = got["result"]
            for key in ("start", "end", "n_returns"):
                _same(problems, f"segment {i} {key}", got[key], exp[key])
            for key in ("s_lo", "s_hi"):
                _same(problems, f"segment {i} {key}", res[key], exp[key])
            _same(problems, f"segment {i} n_replicates", res["n_replicates"], call.n_shuffles)
            _same(problems, f"segment {i} verdict", res["rejected_at_1pct"], exp["p"] < 0.01)
            _close(problems, f"segment {i} p", res["p"], exp["p"], 2.0 / call.n_shuffles)
            for key in ("H", "mean_Hs", "q025", "q975"):
                _close(problems, f"segment {i} {key}", res[key], exp[key], H_TOL)
        return problems
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    _same(problems, "windows", len(rows), len(want["windows"]))
    for i, (row, exp) in enumerate(zip(rows, want["windows"])):
        end_date, h, q025, q975, flag, s_lo, s_hi = row
        _same(problems, f"window {i} end_date", end_date, exp["end_date"])
        _same(problems, f"window {i} range", (int(s_lo), int(s_hi)), (exp["s_lo"], exp["s_hi"]))
        _close(problems, f"window {i} H", h, exp["H"], H_TOL)
        if "q025" in exp:
            _close(problems, f"window {i} q025", q025, exp["q025"], H_TOL)
            _close(problems, f"window {i} q975", q975, exp["q975"], H_TOL)
            near_edge = min(abs(exp["H"] - exp["q025"]), abs(exp["H"] - exp["q975"])) <= H_TOL
            if not near_edge:
                _same(problems, f"window {i} flag", flag, _flag(exp["H"], exp["q025"], exp["q975"]))
    return problems
