"""Mutant catalogue: break the program on purpose and check that the fast suite notices.

    python3 mutants/run.py [--output PATH] [--jobs N]

Each mutant replaces one exact text in one file under ``src``.  For each
mutant the script copies ``src``, ``tests``, ``data`` and
``pyproject.toml`` to a temporary directory (leaving out
``tests/test_mutants.py``), applies the mutant there and runs
``python -m pytest -x -q -m "not slow" -p no:cacheprovider tests`` on
the copy.  The checkout itself is never written.  ``--jobs N`` (default
1) runs N mutants at once, each in its own copy; the record lists them
in catalogue order whatever order they finish in.

The result is one JSON record, on stdout or in ``--output``: for each
mutant whether the suite caught it (exit status 1) or it survived
(exit status 0), the first failing test and the seconds taken.  Any
other exit status is recorded as an error.  A mutant whose old text
does not occur exactly once in its file fails the whole run (exit
status 2) before any mutant is tried, so a refactor that moves the
code keeps the catalogue current; ``tests/test_mutants.py`` checks
that rule.

The script needs only the standard library; the suite it runs needs
the package's test dependencies.  It takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "pyproject.toml")
# the catalogue's own test checks the unmutated tree, and would catch
# every mutant for its changed old text
CATALOGUE_TEST = "test_mutants.py"
PYTEST = ["-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider", "tests"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


MUTANTS = [
    # the first catalogue of one-line mutants (ROADMAP item 7)
    Mutant("p-ties-extreme", "src/wfetest/shuffletest.py",
           "np.abs(e - mean) > abs(h - mean)", "np.abs(e - mean) >= abs(h - mean)"),
    Mutant("band-edge-outside", "src/wfetest/shuffletest.py",
           "if self.h < self.q025:", "if self.h <= self.q025:"),
    Mutant("dfa-single-cover-not-doubled", "src/wfetest/detrend.py",
           "            if len(starts) == 1:\n                total *= 2",
           "            if len(starts) == 1:\n                total *= 1"),
    Mutant("range-ties-last", "src/wfetest/scaling.py",
           "best = np.argmin(rss, axis=1)",
           "best = rss.shape[1] - 1 - np.argmin(rss[:, ::-1], axis=1)"),
    Mutant("bad-f-window-wins", "src/wfetest/scaling.py",
           "rss[np.isnan(rss)] = np.inf", "rss[np.isnan(rss)] = 0.0"),
    Mutant("nearest-quantiles", "src/wfetest/shuffletest.py",
           'method="linear"', 'method="nearest"'),
    Mutant("twosum-low-word-dropped", "src/wfetest/detrend.py",
           "            np.add(d, lf[s:], out=d)\n            np.subtract(d, lf[:-s], out=d)\n", ""),
    Mutant("redraw-cap-2pct", "src/wfetest/shuffletest.py",
           "max_redraws = max(1, n_replicates // 100)",
           "max_redraws = max(1, n_replicates // 50)"),
    Mutant("dma-normalizer-off-by-one", "src/wfetest/detrend.py",
           "_row_sum_squares(valid) / (n + 1 - s)", "_row_sum_squares(valid) / (n - s)"),
    Mutant("shuffled-rows-not-demeaned", "src/wfetest/shuffletest.py",
           "    rows -= rows.mean(axis=1, keepdims=True)\n", ""),
    Mutant("theta-snap-deleted", "src/wfetest/detrend.py",
           "    if abs(a - round(a)) < 1e-9:\n        a = round(a)\n", ""),
    # the checks of the one fit
    Mutant("detect-shape-check", "src/wfetest/scaling.py",
           "    if f_matrix.ndim != 2 or f_matrix.shape[1] != len(scales):\n"
           '        raise DataError("f_matrix must be 2-d with one column per scale")\n', ""),
    Mutant("detect-scale-check", "src/wfetest/scaling.py",
           "scales = _check_scales(scales, np.inf, 1)", "scales = np.asarray(scales)"),
    Mutant("fit-start-minus-one", "src/wfetest/scaling.py",
           "    if lo < 0:\n        raise DegenerateInputError(", "    if False:\n        raise DegenerateInputError("),
    Mutant("fluctuation-finite-f", "src/wfetest/detrend.py",
           "    if not np.all(np.isfinite(f)):\n"
           '        raise DataError("fluctuation values must be finite")\n', ""),
    Mutant("check-row-dtype", "src/wfetest/timeseries.py",
           'values = _numbers(values, f"{name} values must be integers or floats")',
           "values = np.asarray(values)"),
    # the range rule's rss, the fixed range's check and the labelled errors
    Mutant("rule-rss-first-window", "src/wfetest/scaling.py",
           "rss[rows, best]", "rss[rows, 0]"),
    Mutant("fixed-range-one-point", "src/wfetest/shuffletest.py",
           "if len(fitted) < 2:", "if len(fitted) < 1:"),
    Mutant("f-dtype-clause", "src/wfetest/scaling.py",
           'f_matrix = _numbers(f_matrix, "f_matrix values must be integers or floats")',
           "f_matrix = np.asarray(f_matrix)"),
    Mutant("segment-label-pre-pass", "src/wfetest/cli.py",
           "            with _labelled(label):\n                r = log_returns(seg)",
           '            with _labelled("segment"):\n                r = log_returns(seg)'),
    Mutant("segment-label-ensemble", "src/wfetest/cli.py",
           "            with _labelled(label):\n                res = efficiency_test(",
           "            if label:\n                res = efficiency_test("),
    Mutant("window-label", "src/wfetest/rolling.py",
           'with _labelled(f"{window.dates[0]}..{window.dates[-1]}"):',
           'with _labelled(f"{window.dates[-1]}"):'),
    Mutant("progress-line-left-open", "src/wfetest/cli.py",
           "        if shown:", "        if not shown:"),
    # one fit per series and the output check
    Mutant("segments-share-first-fit", "src/wfetest/cli.py",
           "prepared.append((seg, label, r, fit))",
           "prepared.append((seg, label, r, prepared[0][3] if prepared else fit))"),
    Mutant("shuffles-over-whole-grid", "src/wfetest/shuffletest.py",
           "default_scales(len(r)), (fit.s_lo, fit.s_hi),",
           "default_scales(len(r)), (0, len(r)),"),
    Mutant("output-not-checked", "src/wfetest/cli.py",
           "        _check_output(args.output)\n", ""),
    # the residual projector of small DFA boxes
    Mutant("projector-without-identity", "src/wfetest/detrend.py",
           "proj = np.eye(s) - design @ pinv_t.T", "proj = -design @ pinv_t.T"),
    Mutant("projector-cutoff-reversed", "src/wfetest/detrend.py",
           "if s <= _PROJECTOR_MAX_S:", "if s > _PROJECTOR_MAX_S:"),
    Mutant("projector-cutoff-exclusive", "src/wfetest/detrend.py",
           "if s <= _PROJECTOR_MAX_S:", "if s < _PROJECTOR_MAX_S:"),
    # the grid without np.unique
    Mutant("grid-keeps-repeats", "src/wfetest/detrend.py",
           "np.diff(rounded, prepend=0) > 0", "np.diff(rounded, prepend=0) >= 0"),
    # one check per estimator parameter, the estimator before the input,
    # and the shuffle arguments' own checks
    Mutant("dma-theta-unchecked", "src/wfetest/detrend.py",
           "    _check_theta(theta)\n", ""),
    Mutant("order-integer-clause", "src/wfetest/timeseries.py",
           "if not isinstance(value, Integral) or isinstance(value, bool):",
           "if isinstance(value, bool):"),
    Mutant("test-estimator-after-load", "src/wfetest/cli.py",
           "    est = _estimator(args)\n    series = _load(args)\n    args.subseries",
           "    series = _load(args)\n    est = _estimator(args)\n    args.subseries"),
    Mutant("s-range-pair-unchecked", "src/wfetest/shuffletest.py",
           "    if _numbers(s_range, not_a_pair).shape != (2,):\n"
           "        raise DataError(not_a_pair)\n", ""),
    # every byte formatted in cli.py, and each run option checked before the input
    Mutant("window-row-band-swapped", "src/wfetest/cli.py",
           "{res.q025!r},{res.q975!r}", "{res.q975!r},{res.q025!r}"),
    Mutant("result-doc-always-ensemble", "src/wfetest/cli.py",
           "    if include_ensemble:\n", "    if True:\n"),
    Mutant("rolling-options-after-load", "src/wfetest/cli.py",
           "    _check_rolling_args(args.window, args.step, args.n_shuffles, args.seed)\n"
           '    _whole(args.threads, "worker count", 1)\n    series = _load(args)\n',
           "    series = _load(args)\n"
           "    _check_rolling_args(args.window, args.step, args.n_shuffles, args.seed)\n"
           '    _whole(args.threads, "worker count", 1)\n'),
    Mutant("s-range-ragged-unchecked", "src/wfetest/shuffletest.py",
           "if _numbers(s_range, not_a_pair).shape", "if np.asarray(s_range).shape"),
    # one check per kind of argument
    Mutant("whole-accepts-bool", "src/wfetest/timeseries.py",
           "if not isinstance(value, Integral) or isinstance(value, bool):",
           "if not isinstance(value, Integral):"),
    Mutant("whole-bound-exclusive", "src/wfetest/timeseries.py",
           "if value < minimum:", "if value <= minimum:"),
    Mutant("real-accepts-bool", "src/wfetest/timeseries.py",
           "if not isinstance(value, Real) or isinstance(value, bool):",
           "if not isinstance(value, Real):"),
    Mutant("numbers-ragged-uncaught", "src/wfetest/timeseries.py",
           "    except ValueError:  # ragged", "    except TypeError:  # ragged"),
    Mutant("window-start-unchecked", "src/wfetest/rolling.py",
           '    _whole(start, "window start", 0)\n', ""),
    # the DMA pass without a per-cell divide, and dates as calendar days
    Mutant("dma-scale-not-undone", "src/wfetest/detrend.py",
           "np.sqrt(_row_sum_squares(valid) / (n + 1 - s)) / s",
           "np.sqrt(_row_sum_squares(valid) / (n + 1 - s))"),
    Mutant("dma-x-unscaled", "src/wfetest/detrend.py",
           "np.multiply(xf[past + 1 : past + 1 + size], s, out=wlf[:size])",
           "np.multiply(xf[past + 1 : past + 1 + size], 1, out=wlf[:size])"),
    Mutant("float-dates-truncated", "src/wfetest/timeseries.py",
           'elif raw.dtype.kind in "iu":  # day numbers', 'elif raw.dtype.kind in "iufb":  # day numbers'),
    Mutant("time-of-day-truncated", "src/wfetest/timeseries.py",
           "\n            or raw.dtype != days.dtype and np.any(days != raw)", ""),
    # one calendar-day rule, and the rejections no other test ran
    Mutant("month-taken-as-day", "src/wfetest/timeseries.py",
           'np.datetime_data(raw.dtype)[0] in ("Y", "M", "W") or ', ""),
    Mutant("nat-taken-as-day", "src/wfetest/timeseries.py",
           " or np.any(np.isnat(days))", ""),
    Mutant("cut-bypasses-day-rule", "src/wfetest/timeseries.py",
           "        day = _days(c, bad)\n", "        day = np.datetime64(c)\n"),
    Mutant("return-series-empty-unchecked", "src/wfetest/timeseries.py",
           '        if len(values) == 0:\n            raise InsufficientDataError("return series is empty")\n',
           ""),
    Mutant("returns-finite-unchecked", "src/wfetest/timeseries.py",
           '        if not np.all(np.isfinite(values)):\n            raise DataError("returns must be finite")\n',
           ""),
    Mutant("profiles-3d-unchecked", "src/wfetest/detrend.py",
           '    if profiles.ndim > 2:\n        raise DataError("profiles must be a 1-d or 2-d array")\n',
           ""),
    Mutant("tmp-left-behind", "src/wfetest/cli.py",
           "    finally:\n        if os.path.exists(tmp):\n            os.unlink(tmp)\n", ""),
]


def check_catalogue(root: Path = ROOT, mutants=MUTANTS) -> list[str]:
    """One problem per mutant whose old text is not found exactly once."""
    problems = []
    names = [m.name for m in mutants]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: the name is used more than once")
    for m in mutants:
        path = root / m.file
        if not path.is_file():
            problems.append(f"{m.name}: {m.file} does not exist")
            continue
        count = path.read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
    return problems


def _first_failure(output: str) -> str | None:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else None


def run_mutant(m: Mutant) -> dict:
    """Apply ``m`` in a temporary copy of the checkout and run the fast suite on it."""
    with tempfile.TemporaryDirectory(prefix="wfetest-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.pyc", CATALOGUE_TEST))
            else:
                shutil.copy2(src, copy / name)
        target = copy / m.file
        target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new, 1),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - t0
    status = {0: "survived", 1: "caught"}.get(proc.returncode, "error")
    record = {"file": m.file, "status": status, "first_failure": _first_failure(proc.stdout),
              "seconds": round(seconds, 2)}
    if status == "error":
        record["exit_status"] = proc.returncode
        record["output_tail"] = (proc.stdout + proc.stderr)[-2000:]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write the JSON record here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants run at once, each in its own copy (default 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")

    problems = check_catalogue(ROOT, MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    results = {}
    # each job waits on its own pytest process, so threads are enough
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for m, record in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            results[m.name] = record
            print(f"{m.name}: {record['status']} ({record['seconds']} s)", file=sys.stderr)
    counts = {s: sum(r["status"] == s for r in results.values())
              for s in ("caught", "survived", "error")}
    text = json.dumps({"command": ["python", *PYTEST], "jobs": args.jobs, "counts": counts,
                       "mutants": results}, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if counts["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
