"""Command-line interface: analyze, test, rolling, synth.

This module alone formats output: every artifact's keys, columns and
float reprs and every stdout line are laid out here, and the result
types hold only numbers.  Every artifact embeds a schema tag, the
library version, and the fully resolved run configuration, so any
output file documents the exact run that produced it.  Worker count is
deliberately left out of the echoed config: it must never change the
result, and artifacts are required to be byte-identical for any
--threads value.

The output location and every run option are checked before the input
is read, and files are written to a temporary sibling and renamed into
place, so a failed run never leaves a partial artifact.  Exit status is
0 exactly when every requested output was fully written.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import __version__
from .detrend import Estimator
from .errors import WfeError, _labelled
from .rolling import WindowResult, _check_rolling_args, rolling_analysis
from .scaling import RANGE_POLICIES, ScalingFit, estimate
from .shuffletest import (
    DEFAULT_SEED,
    SIGNIFICANCE_LEVEL,
    ShuffleTestResult,
    _check_shuffle_args,
    _replicate_chunks,
    efficiency_test,
    worker_map,
)
from .synth import FgnSpec, generate_fgn, synthetic_prices
from .timeseries import (
    GULF_WAR,
    IRAQ_WAR,
    NAFTA,
    PriceSeries,
    _whole,
    load_prices,
    log_returns,
    split_by_dates,
)

SUBSERIES_CUTS = {
    "whole": (),
    "gulf-iraq": (GULF_WAR, IRAQ_WAR),
    "nafta": (NAFTA,),
}


def _config_dict(args: argparse.Namespace) -> dict:
    # threads and the destination path are execution details: artifacts
    # must be byte-identical across worker counts and output locations
    skip = {"func", "threads", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }


def _check_output(path: str) -> None:
    """Reject an output path no run could write, before any work."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # name the output, not its temporary sibling
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json_artifact(schema: str, config: dict, body: dict) -> str:
    doc = {"schema": schema, "version": __version__, "config": config}
    doc.update(body)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_preamble(schema: str, config: dict) -> list[str]:
    cfg = json.dumps(config, sort_keys=True)
    return [f"# schema: {schema}", f"# version: {__version__}", f"# config: {cfg}"]


def _fit_doc(fit: ScalingFit) -> dict:
    return {"H": fit.h, "stderr": fit.stderr, "s_lo": fit.s_lo, "s_hi": fit.s_hi,
            "rss": fit.rss, "n_points": fit.n_points}


def _result_doc(res: ShuffleTestResult, include_ensemble: bool = False) -> dict:
    doc = {
        "method": res.method, "H": res.h, "mean_Hs": res.mean_hs, "p": res.p,
        "q025": res.q025, "q975": res.q975, "n_replicates": res.n_replicates,
        "seed": res.seed, "s_lo": res.s_lo, "s_hi": res.s_hi,
        "n_redraws": res.n_redraws, "rejected_at_1pct": res.rejected,
    }
    if include_ensemble:
        doc["ensemble"] = [float(v) for v in res.ensemble]
    return doc


def _summary(res: ShuffleTestResult) -> str:
    return (
        f"{res.method}: H={res.h:.3f} <H^s>={res.mean_hs:.3f} "
        f"p={res.p:.4f} -> null {res.verdict} at {SIGNIFICANCE_LEVEL:g}"
    )


_WINDOW_HEADER = "end_date,H,q025,q975,flag,s_lo,s_hi"


def _window_row(row: WindowResult) -> str:
    # float(): numpy 2 prints an np.float64 as np.float64(0.8)
    res = row.result
    return (
        f"{row.end_date},{float(res.h)!r},{res.q025!r},{res.q975!r},"
        f"{res.flag},{int(res.s_lo)},{int(res.s_hi)}"
    )


def _estimator(args: argparse.Namespace) -> Estimator:
    if args.method == "dfa":
        return Estimator.dfa(args.order)
    return Estimator.dma(args.theta)


def _load(args: argparse.Namespace) -> PriceSeries:
    loaded = load_prices(args.input)
    if loaded.dropped:
        print(
            f"note: dropped {loaded.dropped} rows with missing or "
            f"non-positive prices",
            file=sys.stderr,
        )
    return loaded.series


def cmd_analyze(args: argparse.Namespace) -> int:
    est = _estimator(args)
    series = _load(args)
    r = log_returns(series)
    scales, f, fit = estimate(r, est, args.range_policy)
    relations = {"eta": fit.eta, "gamma": fit.gamma}

    config = _config_dict(args)
    if args.format == "json":
        text = _json_artifact(
            "wfetest/fluctuation/v1",
            config,
            {
                "method": est.tag,
                "n_returns": len(r),
                "scales": scales.tolist(),
                "f": f.tolist(),
                "fit": _fit_doc(fit),
                "relations": relations,
            },
        )
    else:
        lines = _csv_preamble("wfetest/fluctuation/v1", config)
        lines.append("# fit: " + json.dumps(_fit_doc(fit), sort_keys=True))
        lines.append("# relations: " + json.dumps(relations, sort_keys=True))
        lines.append("s,F")
        lines.extend(f"{int(s)},{float(v)!r}" for s, v in zip(scales, f))
        text = "\n".join(lines) + "\n"
    _atomic_write(args.output, text)
    print(
        f"{est.tag}: H = {fit.h:.4f} +/- {fit.stderr:.4f} over "
        f"s in [{fit.s_lo}, {fit.s_hi}]  (eta = {fit.eta:.4f}, "
        f"gamma = {fit.gamma:.4f})"
    )
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    _check_shuffle_args(args.n_shuffles, args.seed)
    _whole(args.threads, "worker count", 1)
    est = _estimator(args)
    series = _load(args)
    args.subseries = args.subseries or "whole"  # echoed in the config
    if args.cuts is not None:
        cuts = tuple(part.strip() for part in args.cuts.split(","))
    else:
        cuts = SUBSERIES_CUTS[args.subseries]
    segments = split_by_dates(series, cuts)

    # one pool serves every segment, sized for the longest job list
    jobs = max(len(_replicate_chunks(len(seg.prices) - 1, args.n_shuffles))
               for seg in segments)
    with worker_map(args.threads, jobs) as pmap:
        # every segment's fit before the first shuffle, so that a segment
        # that cannot be tested fails the run at once
        prepared = []
        for seg in segments:
            label = f"{seg.dates[0]}..{seg.dates[-1]}"
            with _labelled(label):
                r = log_returns(seg)
                _, _, fit = estimate(r, est, args.range_policy)
            prepared.append((seg, label, r, fit))
        seg_docs = []
        for seg, label, r, fit in prepared:
            with _labelled(label):
                res = efficiency_test(
                    r, est, fit,
                    n_replicates=args.n_shuffles, seed=args.seed, pmap=pmap,
                )
            print(f"[{label}] {_summary(res)}")
            seg_docs.append(
                {
                    "start": str(seg.dates[0]),
                    "end": str(seg.dates[-1]),
                    "n_returns": len(r.values),
                    "result": _result_doc(res, args.include_ensemble),
                }
            )
    text = _json_artifact(
        "wfetest/shuffle-test/v1",
        _config_dict(args),
        {"segments": seg_docs},
    )
    _atomic_write(args.output, text)
    return 0


def cmd_rolling(args: argparse.Namespace) -> int:
    est = _estimator(args)
    _check_rolling_args(args.window, args.step, args.n_shuffles, args.seed)
    _whole(args.threads, "worker count", 1)
    series = _load(args)

    shown = []

    def report(done: int, total: int) -> None:
        if done == total or done % max(1, total // 100) == 0:
            print(f"\rwindow {done}/{total}", end="", file=sys.stderr, flush=True)
            shown.append(done)

    try:
        results = rolling_analysis(
            log_returns(series),
            window_size=args.window,
            step=args.step,
            est=est,
            n_shuffles=args.n_shuffles,
            seed=args.seed,
            workers=args.threads,
            progress=report,
        )
    finally:
        if shown:  # end the progress line, also before an error is printed
            print(file=sys.stderr)
    lines = _csv_preamble("wfetest/rolling-windows/v1", _config_dict(args))
    lines.append(_WINDOW_HEADER)
    lines.extend(_window_row(row) for row in results)
    _atomic_write(args.output, "\n".join(lines) + "\n")
    outside = sum(row.result.flag != "inside" for row in results)
    print(
        f"{len(results)} windows, {outside} outside the 2.5/97.5% band "
        f"({outside / len(results):.1%})"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = FgnSpec(n=args.n, hurst=args.hurst, sigma=args.sigma, seed=args.seed)
    values = generate_fgn(spec)
    lines = _csv_preamble("wfetest/synthetic-series/v1", _config_dict(args))
    if args.prices:
        series = synthetic_prices(values)
        lines.append("date,price")
        lines.extend(
            f"{d},{float(p)!r}" for d, p in zip(series.dates, series.prices)
        )
    else:
        lines.append("value")
        lines.extend(f"{float(v)!r}" for v in values)
    _atomic_write(args.output, "\n".join(lines) + "\n")
    kind = "price series" if args.prices else "value series"
    print(f"wrote {kind} of length {len(values) + bool(args.prices)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfetest",
        description="Scaling-exponent estimation and shuffle tests of the "
        "no-memory null for financial time series.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )

    # option groups shared by several subcommands, each declared once; a
    # subcommand lists its groups as parents.  Parents share their Action
    # objects, so no subcommand may set_defaults an option of a group.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", required=True, help="artifact path")
    seeded = argparse.ArgumentParser(add_help=False, parents=[output])
    seeded.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base random seed (default {DEFAULT_SEED})",
    )
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--input", "-i", required=True, help="price CSV (date,price)")
    series.add_argument(
        "--method",
        choices=("dfa", "dma"),
        default="dfa",
        help="scaling estimator (default dfa)",
    )
    series.add_argument(
        "--order", type=int, default=1, help="dfa detrending order (default 1)"
    )
    series.add_argument(
        "--theta",
        type=float,
        default=0.0,
        help="dma window position: 0 backward, 0.5 centered, 1 forward "
        "(default 0)",
    )
    fit_range = argparse.ArgumentParser(add_help=False)
    fit_range.add_argument(
        "--range",
        dest="range_policy",
        choices=RANGE_POLICIES,
        default="full",
        help="scaling range: whole grid or minimal-residual window (default full)",
    )
    shuffles = argparse.ArgumentParser(add_help=False, parents=[series, seeded])
    shuffles.add_argument(
        "--threads", type=int, default=1,
        help="worker process cap; never affects results (default 1)",
    )

    subs = parser.add_subparsers(dest="subcommand", required=True)
    # analyze draws nothing, so it takes no seed
    p = subs.add_parser(
        "analyze", parents=[series, fit_range, output],
        help="fluctuation function and scaling exponent",
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="artifact format (default csv)",
    )
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser(
        "test", parents=[shuffles, fit_range],
        help="shuffle test on the whole series or preset segments",
    )
    p.add_argument(
        "--n-shuffles", type=int, default=10000,
        help="shuffle replicates per segment (default 10000)",
    )
    segmentation = p.add_mutually_exclusive_group()
    segmentation.add_argument(
        "--subseries",
        choices=tuple(SUBSERIES_CUTS),
        # None, not "whole": argparse takes an option holding its default
        # object for absent, and "whole" must still conflict with --cuts
        default=None,
        help="segmentation preset (default whole)",
    )
    segmentation.add_argument(
        "--cuts",
        default=None,
        help="comma-separated ISO cut dates, instead of a preset",
    )
    p.add_argument(
        "--include-ensemble",
        action="store_true",
        help="store the full replicate ensemble in the artifact",
    )
    p.set_defaults(func=cmd_test)

    p = subs.add_parser(
        "rolling", parents=[shuffles],
        help="windowed exponents with shuffle quantile bands",
    )
    p.add_argument(
        "--window", type=int, default=1000,
        help="returns per window (default 1000)",
    )
    p.add_argument(
        "--step", type=int, default=1, help="window advance (default 1)"
    )
    p.add_argument(
        "--n-shuffles", type=int, default=1000,
        help="shuffle replicates per window (default 1000)",
    )
    p.set_defaults(func=cmd_rolling)

    p = subs.add_parser(
        "synth", parents=[seeded],
        help="exact fractional Gaussian noise, values or prices",
    )
    p.add_argument(
        "--hurst", type=float, required=True, help="target exponent in (0, 1)"
    )
    p.add_argument("--n", type=int, default=4096, help="length (default 4096)")
    p.add_argument(
        "--sigma", type=float, default=1.0,
        help="standard deviation (default 1)",
    )
    p.add_argument(
        "--prices",
        action="store_true",
        help="emit an exponentiated-cumulative-sum price series instead "
        "of raw values",
    )
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except (WfeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
