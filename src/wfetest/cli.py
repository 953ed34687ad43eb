"""Command-line interface: analyze, test, rolling, synth.

Every artifact embeds a schema tag, the library version, and the fully
resolved run configuration, so any output file documents the exact run
that produced it.  Worker count is deliberately left out of the echoed
config: it must never change the result, and artifacts are required to
be byte-identical for any --threads value.

Files are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial artifact.  Exit status is 0 exactly
when every requested output was fully written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .detrend import Estimator, default_scales
from .errors import WfeError
from .rolling import WINDOW_CSV_HEADER, rolling_analysis
from .scaling import RANGE_POLICIES, estimate
from .shuffletest import (
    DEFAULT_SEED,
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
    load_prices,
    log_returns,
    split_by_dates,
)

SUBSERIES_CUTS = {
    "whole": (),
    "gulf-iraq": (GULF_WAR, IRAQ_WAR),
    "nafta": (NAFTA,),
}


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.datetime64):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _config_dict(args: argparse.Namespace) -> dict:
    # threads and the destination path are execution details: artifacts
    # must be byte-identical across worker counts and output locations
    skip = {"func", "threads", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_artifact(schema: str, config: dict, body: dict) -> str:
    doc = {"schema": schema, "version": __version__, "config": config}
    doc.update(body)
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def _csv_preamble(schema: str, config: dict) -> list[str]:
    cfg = json.dumps(config, sort_keys=True, default=_json_default)
    return [f"# schema: {schema}", f"# version: {__version__}", f"# config: {cfg}"]


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


def _add_input_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", "-i", required=True, help="price CSV (date,price)")


def _add_method_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--method",
        choices=("dfa", "dma"),
        default="dfa",
        help="scaling estimator (default dfa)",
    )
    sub.add_argument(
        "--order", type=int, default=1, help="dfa detrending order (default 1)"
    )
    sub.add_argument(
        "--theta",
        type=float,
        default=0.0,
        help="dma window position: 0 backward, 0.5 centered, 1 forward "
        "(default 0)",
    )


def _add_range_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--range",
        dest="range_policy",
        choices=RANGE_POLICIES,
        default="full",
        help="scaling range: whole grid or minimal-residual window (default full)",
    )


def _add_output_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", required=True, help="artifact path")


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base random seed (default {DEFAULT_SEED})",
    )
    _add_output_option(sub)


def _add_threads_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threads", type=int, default=1,
        help="worker process cap; never affects results (default 1)",
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    series = _load(args)
    est = _estimator(args)
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
                "scales": scales,
                "f": f,
                "fit": fit.to_json_dict(),
                "relations": relations,
            },
        )
    else:
        lines = _csv_preamble("wfetest/fluctuation/v1", config)
        lines.append(
            "# fit: " + json.dumps(fit.to_json_dict(), sort_keys=True)
        )
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
    series = _load(args)
    est = _estimator(args)
    args.subseries = args.subseries or "whole"  # echoed in the config
    if args.cuts is not None:
        cuts = tuple(part.strip() for part in args.cuts.split(","))
    else:
        cuts = SUBSERIES_CUTS[args.subseries]
    segments = split_by_dates(series, cuts)

    # every segment's returns and grid before the first shuffle, so that
    # a segment too short to test fails the run at once
    prepared = []
    for seg in segments:
        label = f"{seg.dates[0]}..{seg.dates[-1]}"
        try:
            r = log_returns(seg)
            default_scales(len(r.values))
        except WfeError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
        prepared.append((seg, label, r))

    # one pool serves every segment, sized for the longest job list
    seg_docs = []
    jobs = max(len(_replicate_chunks(len(r.values), args.n_shuffles))
               for _, _, r in prepared)
    with worker_map(args.threads, jobs) as pmap:
        for seg, label, r in prepared:
            res = efficiency_test(
                r,
                est,
                range_policy=args.range_policy,
                n_replicates=args.n_shuffles,
                seed=args.seed,
                pmap=pmap,
            )
            print(f"[{label}] {res.summary()}")
            seg_docs.append(
                {
                    "start": seg.dates[0],
                    "end": seg.dates[-1],
                    "n_returns": len(r.values),
                    "result": res.to_json_dict(args.include_ensemble),
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
    series = _load(args)
    est = _estimator(args)

    def report(done: int, total: int) -> None:
        if done == total or done % max(1, total // 100) == 0:
            print(f"\rwindow {done}/{total}", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

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
    lines = _csv_preamble("wfetest/rolling-windows/v1", _config_dict(args))
    lines.append(WINDOW_CSV_HEADER)
    lines.extend(res.csv_row() for res in results)
    _atomic_write(args.output, "\n".join(lines) + "\n")
    outside = sum(res.outside for res in results)
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
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser(
        "analyze", help="fluctuation function and scaling exponent"
    )
    _add_input_option(p)
    _add_method_options(p)
    _add_range_options(p)
    # analyze draws nothing, so it takes no seed
    _add_output_option(p)
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="artifact format (default csv)",
    )
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser(
        "test", help="shuffle test on the whole series or preset segments"
    )
    _add_input_option(p)
    _add_method_options(p)
    _add_range_options(p)
    _add_common_options(p)
    _add_threads_option(p)
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
        "rolling", help="windowed exponents with shuffle quantile bands"
    )
    _add_input_option(p)
    _add_method_options(p)
    _add_common_options(p)
    _add_threads_option(p)
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
        "synth", help="exact fractional Gaussian noise, values or prices"
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
    _add_common_options(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WfeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
