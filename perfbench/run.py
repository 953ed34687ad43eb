"""wfetest benchmark: run the real CLI on seeded synthetic series and report metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from a source checkout; it puts ``src`` on PYTHONPATH and needs
nothing installed beyond numpy.

``--trace 0`` times whole CLI processes, one at a time, for ``--seconds``
seconds and prints the end-to-end metrics: medians over passes, where a
pass writes the input afresh ``SETUP_PER_PASS`` times and then runs every
call of the workload once.  ``--trace 1`` runs each
call once in this process through ``wfetest.cli.main`` with spans around
every public wfetest function, and prints the per-layer metrics.  Every
artifact is checked against the reference answers in ``oracle.py``.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: `--threads` is then the
# number of cores a run uses, and no idle BLAS helper thread spin-waits, which
# adds CPU time that depends on how busy the host is.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracer import LAYER, Tracer, layer_metrics, pool_startups, total  # noqa: E402
from workloads import Workload, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPUTS = Path(__file__).resolve().parent / "inputs.py"
SETUP_PER_PASS = 2
IMPORT_REPEATS = 5
CALL_TIMEOUT_S = 170
IMPORT_PROBE = "import time; t = time.perf_counter(); import wfetest.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong program answer)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def context(wls: dict[str, Workload], args, workdir: Path) -> dict:
    import wfetest

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    argv = {name: [call.argv(str(workdir / "input.csv"), str(workdir / f"out_{i}{call.suffix}"),
                             args.seed, wls[name].threads)
                   for i, call in enumerate(wls[name].calls)]
            for name in wls}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "wfetest": wfetest.__version__, "commit": commit, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "argv": argv}


def run_cli(argv: list[str], workdir: Path) -> tuple[int, float, float, float]:
    """Exit code, wall s, CPU s (workers included) and peak RSS MB of one CLI process."""
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "wfetest.cli", *argv], env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child with its reaped children, so ru_maxrss is the largest process
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def checked(call, out: Path, code: int, want: dict, label: str) -> bool:
    if code != 0:
        print(f"{label}: exit code {code}", file=sys.stderr)
        return False
    try:
        problems = oracle.check(call, out.read_text(encoding="utf-8"), want)
    except (OSError, ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
        problems = [f"unreadable artifact: {exc!r}"]
    for p in problems[:5]:
        print(f"{label}: {p}", file=sys.stderr)
    return not problems


def write_input(wl: Workload, seed: int, path: Path) -> float:
    """Write the input in a fresh interpreter; the wall time."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(INPUTS), str(seed), str(wl.n_returns),
                           str(wl.hurst), str(path)], env=child_env(),
                          capture_output=True, timeout=CALL_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"input generation failed: {done.stderr.decode()[-2000:]}")
    return wall


def references(wl: Workload, path: Path, seed: int) -> list[dict]:
    dates, prices = oracle.read_prices(str(path))
    return [oracle.expected(call, dates, prices, seed) for call in wl.calls]


def timed(wl: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    path, again = workdir / "input.csv", workdir / "setup.csv"
    write_input(wl, seed, path)
    wants = references(wl, path, seed)
    reference_input = path.read_bytes()
    setup, passes, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        # set-up samples spread over the run like the passes, so that host
        # speed drift moves setup_s and wall_s alike
        for _ in range(SETUP_PER_PASS):
            setup.append(write_input(wl, seed, again))
            attempted += 1
            if again.read_bytes() != reference_input:
                print(f"{wl.name}: the same seed wrote a different input", file=sys.stderr)
                failed += 1
        wall = cpu = rss = 0.0
        ran = True
        for i, (call, want) in enumerate(zip(wl.calls, wants)):
            out = workdir / f"out_{i}{call.suffix}"
            out.unlink(missing_ok=True)
            code, w, c, r = run_cli(call.argv(str(path), str(out), seed, wl.threads), workdir)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            attempted += 1
            failed += not checked(call, out, code, want, f"{wl.name} call {i}")
            ran = ran and code == 0
        # a pass whose artifacts are wrong still timed the whole computation
        if ran:
            passes.append((wall, cpu, rss))
        if time.perf_counter() >= deadline:
            break
    if not passes:
        raise BenchError(f"{wl.name}: no pass ran to completion")
    med = lambda f: float(statistics.median(f(*p) for p in passes))
    metrics = {
        "setup_s": float(statistics.median(setup)),
        "wall_s": med(lambda w, c, r: w),
        "cpu_s": med(lambda w, c, r: c),
        "cpu_util": med(lambda w, c, r: c / (w * wl.threads)),
        "peak_rss_mb": med(lambda w, c, r: r),
        "estimates_per_s": med(lambda w, c, r: wl.estimates / w),
    }
    notes = {"passes": len(passes), "pass_wall_s": [round(p[0], 4) for p in passes],
             "setup_s": [round(t, 4) for t in setup]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def in_process(wl: Workload, path: Path, seed: int, threads: int, workdir: Path,
               wants: list, tracer: Tracer | None) -> tuple[float, int]:
    """Run every call through cli.main in this process: wall s and failed-call count.

    ``main`` is looked up before the tracer is installed, so it runs
    unwrapped: its own time (argument parsing, dispatch, anything not in
    a traced function) is outside every span and shows as untraced.
    """
    from wfetest.cli import main

    failed = 0
    wall = 0.0
    for i, (call, want) in enumerate(zip(wl.calls, wants)):
        out = workdir / f"out_{i}{call.suffix}"
        out.unlink(missing_ok=True)
        argv = call.argv(str(path), str(out), seed, threads)
        sink = io.StringIO()
        if tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = main(argv)
                wall += time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        failed += not checked(call, out, code, want, f"{wl.name} call {i} (in-process)")
    return wall, failed


def traced(wl: Workload, seed: int, workdir: Path, repeats: int) -> dict:
    import wfetest.cli  # noqa: F401  (loads every module the tracer wraps)
    import inputs

    path = workdir / "input.csv"
    synth = Tracer()
    synth.install()
    try:
        inputs.write_prices(str(path), wl.n_returns, wl.hurst, seed)
    finally:
        synth.uninstall()
    wants = references(wl, path, seed)
    imports = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True)
        imports.append(float(out.stdout))

    plain_wall, failed = in_process(wl, path, seed, 1, workdir, wants, None)
    one = Tracer()
    wall, f1 = in_process(wl, path, seed, 1, workdir, wants, one)
    metrics, notes = layer_metrics(one.spans, wall)
    failed += f1
    attempted = 2 * len(wl.calls)

    two = Tracer()
    _, f2 = in_process(wl, path, seed, 2, workdir, wants, two)
    failed += f2
    attempted += len(wl.calls)
    top = "rolling_analysis" if total(one.spans, "rolling_analysis") else "efficiency_test"
    startups = pool_startups(two.spans)
    metrics.update({
        "cli.import_s": float(statistics.median(imports)),
        "synth.generate_fgn_s": total(synth.spans, "generate_fgn"),
        "fanout.startup_s": float(statistics.median(startups)) if startups else 0.0,
        "fanout.pools": sum(s[LAYER] == "fanout" for s in two.spans),
        "fanout.speedup": total(one.spans, top) / total(two.spans, top),
        "trace.overhead_s": wall - plain_wall,
    })
    accounted = abs(metrics["trace.untraced_s"]) <= 0.1 * wall
    if not accounted:
        print(f"{wl.name}: layer self-times cover {notes['coverage']:.1%} of the traced wall "
              f"time, outside 10%", file=sys.stderr)
    notes.update({"untraced_in_process_wall_s": plain_wall, "self_times_within_10pct": accounted})
    return {"attempted": attempted, "failed": failed + (not accounted),
            "metrics": metrics, "notes": notes}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under the checkout's .perfbench_work, removed on exit."""
    path = ROOT / ".perfbench_work" / name
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_workload(wl: Workload, args, units: dict, workdir: Path) -> dict:
    if args.trace:
        res = traced(wl, args.seed, workdir, 1 if args.smoke else IMPORT_REPEATS)
    else:
        res = timed(wl, args.seed, args.seconds, workdir)
    missing = set(units) - set(res["metrics"])
    if missing:
        raise BenchError(f"{wl.name}: no value for {sorted(missing)}")
    res["metrics"] = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny size, both modes; assert every metric appears")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "wfetest" / "__init__.py").is_file():
        print(f"no wfetest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args)

    wls = workloads()
    names = list(wls) if args.workload == "all" else [args.workload]
    if any(n not in wls for n in names):
        ap.error(f"--workload must be one of {', '.join(wls)} or all")
    e2e, layers = metric_specs()
    units = layers if args.trace else e2e
    try:
        with scratch_dir(str(os.getpid())) as workdir:
            print("context " + json.dumps(context(wls, args, workdir)), flush=True)
            results = {}
            for name in names:
                res = results[name] = run_workload(wls[name], args, units, workdir)
                print(f"{name} notes " + json.dumps(res["notes"]))
                for k, m in res["metrics"].items():
                    print(f"{name} {k} {m['value']!r} {m['unit']}")
                print(f"{name} error_rate {res['failed'] / res['attempted']!r} ratio", flush=True)
    except (BenchError, oracle.OracleError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke(args) -> int:
    """Every workload at a tiny size, timed and traced; every metric must appear with its unit."""
    e2e, layers = metric_specs()
    bad = []
    with scratch_dir(f"smoke-{os.getpid()}") as workdir:
        for wl in workloads(smoke=True).values():
            for trace, units in ((0, e2e), (1, layers)):
                args.trace, args.seconds = trace, 0.0
                line = f"smoke {wl.name} trace={trace}"
                try:
                    res = run_workload(wl, args, units, workdir)
                except BenchError as exc:  # raised when a named metric has no value
                    line += f": {exc}"
                else:
                    nonfinite = [k for k, m in res["metrics"].items()
                                 if not math.isfinite(m["value"])]
                    line += f": failed={res['failed']} non-finite={nonfinite}"
                    if not res["failed"] and not nonfinite:
                        line += " ok"
                print(line, flush=True)
                if not line.endswith(" ok"):
                    bad.append(line)
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
