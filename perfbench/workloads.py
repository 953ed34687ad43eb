"""The benchmark's workloads: which `wfetest` CLI calls each one makes.

Every input is a price series on business days from 1985-01-02, so the
paper's cut presets fall inside it.  No call uses more than two worker
processes.  Why each workload is there is recorded in BENCHMARK.json
and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WTI_RETURNS = 7400  # WTI futures 1985-2013, the paper's series
ROLLING_WINDOW = 1000
ROLLING_WINDOWS = 24
# `wfetest test --subseries` presets: Gulf War and Iraq War starts
SUBSERIES_CUTS = {"whole": (), "gulf-iraq": ("1990-08-02", "2003-03-20")}


@dataclass(frozen=True)
class Call:
    """One `wfetest` invocation, minus input, output, seed and threads."""

    command: str  # test | rolling
    method: str  # dfa | dma
    param: str  # dfa order or dma theta
    n_shuffles: int = 0
    subseries: str = "whole"
    range_policy: str = "full"
    window: int = 0
    step: int = 0

    def argv(self, input_path: str, output: str, seed: int, threads: int) -> list[str]:
        opt = "--order" if self.method == "dfa" else "--theta"
        argv = [self.command, "-i", input_path, "-o", output, "--seed", str(seed),
                "--threads", str(threads), "--method", self.method, opt, self.param]
        if self.command == "test":
            argv += ["--range", self.range_policy, "--subseries", self.subseries,
                     "--n-shuffles", str(self.n_shuffles)]
        else:
            argv += ["--window", str(self.window), "--step", str(self.step),
                     "--n-shuffles", str(self.n_shuffles)]
        return argv

    @property
    def suffix(self) -> str:
        return ".csv" if self.command == "rolling" else ".json"


@dataclass(frozen=True)
class Workload:
    name: str
    n_returns: int
    hurst: float
    threads: int
    calls: tuple[Call, ...]

    @property
    def estimates(self) -> int:
        """H estimates per pass: each original series plus its shuffles."""
        total = 0
        for call in self.calls:
            if call.command == "test":
                segments = len(SUBSERIES_CUTS[call.subseries]) + 1
                total += segments * (call.n_shuffles + 1)
            else:
                windows = (self.n_returns - call.window) // call.step + 1
                total += windows * (call.n_shuffles + 1)
        return total


def _rolling_step(n_returns: int, window: int, windows: int) -> int:
    return (n_returns - window) // (windows - 1)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """Every workload; ``smoke`` shrinks each to a size that runs in seconds."""
    step = _rolling_step(WTI_RETURNS, ROLLING_WINDOW, ROLLING_WINDOWS)
    wls = [
        Workload(
            "test-dfa", WTI_RETURNS, 0.5, 1,
            (Call("test", "dfa", "1", n_shuffles=512),),
        ),
        Workload(
            "test-cdma-split", WTI_RETURNS, 0.5, 2,
            # 8 chunks of 256 replicates per segment, so that the two workers
            # stay balanced when the host takes CPU time from one of them
            (Call("test", "dma", "0.5", n_shuffles=2048, subseries="gulf-iraq",
                  range_policy="auto"),),
        ),
        Workload(
            "rolling-dfa", WTI_RETURNS, 0.5, 2,
            (Call("rolling", "dfa", "1", n_shuffles=500, window=ROLLING_WINDOW,
                  step=step),),
        ),
    ]
    if smoke:
        wls = [_shrink(wl) for wl in wls]
    return {wl.name: wl for wl in wls}


def _shrink(wl: Workload) -> Workload:
    # the gulf-iraq cuts need the series to run past 2003-03-20
    n = {"test-cdma-split": 5200, "rolling-dfa": 1100}.get(wl.name, 2000)
    calls = tuple(
        replace(c, n_shuffles=16 if c.n_shuffles else 0,
                step=_rolling_step(n, c.window, 2) if c.step else 0)
        for c in wl.calls
    )
    return replace(wl, n_returns=n, calls=calls)
