"""Spans around wfetest's public functions, installed from outside the program.

``Tracer.install`` replaces every public function of every loaded
``wfetest`` module, wherever a module looks it up, and every public
method on the classes wfetest defines (``Estimator.fluctuation_matrix``
and so on) with a wrapper that records a span: name, layer (the
defining module), start, end, parent and a few counts.  Process pools
the program creates get a ``fanout`` span from creation to shutdown
that records when each task started in its worker.  Spans stay in
memory until the caller reads them.
"""

from __future__ import annotations

import inspect
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np

# counts recorded at the boundary, as {span name: f(bound arguments, result)}
_COUNTS = {
    "load_prices": lambda a, r: {"rows": len(r.series) + r.dropped},
    "dfa_fluctuation_matrix": lambda a, r: {"cells": r.size, "scales": tuple(map(int, a["scales"]))},
    "dma_fluctuation_matrix": lambda a, r: {"cells": r.size, "scales": tuple(map(int, a["scales"]))},
    "shuffle_exponents": lambda a, r: {"s_range": tuple(map(int, a["s_range"]))},
    "efficiency_test": lambda a, r: {"replicates": r.n_replicates, "redraws": r.n_redraws},
}

PACKAGE = "wfetest"
NAME, LAYER, START, END, PARENT, COUNTS = range(6)


def _stamped(fn, *args, **kwargs):
    """Run a pool task in its worker; return when it started, and its result."""
    started = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    return started, fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.remove(idx)

    def _wrap(self, fn, name: str, layer: str):
        counts = _COUNTS.get(fn.__name__)
        sig = inspect.signature(fn) if counts else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counts:
                tracer.spans[idx][COUNTS] = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                self._span = tracer.begin("ProcessPoolExecutor", "fanout")
                tracer.spans[self._span][COUNTS] = {"task_starts": []}
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                inner = super().submit(_stamped, fn, *args, **kwargs)
                outer = Future()
                span = tracer.spans[self._span]

                def relay(done):
                    if outer.cancelled():
                        return
                    try:
                        started, result = done.result()
                    except BaseException as exc:
                        outer.set_exception(exc)
                        return
                    span[COUNTS]["task_starts"].append(started)
                    outer.set_result(result)

                inner.add_done_callback(relay)
                return outer

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.end(self._span)
                        self._span = None

        return TracedPool

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pool = self._traced_pool()
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if obj is ProcessPoolExecutor:
                    self._patch(mod, attr, pool)
                elif inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, obj.__name__, _layer(obj.__module__))
                    self._patch(mod, attr, wrapped[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, name, self._wrap(
                                member, f"{obj.__name__}.{name}", _layer(mod.__name__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def total(spans: list[list], name: str) -> float:
    """Summed duration of the spans with this name."""
    return float(sum(s[END] - s[START] for s in spans if s[NAME] == name))


def pool_startups(spans: list[list]) -> list[float]:
    """Per process pool, the time from its creation until its first task started in a worker.

    That covers starting the workers under the pool's context and
    initializer, and sending the first job.
    """
    return [min(s[COUNTS]["task_starts"]) - s[START]
            for s in spans if s[LAYER] == "fanout" and s[COUNTS]["task_starts"]]


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([s[END] - s[START] for s in spans])
    own = dur.copy()
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= dur[i]
    return own


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ten samples beyond it (the max below eleven samples)."""
    v = sorted(values)
    i = len(v) - 11 if len(v) > 10 else len(v) - 1
    return v[i], 100.0 * (i + 1) / len(v)


def layer_metrics(spans: list[list], wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and notes on how they were taken.

    A layer that a run does not exercise reports 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def count(name: str, key: str) -> int:
        return sum(spans[i][COUNTS][key] for i in by_name.get(name, ()))

    def ensemble_range(i: int):
        while i >= 0:
            if spans[i][NAME] == "shuffle_exponents":
                return spans[i][COUNTS]["s_range"]
            i = spans[i][PARENT]
        return None

    m: dict[str, float] = {}
    layers = sorted({s[LAYER] for s in spans})
    for layer in layers:
        m[f"{layer}.self_s"] = float(sum(own[i] for i, s in enumerate(spans) if s[LAYER] == layer))
    for layer in ("cli", "timeseries", "detrend", "scaling", "shuffletest", "rolling"):
        m.setdefault(f"{layer}.self_s", 0.0)

    computed = useful = 0
    for kind in ("dfa", "dma"):
        name = f"{kind}_fluctuation_matrix"
        seconds, cells = total(spans, name), count(name, "cells")
        m[f"detrend.{kind}_s"] = seconds
        m[f"detrend.{kind}_row_scales_per_s"] = cells / seconds if seconds else 0.0
        for i in by_name.get(name, ()):
            s_range = ensemble_range(spans[i][PARENT])
            if s_range:
                span_cells, scales = spans[i][COUNTS]["cells"], spans[i][COUNTS]["scales"]
                computed += span_cells
                useful += span_cells // len(scales) * sum(s_range[0] <= s <= s_range[1] for s in scales)
    m["detrend.useful_scale_ratio"] = useful / computed if computed else 0.0

    load = total(spans, "load_prices")
    m["timeseries.load_prices_s"] = load
    m["timeseries.rows_per_s"] = count("load_prices", "rows") / load if load else 0.0
    m["timeseries.log_returns_s"] = total(spans, "log_returns")
    m["scaling.detect_range_s"] = total(spans, "detect_scaling_range")
    m["scaling.fit_s"] = total(spans, "fit_power_law")
    m["scaling.slopes_s"] = total(spans, "slopes_in_range")
    m["shuffletest.replicates"] = count("efficiency_test", "replicates")
    m["shuffletest.redraws"] = count("efficiency_test", "redraws")

    windows = [spans[i][END] - spans[i][START] for i in by_name.get("window_result", ())]
    tail, pct = _tail(windows) if windows else (0.0, 0.0)
    m["rolling.window_s_p50"] = float(np.median(windows)) if windows else 0.0
    m["rolling.window_s_tail"] = tail

    covered = float(sum(own))
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = wall - covered
    m["trace.spans"] = len(spans)
    notes = {"layers": layers, "windows": len(windows), "window_tail_percentile": pct,
             "coverage": covered / wall if wall else 0.0}
    return m, notes
