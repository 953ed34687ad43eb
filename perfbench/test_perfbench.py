"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
from workloads import Call

HERE = Path(__file__).resolve().parent


def test_smoke_reports_every_metric_with_its_unit():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().endswith("smoke: ok")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "test-dfa", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_check_passes_last_bit_changes_and_catches_wrong_answers():
    rng = np.random.default_rng(0)
    dates = np.busday_offset("1985-01-02", np.arange(1201), roll="forward")
    prices = 100.0 * np.exp(np.cumsum(np.r_[0.0, 0.02 * rng.standard_normal(1200)]))
    call = Call("test", "dfa", "1", n_shuffles=50)
    want = oracle.expected(call, dates, prices, seed=3)
    seg = want["segments"][0]
    result = {k: seg[k] for k in ("H", "mean_Hs", "q025", "q975", "p", "s_lo", "s_hi")}
    result.update(n_replicates=50, rejected_at_1pct=seg["p"] < 0.01)
    doc = {"segments": [{"start": seg["start"], "end": seg["end"],
                         "n_returns": seg["n_returns"], "result": result}]}

    def problems(key, delta):
        changed = json.loads(json.dumps(doc))
        changed["segments"][0]["result"][key] += delta
        return oracle.check(call, json.dumps(changed), want)

    assert oracle.check(call, json.dumps(doc), want) == []
    assert problems("H", 1e-13) == []
    assert problems("p", 1 / 50) == []
    assert problems("H", 1e-8)
    assert problems("p", 3 / 50)
    assert problems("s_hi", 1)
