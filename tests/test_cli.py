import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wfetest
from conftest import REPO_ROOT, SAMPLE_PRICES
from wfetest import cli, shuffletest
from wfetest.cli import SUBSERIES_CUTS, main
from wfetest.detrend import Estimator
from wfetest.timeseries import GULF_WAR, IRAQ_WAR, NAFTA

# the directory holding the wfetest package this suite imported
IMPORTED_ROOT = Path(wfetest.__file__).resolve().parent.parent


def run(*args):
    return main([str(a) for a in args])


def synth_prices(tmp_path, name="prices.csv", n=900, hurst=0.5, seed=9):
    path = tmp_path / name
    code = run(
        "synth", "--hurst", hurst, "--n", n, "--sigma", 0.02,
        "--seed", seed, "--prices", "-o", path,
    )
    assert code == 0
    return path


class TestSynthCommand:
    def test_values_artifact(self, tmp_path):
        out = tmp_path / "vals.csv"
        assert run("synth", "--hurst", 0.6, "--n", 50, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: wfetest/synthetic-series/v1"
        assert lines[3] == "value"
        values = [float(v) for v in lines[4:]]
        assert len(values) == 50

    def test_price_artifact_loads_back(self, tmp_path):
        path = synth_prices(tmp_path, n=60)
        lines = path.read_text().splitlines()
        assert lines[3] == "date,price"
        assert len(lines) == 4 + 61

    def test_config_echoed(self, tmp_path):
        path = synth_prices(tmp_path, n=30, seed=123)
        config_line = path.read_text().splitlines()[2]
        assert config_line.startswith("# config: ")
        config = json.loads(config_line[len("# config: "):])
        assert config["seed"] == 123 and config["hurst"] == 0.5
        assert "output" not in config and "threads" not in config

    def test_bad_hurst_fails_without_artifact(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("synth", "--hurst", 1.5, "-o", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_nonfinite_sigma_fails_without_artifact(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        assert run("synth", "--hurst", 0.5, "--sigma", sigma, "-o", out) == 1
        assert "error: sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_without_artifact(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("synth", "--hurst", 0.5, "--seed", -1, "-o", out) == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
    def test_out_of_memory_fails_without_artifact(
        self, tmp_path, capsys, monkeypatch, message
    ):
        # a huge --n: the generator's allocation fails before any output
        def exhausted(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_fgn", exhausted)
        out = tmp_path / "x.csv"
        assert run("synth", "--hurst", 0.5, "--n", 10**12, "-o", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n"
        assert not out.exists()


class TestAnalyzeCommand:
    def test_json_artifact_recovers_h(self, tmp_path, capsys):
        prices = synth_prices(tmp_path, n=2000)
        out = tmp_path / "analysis.json"
        code = run(
            "analyze", "-i", prices, "--method", "dfa",
            "--format", "json", "-o", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "wfetest/fluctuation/v1"
        assert doc["method"] == "DFA"
        assert 0.45 <= doc["fit"]["H"] <= 0.55
        assert doc["relations"]["eta"] == 2 * doc["fit"]["H"] - 1
        assert len(doc["scales"]) == len(doc["f"])
        assert "H = " in capsys.readouterr().out

    def test_csv_artifact_structure(self, tmp_path):
        prices = synth_prices(tmp_path, n=800)
        out = tmp_path / "analysis.csv"
        assert run("analyze", "-i", prices, "--method", "dma",
                   "--theta", 0.5, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: wfetest/fluctuation/v1"
        fit_line = next(l for l in lines if l.startswith("# fit: "))
        fit = json.loads(fit_line[len("# fit: "):])
        assert set(fit) == {"H", "stderr", "s_lo", "s_hi", "rss", "n_points"}
        header_at = lines.index("s,F")
        rows = lines[header_at + 1 :]
        assert len(rows) == fit["n_points"]  # full-range fit spans the grid
        s, f = rows[0].split(",")
        assert int(s) >= 10 and float(f) > 0

    def test_auto_range_uses_fifteen_points(self, tmp_path):
        prices = synth_prices(tmp_path, n=1500)
        out = tmp_path / "a.json"
        assert run("analyze", "-i", prices, "--range", "auto",
                   "--format", "json", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["fit"]["n_points"] == 15

    def test_huge_density_gives_every_integer_scale(self, tmp_path):
        prices = synth_prices(tmp_path, n=600)
        out = tmp_path / "a.json"
        assert run("analyze", "-i", prices, "--points-per-decade", 10**12,
                   "--format", "json", "-o", out) == 0
        assert json.loads(out.read_text())["scales"] == list(range(10, 61))

    def test_three_point_file_fails(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1990-01-02,10.0\n1990-01-03,10.5\n1990-01-04,10.2\n")
        out = tmp_path / "a.csv"
        assert run("analyze", "-i", path, "-o", out) == 1
        assert not out.exists()

    def test_missing_input_fails(self, tmp_path, capsys):
        assert run("analyze", "-i", tmp_path / "nope.csv",
                   "-o", tmp_path / "a.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_input_fails_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,price\n2020-01-01,10\n2020-01-02,\xff11\n")
        assert run("analyze", "-i", path, "-o", tmp_path / "a.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input is not UTF-8 text")
        assert "Traceback" not in err

    def test_forced_wrong_date_format_fails(self, tmp_path):
        prices = synth_prices(tmp_path, n=400)
        assert run("analyze", "-i", prices, "--date-format", "us",
                   "-o", tmp_path / "a.csv") == 1

    def test_unwritable_output_fails_cleanly(self, tmp_path):
        prices = synth_prices(tmp_path, n=400)
        missing_dir = tmp_path / "no" / "such" / "dir"
        assert run("analyze", "-i", prices, "-o", missing_dir / "a.csv") == 1
        assert not missing_dir.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_threads_option_rejected(self, tmp_path, capsys):
        # analyze runs no shuffles, so it has no workers to cap
        prices = synth_prices(tmp_path, n=400)
        with pytest.raises(SystemExit) as exc:
            run("analyze", "-i", prices, "--threads", 2, "-o", tmp_path / "a.csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


class TestTestCommand:
    def test_single_shuffle_p_degenerate(self, tmp_path):
        prices = synth_prices(tmp_path, n=600)
        out = tmp_path / "t.json"
        assert run("test", "-i", prices, "--n-shuffles", 1, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["segments"][0]["result"]["p"] in (0.0, 1.0)

    def test_runs_are_byte_identical(self, tmp_path, monkeypatch):
        # 600 shuffles of 700 returns are three jobs of up to 256, so the
        # --threads 2 run sends them to a real process pool
        submitted = []

        class RecordingPool(shuffletest.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.size = max_workers

            def submit(self, fn, /, *args, **kwargs):
                submitted.append(self.size)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(shuffletest, "ProcessPoolExecutor", RecordingPool)
        prices = synth_prices(tmp_path, n=700)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("test", "-i", prices, "--n-shuffles", 600,
                   "--seed", 42, "-o", a) == 0
        assert submitted == []
        assert run("test", "-i", prices, "--n-shuffles", 600,
                   "--seed", 42, "--threads", 2, "-o", b) == 0
        assert submitted == [2, 2, 2]
        assert a.read_bytes() == b.read_bytes()

    def test_custom_cuts_make_segments(self, tmp_path, capsys):
        prices = synth_prices(tmp_path, n=900)  # spans 2000-01..2002-06
        out = tmp_path / "t.json"
        code = run(
            "test", "-i", prices, "--n-shuffles", 50,
            "--cuts", "2000-10-01,2001-08-01", "-o", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["segments"]) == 3
        starts = [seg["start"] for seg in doc["segments"]]
        assert starts[1] == "2000-10-01"
        total = sum(seg["n_returns"] for seg in doc["segments"])
        assert total == 900 - 2  # each later segment loses one return
        assert capsys.readouterr().out.count("null") == 3

    @pytest.mark.parametrize("method", ["dfa", "dma"])
    def test_one_pool_for_all_segments_keeps_bytes(self, tmp_path, method):
        # two jobs per segment: --threads 2 runs them on one shared pool
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.json"
            assert run("test", "-i", SAMPLE_PRICES, "--method", method, "--theta", 0.5,
                       "--range", "auto", "--cuts", "2002-01-02,2004-01-02",
                       "--n-shuffles", 300, "--include-ensemble",
                       "--threads", threads, "-o", out) == 0
            outs.append(out.read_bytes())
        assert len(json.loads(outs[0])["segments"]) == 3
        assert outs[0] == outs[1]

    def test_short_segment_fails_before_any_shuffle(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(shuffletest, "_shuffled_slopes", lambda *a: calls.append(a))
        out = tmp_path / "t.json"
        assert run("test", "-i", SAMPLE_PRICES, "--cuts", "2001-01-02,2006-09-01",
                   "--n-shuffles", 20, "-o", out) == 1
        assert capsys.readouterr().err.startswith(
            "error: 2006-09-01..2006-11-07: series of length 67 supports 0 scales")
        assert calls == []
        assert not out.exists()

    def test_preset_cut_dates(self):
        assert SUBSERIES_CUTS["whole"] == ()
        assert SUBSERIES_CUTS["gulf-iraq"] == (GULF_WAR, IRAQ_WAR)
        assert SUBSERIES_CUTS["nafta"] == (NAFTA,)
        assert GULF_WAR == np.datetime64("1990-08-02")
        assert IRAQ_WAR == np.datetime64("2003-03-20")
        assert NAFTA == np.datetime64("1994-01-01")

    def test_preset_outside_span_fails(self, tmp_path):
        prices = synth_prices(tmp_path, n=500)  # all after 2000
        assert run("test", "-i", prices, "--subseries", "nafta",
                   "--n-shuffles", 10, "-o", tmp_path / "t.json") == 1

    def test_malformed_cuts_fail(self, tmp_path, capsys):
        prices = synth_prices(tmp_path, n=500)
        assert run("test", "-i", prices, "--cuts", "not-a-date",
                   "--n-shuffles", 10, "-o", tmp_path / "t.json") == 1
        for cuts in ("", "2000-10-01,"):
            assert run("test", "-i", prices, "--cuts", cuts,
                       "--n-shuffles", 10, "-o", tmp_path / "t.json") == 1
            assert "is empty or not a date" in capsys.readouterr().err
        assert run("test", "-i", prices, "--cuts", "2000-13-01",
                   "--n-shuffles", 10, "-o", tmp_path / "t.json") == 1
        assert capsys.readouterr().err.startswith("error: cut date 1 of 1")

    @pytest.mark.parametrize("command", [["test"], ["rolling", "--window", 300]])
    def test_nonpositive_threads_fail(self, tmp_path, capsys, monkeypatch, command):
        prices = synth_prices(tmp_path, n=500)
        capsys.readouterr()
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix",
                            lambda *a: computed.append(a))
        for threads in (0, -3):
            assert run(*command, "-i", prices, "--threads", threads,
                       "--n-shuffles", 10, "-o", tmp_path / "t.json") == 1
            assert "error: worker count must be >= 1" in capsys.readouterr().err
        assert computed == []
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [("--seed", -1, "seed must be >= 0, got -1"),
         ("--n-shuffles", 0, "n_shuffles must be >= 1, got 0")],
        ids=["seed", "n-shuffles"],
    )
    def test_bad_shuffle_option_fails_before_estimation(
        self, tmp_path, capsys, monkeypatch, option, value, message
    ):
        prices = synth_prices(tmp_path, n=500)
        capsys.readouterr()
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix",
                            lambda *a: computed.append(a))
        out = tmp_path / "t.json"
        args = {"--seed": 7, "--n-shuffles": 10, option: value}
        assert run("test", "-i", prices, *[a for kv in args.items() for a in kv],
                   "-o", out) == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert computed == []
        assert not out.exists()

    def test_include_ensemble(self, tmp_path):
        prices = synth_prices(tmp_path, n=500)
        out = tmp_path / "t.json"
        assert run("test", "-i", prices, "--n-shuffles", 40,
                   "--include-ensemble", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["segments"][0]["result"]["ensemble"]) == 40

    def test_dropped_rows_noted(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        rows = ["date,price"]
        day = np.datetime64("1995-01-02")
        for i in range(300):
            rows.append(f"{day + i},{100 + 0.1 * ((i * 7) % 13)}")
        rows[5] = rows[5].rsplit(",", 1)[0] + ","
        path.write_text("\n".join(rows) + "\n")
        assert run("test", "-i", path, "--n-shuffles", 10,
                   "-o", tmp_path / "t.json") == 0
        assert "dropped 1 rows" in capsys.readouterr().err


class TestRollingCommand:
    def test_csv_artifact(self, tmp_path):
        prices = synth_prices(tmp_path, n=700)
        out = tmp_path / "roll.csv"
        code = run(
            "rolling", "-i", prices, "--window", 250, "--step", 150,
            "--n-shuffles", 30, "-o", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: wfetest/rolling-windows/v1"
        assert lines[3] == "end_date,H,q025,q975,flag,s_lo,s_hi"
        rows = lines[4:]
        assert len(rows) == (700 - 250) // 150 + 1
        fields = rows[0].split(",")
        np.datetime64(fields[0])  # parseable date
        assert fields[4] in ("below", "inside", "above")

    def test_thread_count_invisible_in_bytes(self, tmp_path):
        prices = synth_prices(tmp_path, n=600)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("rolling", "-i", prices, "--window", 250, "--step", 120,
                   "--n-shuffles", 40, "-o", a) == 0
        assert run("rolling", "-i", prices, "--window", 250, "--step", 120,
                   "--n-shuffles", 40, "--threads", 3, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_window_fails(self, tmp_path):
        prices = synth_prices(tmp_path, n=400)
        out = tmp_path / "roll.csv"
        assert run("rolling", "-i", prices, "--window", 100000, "-o", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "option,value,message",
        [("--seed", -1, "seed must be >= 0, got -1"),
         ("--n-shuffles", 0, "n_shuffles must be >= 1, got 0")],
        ids=["seed", "n-shuffles"],
    )
    def test_bad_shuffle_option_fails_before_estimation(
        self, tmp_path, capsys, monkeypatch, threads, option, value, message
    ):
        prices = synth_prices(tmp_path, n=600)
        capsys.readouterr()
        computed, pools = [], []
        monkeypatch.setattr(Estimator, "fluctuation_matrix",
                            lambda *a: computed.append(a))
        monkeypatch.setattr(shuffletest, "ProcessPoolExecutor",
                            lambda *a, **kw: pools.append(a))
        out = tmp_path / "roll.csv"
        args = {"--seed": 7, "--n-shuffles": 10, option: value}
        assert run("rolling", "-i", prices, "--window", 250, "--step", 150,
                   *[a for kv in args.items() for a in kv],
                   "--threads", threads, "-o", out) == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert computed == [] and pools == []
        assert not out.exists()


def child_env(bin_dir: Path | None = None) -> dict[str, str]:
    """Environment for a child that must import the same wfetest as this suite.

    The imported tree goes first on PYTHONPATH, so an exported PYTHONPATH
    or an installed copy cannot shadow it; ``bin_dir`` goes first on PATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(IMPORTED_ROOT), env.get("PYTHONPATH")])
    )
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def write_launcher(bin_dir: Path, target: str) -> None:
    """Write the ``wfetest`` launcher pip makes for a ``module:attr`` target."""
    module, _, attr = target.partition(":")
    assert module and attr, f"entry point {target!r} is not 'module:attr'"
    script = bin_dir / "wfetest"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)


class TestEntryPoint:
    def test_console_script_version(self, tmp_path):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "wfetest" in scripts, "no wfetest entry in [project.scripts]"
        write_launcher(tmp_path, scripts["wfetest"])
        proc = subprocess.run(
            ["wfetest", "--version"], capture_output=True, text=True,
            env=child_env(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "wfetest 0.1.0" in proc.stdout, proc.stderr

    def test_module_requires_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wfetest.cli"], capture_output=True, text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
