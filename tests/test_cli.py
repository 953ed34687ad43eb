import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_ROOT, SAMPLE_PRICES, child_env, day_range
from wfetest import cli, scaling, shuffletest
from wfetest.cli import SUBSERIES_CUTS, main
from wfetest.detrend import Estimator
from wfetest.timeseries import GULF_WAR, IRAQ_WAR, NAFTA, load_prices


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


def quick_run_options(command, prices):
    """Options, without ``-o``, of a short run of ``command`` on ``prices``."""
    return {
        "analyze": ["-i", prices],
        "test": ["-i", prices, "--n-shuffles", 10],
        "rolling": ["-i", prices, "--window", 250, "--n-shuffles", 10],
        "synth": ["--hurst", 0.5],
    }[command]


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

    @pytest.mark.parametrize("command", ["analyze", "test", "rolling", "synth"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys, monkeypatch, command, where):
        # the output location is checked before any estimate or draw
        prices = synth_prices(tmp_path, n=400)
        capsys.readouterr()
        computed = []
        monkeypatch.setattr(Estimator, "fluctuation_matrix", lambda *a: computed.append(a))
        monkeypatch.setattr(cli, "generate_fgn", lambda *a: computed.append(a))
        out = tmp_path / "t.json"
        if where == "missing-dir":
            out = tmp_path / "no" / "such" / "dir" / "t.json"
        else:
            out.mkdir()
        options = quick_run_options(command, prices)
        assert run(command, *options, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and f"'{out}'" in err and ".tmp." not in err
        assert computed == []
        assert not (tmp_path / "no").exists()
        assert not list(tmp_path.rglob("*.tmp.*"))

    @pytest.mark.parametrize("command", ["analyze", "test", "rolling", "synth"])
    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys, monkeypatch, command):
        # the temporary file exists by then, so only the cleanup removes it
        prices = synth_prices(tmp_path, n=400)
        capsys.readouterr()

        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "t.json"
        options = quick_run_options(command, prices)
        assert run(command, *options, "-o", out) == 1
        err = capsys.readouterr().err.splitlines()[-1]  # after rolling's progress
        assert err.startswith(f"error: [Errno {errno.EXDEV}] ")
        assert f"'{out}'" in err and ".tmp." not in err
        assert not list(tmp_path.rglob("*.tmp.*"))
        assert not out.exists()

    @pytest.mark.parametrize("command, options, message", [
        *(pytest.param(command, options, message, id=f"{name}-{command}")
          for name, options, message in [
              ("order", ["--order", 0], "dfa order must be >= 1, got 0"),
              ("theta", ["--method", "dma", "--theta", 2],
               "theta must be in [0, 1], got 2.0"),
          ]
          for command in ("analyze", "test", "rolling")),
        # every run option is checked before the input too
        pytest.param("rolling", ["--step", 0], "step must be >= 1, got 0", id="step-rolling"),
        pytest.param("rolling", ["--window", 5],
                     "window_size 5 too small: series of length 5 supports 0 scales "
                     "in [10, 0]; need at least 16", id="window-rolling"),
        pytest.param("rolling", ["--n-shuffles", 0], "n_shuffles must be >= 1, got 0",
                     id="n-shuffles-rolling"),
        pytest.param("rolling", ["--seed", -1], "seed must be >= 0, got -1", id="seed-rolling"),
        pytest.param("rolling", ["--threads", 0], "worker count must be >= 1, got 0",
                     id="threads-rolling"),
        pytest.param("test", ["--threads", 0], "worker count must be >= 1, got 0",
                     id="threads-test"),
    ])
    def test_bad_estimator_fails_before_the_input_is_read(
        self, tmp_path, capsys, monkeypatch, command, options, message
    ):
        prices = synth_prices(tmp_path, n=400)
        capsys.readouterr()
        loads = []
        monkeypatch.setattr(cli, "load_prices",
                            lambda path: loads.append(path) or load_prices(path))
        extra = {"analyze": [], "test": ["--n-shuffles", 10],
                 "rolling": ["--window", 250, "--step", 50, "--n-shuffles", 10]}[command]
        out = tmp_path / "out.txt"
        assert run(command, "-i", prices, *extra, *options, "-o", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []
        assert not out.exists()
        # the recorder sees the load of a run with good options
        assert run(command, "-i", prices, *extra, "-o", out) == 0
        assert loads == [str(prices)]

    def test_write_error_names_the_output(self, tmp_path):
        out = tmp_path / "gone" / "t.json"
        with pytest.raises(FileNotFoundError) as exc:
            cli._atomic_write(str(out), "x")
        assert exc.value.filename == str(out)
        assert ".tmp." not in str(exc.value)
        assert not (tmp_path / "gone").exists()

    @pytest.mark.parametrize("command, option, value", [
        # analyze runs no shuffles, so it has no workers to cap and draws nothing
        ("analyze", "--threads", "2"),
        ("analyze", "--seed", "2"),
        # the date format is read from the file
        ("analyze", "--date-format", "iso"),
        ("test", "--date-format", "iso"),
        ("rolling", "--date-format", "us"),
        # the scale grid follows from the series length
        ("analyze", "--points-per-decade", "20"),
        ("test", "--points-per-decade", "20"),
        # the fit window is the paper's 15 grid points
        ("analyze", "--window-len", "15"),
        ("test", "--window-len", "15"),
        ("rolling", "--window-len", "15"),
    ])
    def test_option_rejected(self, tmp_path, capsys, command, option, value):
        prices = synth_prices(tmp_path, n=400)
        with pytest.raises(SystemExit) as exc:
            run(command, "-i", prices, option, value, "-o", tmp_path / "a.csv")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "test"])
    @pytest.mark.parametrize("policy,points", [("full", 17), ("auto", 15)])
    def test_flat_prices_fail_with_one_message(
        self, tmp_path, capsys, command, policy, points
    ):
        # constant prices: every return, profile point and F is 0
        prices = tmp_path / "flat.csv"
        days = np.arange("2000-01-03", 600, dtype="datetime64[D]")
        prices.write_text("".join(f"{d},50.0\n" for d in days))
        out = tmp_path / "out.txt"
        extra = ["--n-shuffles", 10] if command == "test" else []
        assert run(command, "--range", policy, *extra, "-i", prices, "-o", out) == 1
        # test names the segment that failed
        label = f"{days[0]}..{days[-1]}: " if command == "test" else ""
        assert capsys.readouterr().err == (
            f"error: {label}F(s) is 0 or not finite in every window of {points} grid points\n"
        )
        assert not out.exists()


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

    def test_unfittable_segment_fails_before_any_shuffle(self, tmp_path, monkeypatch, capsys):
        # prices flat from the second cut on: the last segment has no fit,
        # and no earlier segment's ensemble is drawn
        days = day_range(900, "2000-01-03")
        walk = 100 * np.exp(np.cumsum(np.random.default_rng(6).normal(0, 0.01, 900)))
        walk[600:] = walk[600]
        prices = tmp_path / "prices.csv"
        prices.write_text("".join(f"{d},{float(p)!r}\n" for d, p in zip(days, walk)))
        calls = []
        monkeypatch.setattr(shuffletest, "_shuffled_slopes", lambda *a: calls.append(a))
        out = tmp_path / "t.json"
        assert run("test", "-i", prices, "--cuts", f"{days[300]},{days[600]}",
                   "--n-shuffles", 20, "-o", out) == 1
        assert capsys.readouterr().err == (
            f"error: {days[600]}..{days[-1]}: F(s) is 0 or not finite in every "
            "window of 20 grid points\n")
        assert calls == []
        assert not out.exists()

    def test_ensemble_error_names_its_segment(self, tmp_path, monkeypatch, capsys):
        # every shuffle of the second segment (300 returns) is degenerate,
        # so its redraws run out after the first segment's test
        def slopes(values, est, scales, base_seed, prefix, indices):
            return np.full(len(indices), np.nan if len(values) < 350 else 0.5)
        monkeypatch.setattr(shuffletest, "_shuffled_slopes", slopes)
        prices = synth_prices(tmp_path, n=700)  # 701 prices
        days = day_range(701, "2000-01-03")
        out = tmp_path / "t.json"
        assert run("test", "-i", prices, "--cuts", f"{days[400]}", "--n-shuffles", 20,
                   "-o", out) == 1
        assert capsys.readouterr().err == (
            f"error: {days[400]}..{days[-1]}: 1 replicate redraws exhausted the cap (1); "
            "series is degenerate for DFA\n")
        assert not out.exists()

    def test_every_segment_fitted_once(self, tmp_path, monkeypatch):
        fits = []
        fit_power_law = scaling.fit_power_law
        monkeypatch.setattr(scaling, "fit_power_law",
                            lambda *a: fits.append(a) or fit_power_law(*a))
        prices = synth_prices(tmp_path, n=900)  # spans 2000-01..2002-06
        assert run("test", "-i", prices, "--n-shuffles", 20,
                   "--cuts", "2000-10-01,2001-08-01", "-o", tmp_path / "t.json") == 0
        assert len(fits) == 3

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

    def test_cut_that_is_not_a_day_fails(self, tmp_path, capsys):
        # 1,000 daily prices from 1989-01-01: a cut on 1990-08-01 leaves
        # two testable segments, but the month 1990-08 is no cut date
        prices = tmp_path / "prices.csv"
        walk = 100 * np.exp(np.cumsum(np.random.default_rng(4).normal(0, 0.01, 1000)))
        rows = (f"{d},{float(p)!r}\n" for d, p in zip(day_range(1000, "1989-01-01"), walk))
        prices.write_text("date,price\n" + "".join(rows))
        out = tmp_path / "t.json"
        assert run("test", "-i", prices, "--cuts", "1990-08-01",
                   "--n-shuffles", 10, "-o", out) == 0
        out.unlink()
        capsys.readouterr()
        assert run("test", "-i", prices, "--cuts", "1990-08",
                   "--n-shuffles", 10, "-o", out) == 1
        assert capsys.readouterr().err == (
            "error: cut date 1 of 1 is empty or not a date: '1990-08'\n")
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["whole", "gulf-iraq", "nafta"])
    @pytest.mark.parametrize("preset_first", [True, False], ids=["preset-first", "cuts-first"])
    def test_preset_and_cuts_exclude_each_other(self, tmp_path, capsys, preset, preset_first):
        # in-process, the literal "whole" is the very object a default of
        # "whole" would be, and argparse takes an option holding its
        # default object for absent
        prices = synth_prices(tmp_path, n=500)
        out = tmp_path / "t.json"
        pair = [["--subseries", preset], ["--cuts", "2000-10-01"]]
        first, second = pair if preset_first else pair[::-1]
        with pytest.raises(SystemExit) as exc:
            main(["test", "-i", str(prices), *first, *second,
                  "--n-shuffles", "10", "-o", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_window_is_named(self, tmp_path, capsys, threads):
        # returns 300-598 are 0: the window of returns 300-549 has no fit,
        # and the progress line ends before the error
        days = day_range(700, "2000-01-03")
        walk = 100 * np.exp(np.cumsum(np.random.default_rng(7).normal(0, 0.01, 700)))
        walk[300:600] = walk[300]
        prices = tmp_path / "prices.csv"
        prices.write_text("".join(f"{d},{float(p)!r}\n" for d, p in zip(days, walk)))
        out = tmp_path / "roll.csv"
        assert run("rolling", "-i", prices, "--window", 250, "--step", 50,
                   "--n-shuffles", 20, "--threads", threads, "-o", out) == 1
        progress = "".join(f"\rwindow {k}/9" for k in range(1, 7))
        assert capsys.readouterr().err == (
            f"{progress}\nerror: {days[301]}..{days[550]}: F(s) is 0 or not finite "
            "in every window of 15 grid points\n")
        assert not out.exists()

    def test_every_window_fitted_once(self, tmp_path, monkeypatch):
        fits = []
        fit_power_law = scaling.fit_power_law
        monkeypatch.setattr(scaling, "fit_power_law",
                            lambda *a: fits.append(a) or fit_power_law(*a))
        prices = synth_prices(tmp_path, n=700)
        assert run("rolling", "-i", prices, "--window", 250, "--step", 150,
                   "--n-shuffles", 20, "-o", tmp_path / "roll.csv") == 0
        assert len(fits) == (700 - 250) // 150 + 1

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

    def test_short_window_fails_before_estimation(self, tmp_path, capsys, monkeypatch):
        # a window of 249 returns has 15 grid scales, one short of the
        # minimum; 600 prices would make two jobs for a pool of 2
        prices = synth_prices(tmp_path, n=600)
        capsys.readouterr()
        computed, pools = [], []
        monkeypatch.setattr(Estimator, "fluctuation_matrix",
                            lambda *a: computed.append(a))
        monkeypatch.setattr(shuffletest, "ProcessPoolExecutor",
                            lambda *a, **kw: pools.append(a))
        out = tmp_path / "roll.csv"
        assert run("rolling", "-i", prices, "--window", 249, "--step", 200,
                   "--n-shuffles", 10, "--threads", 2, "-o", out) == 1
        assert capsys.readouterr().err == (
            "error: window_size 249 too small: series of length 249 supports "
            "15 scales in [10, 24]; need at least 16\n"
        )
        assert computed == [] and pools == []
        assert not out.exists()


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


class TestParser:
    SHARED = {
        "--input": ("analyze", "test", "rolling"),
        "--method": ("analyze", "test", "rolling"),
        "--order": ("analyze", "test", "rolling"),
        "--theta": ("analyze", "test", "rolling"),
        "--range": ("analyze", "test"),
        "--output": ("analyze", "test", "rolling", "synth"),
        "--seed": ("test", "rolling", "synth"),
        "--threads": ("test", "rolling"),
    }

    def test_each_shared_option_declared_once(self):
        # one Action object serves every subcommand that takes the option,
        # so its default, type, choices and help cannot drift apart
        parser = cli.build_parser()
        subs = next(a for a in parser._actions if a.dest == "subcommand").choices
        for option, commands in self.SHARED.items():
            taken_by = {name for name, p in subs.items() if option in p._option_string_actions}
            assert taken_by == set(commands), option
            actions = {id(subs[name]._option_string_actions[option]) for name in commands}
            assert len(actions) == 1, option

    def test_every_subcommand_keeps_its_defaults(self):
        # a set_defaults on one subcommand for a shared option would change
        # the default of every subcommand that shares its Action
        series = {"input": "p.csv", "method": "dfa", "order": 1, "theta": 0.0}
        shuffles = {**series, "seed": 42, "threads": 1}
        expected = {
            "analyze": {**series, "range_policy": "full", "format": "csv"},
            "test": {**shuffles, "range_policy": "full", "n_shuffles": 10000,
                     "subseries": None, "cuts": None, "include_ensemble": False},
            "rolling": {**shuffles, "window": 1000, "step": 1, "n_shuffles": 1000},
            "synth": {"hurst": 0.5, "n": 4096, "sigma": 1.0, "prices": False, "seed": 42},
        }
        for name, values in expected.items():
            required = ["--hurst", "0.5"] if name == "synth" else ["-i", "p.csv"]
            args = vars(cli.build_parser().parse_args([name, *required, "-o", "a"]))
            assert args.pop("func").__name__ == f"cmd_{name}"
            assert args == {"subcommand": name, "output": "a", **values}
