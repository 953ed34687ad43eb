"""The mutant catalogue stays applicable: every old text occurs exactly once.

Only the catalogue rule and the runner's ``--jobs`` handling, with a
stubbed ``run_mutant``, are checked here; running the mutants takes
minutes and is done by ``python3 mutants/run.py``.
"""

import importlib.util
import json
import threading
import time

import pytest

from conftest import REPO_ROOT


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutant_catalogue", REPO_ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    catalogue = load_catalogue()
    assert catalogue.MUTANTS
    assert catalogue.check_catalogue() == []


def test_missing_or_repeated_old_text_is_reported(tmp_path):
    catalogue = load_catalogue()
    (tmp_path / "a.py").write_text("x = 1\nx = 1\ny = 2\n")
    mutants = [
        catalogue.Mutant("twice", "a.py", "x = 1", "x = 0"),
        catalogue.Mutant("absent", "a.py", "z = 3", "z = 0"),
        catalogue.Mutant("once", "a.py", "y = 2", "y = 0"),
        catalogue.Mutant("once", "b.py", "y = 2", "y = 0"),
    ]
    assert catalogue.check_catalogue(tmp_path, mutants) == [
        "once: the name is used more than once",
        "twice: old text occurs 2 times in a.py",
        "absent: old text occurs 0 times in a.py",
        "once: b.py does not exist",
    ]


@pytest.mark.parametrize("jobs", [1, 3])
def test_results_are_in_catalogue_order(monkeypatch, tmp_path, jobs):
    catalogue = load_catalogue()
    mutants = [catalogue.Mutant(f"m{i}", "a.py", "x", "y") for i in range(6)]
    running, overlapped = set(), []
    lock = threading.Lock()
    # the first ``jobs`` mutants wait for each other, so they must run at once
    together = threading.Barrier(jobs, timeout=10)

    def stub_run(m):
        with lock:
            running.add(m.name)
            overlapped.append(len(running))
        if int(m.name[1:]) < jobs:
            together.wait()
        # later mutants finish first
        time.sleep(0.02 * (len(mutants) - int(m.name[1:])))
        with lock:
            running.discard(m.name)
        return {"file": m.file, "status": "caught", "first_failure": m.name, "seconds": 0.0}

    monkeypatch.setattr(catalogue, "MUTANTS", mutants)
    monkeypatch.setattr(catalogue, "check_catalogue", lambda root, found: [])
    monkeypatch.setattr(catalogue, "run_mutant", stub_run)
    out = tmp_path / "record.json"
    assert catalogue.main(["--jobs", str(jobs), "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["mutants"]) == [m.name for m in mutants]
    assert [r["first_failure"] for r in record["mutants"].values()] == [m.name for m in mutants]
    assert record["jobs"] == jobs and record["counts"]["caught"] == len(mutants)
    assert max(overlapped) == jobs


@pytest.mark.parametrize("value, message", [("0", "must be >= 1, got 0"),
                                            ("-2", "must be >= 1, got -2"),
                                            ("two", "invalid int value: 'two'")])
def test_jobs_must_be_a_positive_integer(monkeypatch, capsys, value, message):
    catalogue = load_catalogue()
    ran = []
    monkeypatch.setattr(catalogue, "run_mutant", ran.append)
    with pytest.raises(SystemExit) as exit_info:
        catalogue.main(["--jobs", value])
    assert exit_info.value.code == 2
    assert f"argument --jobs: {message}" in capsys.readouterr().err
    assert ran == []
