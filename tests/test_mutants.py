"""The mutant catalogue stays applicable: every old text occurs exactly once.

Only the catalogue rule is checked here; running the mutants takes
minutes and is done by ``python3 mutants/run.py``.
"""

import importlib.util

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
