"""Regression gate on recorded CLI artifacts.

Each case reruns one CLI command on the sample price file and compares
its artifact with the copy recorded under ``tests/golden/``.  Everything
that is not a float literal (schema, config keys, scales, dates, integer
fields, flags, verdicts) must match exactly; each float must agree to
1e-12 relative, so reordered floating-point sums pass but a changed
range, flag, p-value or replicate count does not.

To re-record after an intended change, run the command from the repo
root with ``-o tests/golden/<name>``.
"""

import math
import re

import pytest

from conftest import REPO_ROOT
from wfetest.cli import main

GOLDEN = REPO_ROOT / "tests" / "golden"
INPUT = "data/sample_synthetic_prices.csv"
REL_TOL = 1e-12

_FLOAT = re.compile(r"(-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+)")

CASES = {
    "analyze_dfa.csv": ["analyze"],
    "analyze_dma_auto.json": [
        "analyze", "--method", "dma", "--theta", "0.5", "--range", "auto",
        "--format", "json",
    ],
    "test_dma_cut.json": [
        "test", "--method", "dma", "--theta", "0", "--cuts", "2003-03-20",
        "--n-shuffles", "600",
    ],
    "rolling_dfa.csv": ["rolling", "--window", "500", "--step", "97"],
    "test_cdma_auto_cuts.json": [
        "test", "--method", "dma", "--theta", "0.5", "--range", "auto",
        "--cuts", "2002-01-02,2004-06-01", "--n-shuffles", "600",
    ],
    # every shuffled H_s, not only the statistics drawn from them
    "test_dfa_auto_ensemble.json": [
        "test", "--range", "auto", "--cuts", "2002-01-02", "--n-shuffles", "200",
        "--include-ensemble",
    ],
}


def assert_artifacts_match(got: str, want: str) -> None:
    """Non-float text equal; floats equal to REL_TOL relative."""
    g, w = _FLOAT.split(got), _FLOAT.split(want)
    assert len(g) == len(w), "artifacts differ in their number of floats"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:
            assert a == b, f"text differs: {a!r} != {b!r}"
        else:
            assert math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0), (
                f"float {a} differs from recorded {b} by more than {REL_TOL:g}"
            )


class TestComparison:
    def test_float_moves_within_tolerance_pass(self):
        assert_artifacts_match("H,0.5000000000000001,10\n", "H,0.5,10\n")

    @pytest.mark.parametrize(
        "got",
        [
            "H,0.5000001,10\n",  # float beyond tolerance
            "H,0.5,11\n",  # integer field
            "H,0.5,10,inside\n",  # extra text
            "H,0.5,0.5\n",  # integer became a float
        ],
    )
    def test_other_changes_fail(self, got):
        with pytest.raises(AssertionError):
            assert_artifacts_match(got, "H,0.5,10\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_recorded(name, tmp_path, monkeypatch, capsys):
    # the artifact echoes the input path, so run from the root as recorded
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / name
    assert main([*CASES[name], "-i", INPUT, "-o", str(out)]) == 0
    capsys.readouterr()
    assert_artifacts_match(
        out.read_text(encoding="utf-8"),
        (GOLDEN / name).read_text(encoding="utf-8"),
    )
