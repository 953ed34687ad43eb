import os
from pathlib import Path

import numpy as np

import wfetest
from wfetest.scaling import estimate
from wfetest.shuffletest import efficiency_test

REPO_ROOT = Path(__file__).resolve().parent.parent
# the directory holding the wfetest package this suite imported
IMPORTED_ROOT = Path(wfetest.__file__).resolve().parent.parent
SAMPLE_PRICES = REPO_ROOT / "data" / "sample_synthetic_prices.csv"

WTI_SKIP_REASON = (
    "WTI daily futures file not provided: place it at data/wti_daily_futures.csv "
    "or set WFETEST_WTI_CSV (see data/README.md); the real-data criteria "
    "cannot run without it"
)


def wti_csv_path() -> Path | None:
    env = os.environ.get("WFETEST_WTI_CSV")
    if env and Path(env).exists():
        return Path(env)
    vendored = REPO_ROOT / "data" / "wti_daily_futures.csv"
    if vendored.exists():
        return vendored
    return None


def day_range(n: int, start: str = "1990-01-03") -> np.ndarray:
    first = np.datetime64(start, "D")
    return np.arange(first, first + n)


def shuffle_test(r, est, range_policy="full", **kwargs):
    """``efficiency_test`` of ``r`` on the fit ``estimate(r, est, range_policy)`` returns."""
    return efficiency_test(r, est, estimate(r, est, range_policy)[2], **kwargs)


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
