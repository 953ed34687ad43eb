"""Write a workload's input price series, made from a seed by wfetest's fGn synthesizer.

Usage: python3 perfbench/inputs.py SEED N_RETURNS HURST OUTPUT_CSV

The returns are sigma * fGn(H) with sigma = 0.02; prices start at 100
and are dated on consecutive business days from 1985-01-02.  The same
seed always gives the same file.
"""

from __future__ import annotations

import sys

import numpy as np

START_DATE = "1985-01-02"
SIGMA = 0.02
P0 = 100.0


def write_prices(path: str, n_returns: int, hurst: float, seed: int) -> None:
    from wfetest import synth

    values = synth.generate_fgn(
        synth.FgnSpec(n=n_returns, hurst=hurst, sigma=SIGMA, seed=seed)
    )
    prices = P0 * np.exp(np.concatenate(([0.0], np.cumsum(values))))
    dates = np.busday_offset(START_DATE, np.arange(n_returns + 1), roll="forward")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,price\n")
        fh.writelines(
            f"{d},{p!r}\n" for d, p in zip(dates.astype(str), prices.tolist())
        )


if __name__ == "__main__":
    seed, n_returns, hurst, path = sys.argv[1:]
    write_prices(path, int(n_returns), float(hurst), int(seed))
