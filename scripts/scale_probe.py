"""Time and memory of the fit pipeline on long synthetic records.

For each record length it writes a GDP and a power file with one knot per
year, on a slow closed-form path with 1 % lognormal noise, then measures
each stage in process:

    python3 scripts/scale_probe.py                 # 10^4 and 10^5 years
    python3 scripts/scale_probe.py --years 1000000

Each stage runs three times: twice for its wall time, then once under
tracemalloc for its peak of Python-allocated memory, which numpy arrays
count towards.
The stages are `load_series` of both files (their summed time and the
larger of their two peaks), `run_fit` with lambda0 = 7,
`doubling_time_series` over the CLI's 10-year window and `write_table` of
the fit's four columns. The file sizes are the input GDP file and the
written table, the sizes a reader's or writer's peak is set against.
"""

import argparse
import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from thermoecon import (
    Scenario,
    Unit,
    doubling_time_series,
    forecast,
    load_series,
    run_fit,
    write_table,
)

END_YEAR = 2009
LAMBDA0 = 7.0  # W per thousand $
NOISE_SIGMA = 0.01
WINDOW_YEARS = 10  # the CLI's figure2 smoothing window


def write_record(directory: Path, n_years: int, seed: int) -> tuple[Path, Path]:
    """gdp.csv and power.csv on the forecast of C0 = 1 with tau_eta = n_years.

    That path is C(t) = exp(eta0 tau (exp(t/tau) - 1)); wealth grows
    e^10-fold over the record, so any length stays inside double range.
    """
    rng = np.random.default_rng(seed)
    tau = float(n_years)
    eta0 = 10.0 / (tau * math.expm1(1.0))
    start = END_YEAR - n_years + 1
    run = forecast(Scenario(1.0, eta0, LAMBDA0, start, horizon_years=n_years - 1, tau_eta=tau))
    paths = []
    for name, token, clean in (
        ("gdp", "gdp_trillion_usd2005_per_year", run.gdp.values),
        ("power", "power_terawatt", run.power.values),
    ):
        values = clean * np.exp(rng.normal(0.0, NOISE_SIGMA, n_years))
        path = directory / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# synthetic {n_years}-year {name} record, seed {seed}\n# unit: {token}\n")
            f.writelines(f"{y},{v!r}\n" for y, v in zip(run.gdp.years.tolist(), values.tolist()))
        paths.append(path)
    return paths[0], paths[1]


def measured(stage):
    """(result, wall ms, tracemalloc peak MiB) of calling `stage`.

    The time is the faster of two calls: a first call's time also depends
    on the heap that earlier stages left behind, and that is not the
    stage's own cost.
    """
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        stage()
        times.append(time.perf_counter() - t0)
    ms = min(times) * 1e3
    tracemalloc.start()
    try:
        result = stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, ms, peak / 2**20


def probe(n_years: int, seed: int) -> str:
    """One table row: every stage's time and peak at `n_years`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gdp_path, power_path = write_record(tmp, n_years, seed)
        table = tmp / "lambda_series.csv"
        gdp, *load_gdp = measured(
            lambda: load_series(gdp_path, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        )
        power, *load_power = measured(lambda: load_series(power_path, Unit.POWER_TERAWATT))
        load = load_gdp[0] + load_power[0], max(load_gdp[1], load_power[1])
        res, *fit = measured(lambda: run_fit(gdp, power, lambda0=LAMBDA0))
        m = res.model
        _, *doubling = measured(lambda: doubling_time_series(m.eta_series, WINDOW_YEARS))
        columns = {"lambda": m.lambda_series, "eta": m.eta_series, "f": m.f_series,
                   "wealth": res.wealth}
        _, *write = measured(lambda: write_table(table, m.lambda_series.years, columns))
        sizes = gdp_path.stat().st_size / 2**20, table.stat().st_size / 2**20
    cells = [f"{ms:,.1f} ms, {mib:.2f} MiB" for ms, mib in (load, fit, doubling, write)]
    return f"| {n_years} | {sizes[0]:.2f} | " + " | ".join(cells) + f" | {sizes[1]:.2f} |"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--years", type=int, nargs="+", default=[10**4, 10**5],
                    help="record lengths in years (default: 10000 100000)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print("| years | gdp.csv MiB | load_series x2 | run_fit | doubling_time_series "
          "| write_table (4 cols) | table MiB |")
    print("|---|---|---|---|---|---|---|")
    for n_years in args.years:
        print(probe(n_years, args.seed), flush=True)


if __name__ == "__main__":
    main()
