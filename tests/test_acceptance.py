"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Reference values are either printed benchmark numbers or were
recomputed independently before being frozen here.
"""

import dataclasses
import re
import time

import numpy as np

from thermoecon import (
    Scenario,
    Unit,
    builtin_table1,
    doubling_times,
    eta_from_productivity,
    forecast,
    load_series,
    run_fit,
)
from thermoecon.cli import main as cli_main
from thermoecon.forecast import _closed_form
from thermoecon.growth import FitResult
from thermoecon.units import SECONDS_PER_YEAR

from test_forecast import forecast_base2


def test_criterion_01_power_wealth_ratio_is_nearly_constant():
    t1 = builtin_table1()
    started = time.perf_counter()
    res = run_fit(t1.gdp, t1.power, lambda0=6.4)
    elapsed = time.perf_counter() - started
    mean = res.model.lambda_mean
    spread = res.model.lambda_rel_std
    assert 6.7 <= mean <= 7.5
    assert spread <= 0.05
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS (lambda mean {mean:.4f} W/k$, spread "
        f"{spread * 100:.2f} %, fit in {elapsed * 1000:.0f} ms)"
    )


def test_criterion_02_rate_of_return_reconstruction():
    t1 = builtin_table1()
    worst = 0.0
    for year in map(int, t1.power.years):
        implied_wealth = 1000.0 * t1.power.value_at(year) / t1.power_over_wealth.value_at(year)
        computed_pct = 100.0 * t1.gdp.value_at(year) / implied_wealth
        printed_pct = 100.0 * t1.rate_of_return.value_at(year)
        worst = max(worst, abs(computed_pct - printed_pct))
        # the one implied-wealth series the table1 command reads is this one
        assert t1.wealth.value_at(year).hex() == implied_wealth.hex()
    assert worst <= 0.02
    print(f"criterion 2: PASS (worst return deviation {worst:.4f} %/yr over 9 years)")


def test_criterion_03_growth_decomposition(tmp_path):
    # documented reference split is arithmetically consistent
    assert abs((1.87 + 0.93) - 2.80) < 1e-9
    assert abs((2.93 - 2.80) - 0.13) < 1e-9
    doc = FitResult.predicted_growth.__doc__
    assert "2.93" in doc and "0.13" in doc
    # fitted innovation rate lands in the credible band
    t1 = builtin_table1()
    res = run_fit(t1.gdp, t1.power, lambda0=6.4)
    rate_pct = res.innovation.slope * 100.0
    assert 0.8 <= rate_pct <= 1.3
    # and the emitted summary line adds up exactly as floats
    assert cli_main(["fit", "--builtin-table1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "summary.txt").read_text()
    m = re.search(r"decomposition: (\S+) \+ (\S+) = (\S+)", text)
    a, b, c = (float(g) for g in m.groups())
    assert a + b == c
    print(
        f"criterion 3: PASS (innovation {rate_pct:.2f} %/yr in [0.8, 1.3]; "
        f"summary identity {a:.6f} + {b:.6f} = {c:.6f} exact)"
    )


def test_criterion_04_wealth_increment_2005_2009():
    t1 = builtin_table1()
    res = run_fit(t1.gdp, t1.power, lambda0=6.4)
    increment = res.wealth.value_at(2009) - res.wealth.value_at(2005)
    assert abs(increment / 189.0 - 1.0) <= 0.015
    print(
        f"criterion 4: PASS (wealth grew {increment:.1f} T$ over 2005:2009, "
        f"{(increment / 189.0 - 1.0) * 100:+.2f} % off the printed 189)"
    )


def test_criterion_05_doubling_times():
    fast = doubling_times(0.0214).wealth_years
    slow = doubling_times(0.0035).wealth_years
    assert abs(fast - 32.4) <= 0.1
    assert abs(slow - 198.0) <= 2.0
    print(
        f"criterion 5: PASS (doubling {fast:.2f} yr at 2.14 %/yr, "
        f"{slow:.1f} yr at 0.35 %/yr)"
    )


def test_criterion_06_base2_form_is_identical():
    rng = np.random.default_rng(20090101)
    worst = 0.0
    for _ in range(100):
        sc = Scenario(
            c0=float(rng.uniform(10.0, 5000.0)),
            eta0=float(rng.uniform(0.001, 0.05)),
            lambda0=float(rng.uniform(2.0, 20.0)),
            start_year=2009,
            horizon_years=50,
            tau_eta=float(rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 500.0)),
        )
        a = forecast(sc).wealth.values
        b = forecast_base2(sc).wealth.values
        worst = max(worst, float(np.max(np.abs(b / a - 1.0))))
    assert worst <= 1e-12
    sc = Scenario(
        c0=2300.0, eta0=0.0214, lambda0=7.0, start_year=2009,
        horizon_years=50, tau_eta=1e6,
    )
    limit_gap = abs(
        forecast(sc).wealth.value_at(2059)
        / forecast(dataclasses.replace(sc, tau_eta=None)).wealth.value_at(2059)
        - 1.0
    )
    assert limit_gap <= 1e-4
    print(
        f"criterion 6: PASS (base-2 worst rel err {worst:.2e} over 100 scenarios; "
        f"tau=1e6 sits {limit_gap:.2e} from the frozen-eta limit)"
    )


def test_criterion_07_wealth_growth_rate_matches_eta():
    rng = np.random.default_rng(19700101)
    h = 0.01
    worst = 0.0
    for _ in range(20):
        eta0 = float(rng.uniform(0.005, 0.05))
        tau = float(rng.uniform(30.0, 300.0))
        for t in rng.uniform(0.0, 40.0, size=5):
            log_ratio, eta = _closed_form(eta0, tau, np.array([t + h, t - h, t]))
            fd = (log_ratio[0] - log_ratio[1]) / (2.0 * h)
            worst = max(worst, abs(fd - eta[2]))
    assert worst <= 1e-4
    print(
        f"criterion 7: PASS (d ln C/dt deviates from eta by at most {worst:.2e} "
        f"across 20 scenarios)"
    )


def test_criterion_08_return_equals_ratio_times_productivity():
    t1 = builtin_table1()
    res = run_fit(t1.gdp, t1.power, lambda0=6.4)
    m = res.model
    rhs = m.lambda_series.values / 1000.0 * m.f_series.values * SECONDS_PER_YEAR
    gap = float(np.max(np.abs(m.eta_series.values - rhs)))
    assert gap <= 1e-12
    assert abs(m.f_mean - 8.3e-8) <= 0.3e-8
    print(
        f"criterion 8: PASS (identity gap {gap:.2e}; mean productivity "
        f"{m.f_mean:.3e} $/J within 8.3e-8 +/- 0.3e-8)"
    )


def test_criterion_09_efficiency_gains_backfire():
    f_values = np.linspace(5.0e-8, 1.4e-7, 10)
    powers = []
    for f in f_values:
        sc = Scenario(
            c0=2300.0,
            eta0=eta_from_productivity(7.0, float(f)),
            lambda0=7.0,
            start_year=2009,
            horizon_years=10,
            tau_eta=100.0,
        )
        powers.append(forecast(sc).power.value_at(2019))
    diffs = np.diff(powers)
    assert np.all(diffs > 0.0)
    print(
        f"criterion 9: PASS (power at +10 yr rises {powers[0]:.2f} -> "
        f"{powers[-1]:.2f} TW across a 10-point productivity sweep)"
    )


def test_criterion_10_frozen_eta_forecast_growth(tmp_path):
    rc = cli_main(
        [
            "forecast",
            "--builtin-table1",
            "--tau-eta", "0",
            "--horizon", "50",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    wealth = load_series(
        tmp_path / "forecast.csv", Unit.WEALTH_TRILLION_USD2005, column="wealth"
    )
    growth_pct = 100.0 * np.log(wealth.value_at(2059) / wealth.value_at(2009)) / 50.0
    assert 2.1 <= growth_pct <= 2.3
    print(
        f"criterion 10: PASS (frozen-eta forecast grows {growth_pct:.2f} %/yr "
        f"over 2009:2059)"
    )
