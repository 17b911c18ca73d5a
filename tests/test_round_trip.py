"""Round trip: fitting a forecast's own GDP and power gives its state back.

A forecast from (c0, eta0, lambda0, tau) keeps only knots every `spacing`
years, start and end included, and `run_fit` takes them with the same
lambda0. The fit departs from the closed form in two ways only, and every
tolerance here is derived from them, not from observed errors:

* log-linear interpolation between knots: ln Y and ln a both have second
  derivative eta / tau, so between knots `spacing` apart they are off by
  at most delta = spacing**2 / 8 * max|eta / tau| in ln;
* the annual trapezoid of dC/dt = Y: one step overshoots the integral by
  Y''/12, Y'' = kappa Y with |kappa| <= g**2 + |eta / tau| for the growth
  rate g = eta + 1/tau of Y, and Y moves by at most e**|g| within a step,
  so the sum is within max|kappa| e**max|g| / 12 of the integral,
  relative to it.

eta is monotone in time, so each max over the horizon sits on its
annual grid. For Y = e**(g t) the trapezoid overshoot is g**2/12 of a
step to leading order, which the bound reaches at small g.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoecon import AnnualSeries, Scenario, Unit, forecast, load_series, run_fit, write_table

EPS = np.finfo(float).eps
#: Relative error of a %.12g report cell: half a unit in its 12th digit.
CELL_ERROR = 5e-12


def knots(series: AnnualSeries, spacing: int) -> AnnualSeries:
    keep = np.zeros(len(series), dtype=bool)
    keep[::spacing] = keep[-1] = True
    return AnnualSeries(series.years[keep], series.values[keep], series.unit, series.label)


def bounds(path, spacing: int, cell_error: float = 0.0) -> tuple[float, float]:
    """(relative wealth error, |ln| error of eta and lambda) the fit may show.

    `cell_error` is the relative error the inputs carry, from a file.
    Rounding allows a few ulps per summed year and per unit of each
    exponentiated log.
    """
    tau = path.scenario.tau_eta
    inv_tau = 0.0 if tau is None else 1.0 / tau
    eta = path.eta.values
    curvature = np.max(np.abs(eta * inv_tau))  # (ln Y)'' = (ln a)'' = eta / tau
    growth = np.max(np.abs(eta + inv_tau))
    trapezoid = (growth**2 + curvature) * math.exp(growth) / 12.0
    log_scale = np.max(np.abs(np.log(path.gdp.values))) + np.max(np.log(path.wealth.values))
    rounding = 4.0 * (len(eta) + log_scale) * EPS
    delta = spacing**2 / 8.0 * curvature - math.log1p(-cell_error) + rounding
    wealth = cell_error + trapezoid + math.expm1(delta) * (1.0 + trapezoid) + rounding
    return wealth, delta - math.log1p(-wealth)


def check_round_trip(path, res, spacing: int, cell_error: float = 0.0) -> None:
    sc = path.scenario
    wealth_bound, log_bound = bounds(path, spacing, cell_error)
    assert wealth_bound < 0.2  # the draws stay where the check says something
    years = path.wealth.years
    assert np.array_equal(res.wealth.years, years)
    assert np.max(np.abs(res.wealth.values / path.wealth.values - 1.0)) <= wealth_bound
    lam = res.model.lambda_series.values
    assert np.max(np.abs(np.log(lam / sc.lambda0))) <= log_bound
    # the regression slope moves by at most sum|x| / sum x**2 per unit of ln(eta) error
    x = years - years.mean()
    slope_bound = log_bound * np.sum(np.abs(x)) / np.sum(x * x)
    assert abs(res.innovation.slope - (0.0 if sc.tau_eta is None else 1.0 / sc.tau_eta)) <= (
        slope_bound
    )
    # the end year is a knot: only the wealth and one gdp or power cell stand between
    end = path.wealth.last_year
    c0, eta0, lambda0 = res.state_at(end)
    end_log_bound = -math.log1p(-wealth_bound) - math.log1p(-cell_error)
    assert abs(c0 / path.wealth.value_at(end) - 1.0) <= wealth_bound
    assert abs(math.log(eta0 / path.eta.value_at(end))) <= end_log_bound
    assert abs(math.log(lambda0 / sc.lambda0)) <= end_log_bound


@st.composite
def round_trips(draw):
    horizon = draw(st.integers(10, 200))
    # |tau| of at least half the horizon keeps eta within e**2 of eta0
    tau = draw(
        st.one_of(
            st.none(),
            st.floats(max(30.0, horizon / 2.0), 1000.0),
            st.floats(-1000.0, -30.0),
        )
    )
    scenario = Scenario(
        c0=2300.0,
        eta0=draw(st.floats(0.005, 0.04)),
        lambda0=draw(st.floats(1.0, 20.0)),
        start_year=2009,
        horizon_years=horizon,
        tau_eta=tau,
    )
    return scenario, draw(st.integers(1, 10))


def _case(horizon, tau, spacing):
    return Scenario(2300.0, 0.04, 7.0, 2009, horizon, tau), spacing


@given(round_trips())
@settings(max_examples=150, deadline=None)
# the corners: the loosest bound drawn (60 years at tau 30), and the
# longest horizon with innovation off and in reverse
@example(_case(60, 30.0, 10))
@example(_case(200, None, 10))
@example(_case(200, -30.0, 10))
def test_fit_recovers_the_forecast_state(case):
    scenario, spacing = case
    path = forecast(scenario)
    res = run_fit(knots(path.gdp, spacing), knots(path.power, spacing), lambda0=scenario.lambda0)
    check_round_trip(path, res, spacing)


def test_fit_recovers_the_forecast_state_through_files(tmp_path):
    # the forecast.csv the CLI writes, loaded back column by column: the
    # units, lambda's thousand-dollar scale and the 12-digit cells in the loop
    scenario = Scenario(
        c0=2300.0, eta0=0.0214, lambda0=7.0, start_year=2009, horizon_years=91, tau_eta=87.6
    )
    path = forecast(scenario)
    columns = {"wealth": path.wealth, "eta": path.eta, "gdp": path.gdp, "power": path.power}
    csv = write_table(tmp_path / "forecast.csv", path.wealth.years, columns)
    gdp = load_series(csv, Unit.GDP_TRILLION_USD2005_PER_YEAR, column="gdp")
    power = load_series(csv, Unit.POWER_TERAWATT, column="power")
    spacing = 5
    res = run_fit(knots(gdp, spacing), knots(power, spacing), lambda0=scenario.lambda0)
    check_round_trip(path, res, spacing, CELL_ERROR)
