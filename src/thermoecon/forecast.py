"""Deterministic forward runs of the wealth model and doubling-time views.

With a constant innovation timescale tau the rate of return grows as
eta(t) = eta0 * exp(t / tau), and wealth integrates to the closed form

    C(t) = C0 * exp(eta0 * tau * (exp(t / tau) - 1))

which is super-exponential for tau > 0. tau = None switches innovation
off and the path collapses to plain exponential growth at eta0. Power and
GDP ride along through a = (lambda0/1000) C and Y = eta C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonOverflowError, HorizonUnderflowError, ThermoeconError
from .series import (
    MAX_GRID_YEARS,
    AnnualSeries,
    _check_overflow,
    _checked_values,
    _floor,
    _positive,
    _stored,
    annual_grid,
    log_derivative,
    rolling_mean,
)
from .units import SECONDS_PER_YEAR, Unit

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Scenario:
    """One forward run: initial state plus growth assumptions.

    tau_eta is the e-folding time of the rate of return in years; None
    freezes eta at eta0. Negative tau is allowed and means innovation in
    reverse, eta decaying toward zero.
    """

    c0: float
    eta0: float
    lambda0: float
    start_year: int
    horizon_years: int
    tau_eta: float | None = None

    def __post_init__(self):
        for name, value in (("c0", self.c0), ("eta0", self.eta0), ("lambda0", self.lambda0)):
            _positive(name, value)
        # the cap comes first, so int() below never sees an infinite horizon
        if self.horizon_years > MAX_GRID_YEARS:
            raise ThermoeconError(
                f"horizon_years must be at most {MAX_GRID_YEARS}, got {self.horizon_years}"
            )
        if not self.horizon_years >= 0 or int(self.horizon_years) != self.horizon_years:
            raise ThermoeconError(
                f"horizon_years must be a non-negative integer, got {self.horizon_years}"
            )
        if self.tau_eta is not None:
            if not math.isfinite(self.tau_eta) or self.tau_eta == 0.0:
                raise ThermoeconError(
                    f"tau_eta must be finite and nonzero, got {self.tau_eta}; "
                    "use None for no innovation"
                )
        # the start column of every forecast holds these two products
        gdp0, power0 = self.eta0 * self.c0, self.lambda0 / 1000.0 * self.c0
        if not (0.0 < gdp0 < math.inf and 0.0 < power0 < math.inf):
            for value, what in (
                (gdp0, f"gdp eta0 * c0 = {self.eta0} * {self.c0}"),
                (power0, f"power lambda0/1000 * c0 = {self.lambda0}/1000 * {self.c0}"),
            ):
                if value == 0.0 or value == math.inf:
                    fate = "rounds to zero in" if value == 0.0 else "overflows"
                    raise ThermoeconError(f"initial {what} {fate} double precision")

    @property
    def years(self) -> np.ndarray:
        return annual_grid(self.start_year, self.start_year + self.horizon_years)


def log_wealth_ratio(eta0: float, tau_eta: float | None, t) -> float | np.ndarray:
    """ln(C(t)/C0) at t years after the start; exact, overflow-free.

    expm1 keeps the no-innovation limit smooth: as tau -> inf the product
    eta0 * tau * expm1(t/tau) -> eta0 * t.
    """
    t = np.asarray(t, dtype=float)
    if tau_eta is None:
        out = eta0 * t
    elif scale := eta0 * tau_eta:
        out = scale * np.expm1(t / tau_eta)
    else:
        # eta0 * tau rounded to zero; 0 * an overflowed expm1 would be NaN
        out = eta0 * (tau_eta * np.expm1(t / tau_eta))
    return out if out.ndim else float(out)


def eta_trajectory(eta0: float, tau_eta: float | None, t) -> float | np.ndarray:
    """Rate of return at t years after the start."""
    t = np.asarray(t, dtype=float)
    out = eta0 * np.ones_like(t) if tau_eta is None else eta0 * np.exp(t / tau_eta)
    return out if out.ndim else float(out)


def eta_from_productivity(lambda0: float, f: float) -> float:
    """Rate of return implied by energy productivity f in $/J at fixed lambda.

    eta = (lambda/1000) * f per second, converted to a per-year rate. More
    output per joule raises the return on wealth, hence growth, hence the
    eventual energy demand: efficiency gains backfire in this model.
    """
    _positive("lambda0", lambda0)
    _positive("energy productivity", f)
    eta = lambda0 / 1000.0 * f * SECONDS_PER_YEAR
    if eta == 0.0 or eta == math.inf:
        fate = "rounds to zero in" if eta == 0.0 else "overflows"
        raise ThermoeconError(
            f"eta lambda0/1000 * f * seconds per year = {lambda0}/1000 * {f} * "
            f"{SECONDS_PER_YEAR} {fate} double precision"
        )
    return eta


@dataclass(frozen=True)
class ForecastPath:
    """Evaluated trajectory of one scenario on its year grid."""

    scenario: Scenario
    wealth: AnnualSeries
    eta: AnnualSeries
    gdp: AnnualSeries
    power: AnnualSeries

    def __post_init__(self):
        years = self.wealth.years
        for column in (self.eta, self.gdp, self.power):
            if not (column.years is years or np.array_equal(column.years, years)):
                raise ThermoeconError("trajectory columns are on different year grids")


# the forecast block's rows, in the order their series are checked
_COLUMNS = ("wealth", "eta", "gdp", "power")
_UNITS = (
    Unit.WEALTH_TRILLION_USD2005,
    Unit.PER_YEAR_FRACTION,
    Unit.GDP_TRILLION_USD2005_PER_YEAR,
    Unit.POWER_TERAWATT,
)
# the floor every value of a row lies above, by the rule AnnualSeries checks
_FLOORS = tuple(map(_floor, _UNITS))


def _materialize(scenario: Scenario, log_c: np.ndarray, eta: np.ndarray) -> ForecastPath:
    """Exponentiate the log-space columns into one (4, n) block, proved once.

    Wealth, eta, gdp and power are the rows of one private float64 block
    on the scenario's fresh year grid, which is marked read-only in place
    and never checked again. One max over the block is the overflow proof;
    only when it fails are wealth, gdp and power scanned for the first inf
    (HorizonOverflowError). After the start column is pinned to the
    scenario state, one min per row is the underflow test (gdp at zero:
    HorizonUnderflowError, naming eta if eta is zero there) and the rest
    of the proof. Only a failed proof runs `_checked_values` on each row
    in order, naming the first non-finite or non-positive one. No array
    the caller passed is aliased or changed. The columns may hold inf, 0
    or NaN; call under np.errstate(all="ignore").
    """
    years = scenario.years
    years.flags.writeable = False
    block = np.empty((len(_COLUMNS), years.size))
    block[0] = log_c
    np.log(eta, out=block[1])
    np.add(log_c, block[1], out=block[2])
    np.add(log_c, math.log(scenario.lambda0 / 1000.0), out=block[3])
    np.exp(block, out=block)
    # eta itself, not exp(log(eta)), which may be off by an ulp
    block[1] = eta
    finite = block.max() < math.inf
    if not finite:
        for row in (0, 2, 3):
            over = np.isinf(block[row])
            if over.any():
                raise HorizonOverflowError(int(years[over.argmax()]), _COLUMNS[row])
    # pin the start row to the exact scenario state; exp(log(c0)) is off
    # by an ulp and the t=0 identity C(start) == c0 is worth keeping
    c0, eta0 = scenario.c0, scenario.eta0
    block[:, 0] = (c0, eta0, eta0 * c0, scenario.lambda0 / 1000.0 * c0)
    low = block.min(axis=1).tolist()
    # Scenario keeps gdp[0] off zero, so a zero here is a later year
    if low[2] == 0.0:
        i = int((block[2] == 0.0).argmax())
        raise HorizonUnderflowError(int(years[i]), "eta" if block[1, i] == 0.0 else "gdp")
    labels = (f"wealth from {scenario.start_year}", "rate of return", "gdp", "power")
    if not (finite and all(m > floor for m, floor in zip(low, _FLOORS))):
        # a NaN, or a value at or below its floor: name the first failing
        # row; a failure the pin overwrote in the start column passes there
        for row, unit, label in zip(block, _UNITS, labels):
            _checked_values(row, unit, label)
    block.flags.writeable = False
    return ForecastPath(
        scenario, *(_stored(years, *column) for column in zip(block, _UNITS, labels))
    )


def forecast(scenario: Scenario) -> ForecastPath:
    """Closed-form trajectory of the scenario on its year grid.

    Raises HorizonOverflowError naming the first grid year at which any
    emitted quantity would exceed double range; super-exponential paths get
    there fast. Raises HorizonUnderflowError naming the first grid year at
    which eta or gdp would round to zero, as a decaying eta (tau < 0) does
    over a long horizon.
    """
    # years since the start, exactly as (years - start_year) in float
    t = np.arange(scenario.horizon_years + 1, dtype=float)
    # paths past the limits hold inf, 0 or NaN until _materialize names
    # the first failing year; numpy's float warnings would only repeat it
    with np.errstate(all="ignore"):
        log_c = math.log(scenario.c0) + log_wealth_ratio(scenario.eta0, scenario.tau_eta, t)
        eta = eta_trajectory(scenario.eta0, scenario.tau_eta, t)
        return _materialize(scenario, log_c, eta)


@dataclass(frozen=True, slots=True)
class DoublingTimes:
    """Doubling times of wealth and of the rate of return, in years."""

    wealth_years: float
    eta_years: float | None


def doubling_times(eta: float, tau_eta: float | None = None) -> DoublingTimes:
    """Instantaneous doubling times: ln2/eta for wealth, tau*ln2 for eta.

    eta_years is None without innovation, or with tau <= 0 where eta is
    halving rather than doubling. A non-finite tau is refused.
    """
    _positive("eta", eta)
    eta_years = None
    if tau_eta is not None:
        if not math.isfinite(tau_eta):
            raise ThermoeconError(f"tau_eta must be finite, got {tau_eta}")
        if tau_eta > 0.0:
            eta_years = tau_eta * LN2
    wealth_years = LN2 / eta
    # a subnormal eta puts ln2 over it past the largest double
    if wealth_years == math.inf:
        raise ThermoeconError(
            f"wealth doubling time ln2 / eta = ln2 / {eta} overflows double precision"
        )
    return DoublingTimes(wealth_years=wealth_years, eta_years=eta_years)


def doubling_time_series(
    eta_series: AnnualSeries, window_years: int
) -> tuple[AnnualSeries, AnnualSeries]:
    """Doubling-time views of an eta record, smoothed over `window_years`.

    Wealth doubling time ln2 / <eta> is returned on the full grid. The
    eta doubling time ln2 / <d ln eta / dt> only exists where the smoothed
    trend is positive, so that series is sparse; stagnating stretches
    simply drop out. A doubling time past the largest double raises
    ThermoeconError naming its first year.
    """
    eta_bar = rolling_mean(eta_series, window_years)
    # a subnormal smoothed eta or slope puts ln2 over it past the largest double
    with np.errstate(all="ignore"):
        wealth_years = LN2 / eta_bar.values
    _check_overflow("wealth doubling time", eta_series.years, wealth_years)
    delta_c = eta_series.with_values(wealth_years, Unit.YEARS, "wealth doubling time")
    slope = rolling_mean(log_derivative(eta_series), window_years)
    positive = slope.values > 0.0
    years = eta_series.years[positive]
    with np.errstate(all="ignore"):
        eta_years = LN2 / slope.values[positive]
    _check_overflow("eta doubling time", years, eta_years)
    delta_eta = AnnualSeries(years, eta_years, Unit.YEARS, "eta doubling time")
    return delta_c, delta_eta
