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
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonOverflowError, HorizonUnderflowError, ThermoeconError
from .series import (
    MAX_GRID_YEARS,
    AnnualSeries,
    _FLOAT_MAX,
    _derived,
    _finite,
    _integral,
    _positive,
    _representable,
    _stored,
    annual_grid,
    log_derivative,
    rolling_mean,
)
from .units import LAMBDA_SCALE, SECONDS_PER_YEAR, Unit

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Scenario:
    """One forward run: initial state plus growth assumptions.

    tau_eta is the e-folding time of the rate of return in years; None
    freezes eta at eta0. Negative tau is allowed and means innovation in
    reverse, eta decaying toward zero. `years`, the read-only int64 grid
    from start_year to the end of the horizon, is checked by `annual_grid`
    and built once, at construction; init, repr and equality skip it.
    """

    c0: float
    eta0: float
    lambda0: float
    start_year: int
    horizon_years: int
    tau_eta: float | None = None
    years: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("c0", self.c0), ("eta0", self.eta0), ("lambda0", self.lambda0)):
            _positive(name, value)
        # the cap comes first, so an infinite horizon is named as too long
        if self.horizon_years > MAX_GRID_YEARS:
            raise ThermoeconError(
                f"horizon_years must be at most {MAX_GRID_YEARS}, got {self.horizon_years}"
            )
        if (horizon := _integral(self.horizon_years)) is None or horizon < 0:
            raise ThermoeconError(
                f"horizon_years must be a non-negative integer, got {self.horizon_years}"
            )
        if (tau := self.tau_eta) is not None and (not _finite(tau) or tau == 0.0):
            raise ThermoeconError(
                f"tau_eta must be finite and nonzero, got {tau}; use None for no innovation"
            )
        # the start column of every forecast holds these; int products never reach inf
        gdp0, power0 = self.eta0 * self.c0, self.lambda0 / LAMBDA_SCALE * self.c0
        if not (0.0 < gdp0 <= _FLOAT_MAX and 0.0 < power0 <= _FLOAT_MAX):
            _representable(gdp0, "initial gdp eta0 * c0 = {} * {}", self.eta0, self.c0)
            what = "initial power lambda0/1000 * c0 = {}/1000 * {}"
            _representable(power0, what, self.lambda0, self.c0)
        # the year grid is checked and built once, read-only, and every
        # forecast of this scenario shares it
        years = annual_grid(self.start_year, self.start_year + self.horizon_years)
        years.flags.writeable = False
        object.__setattr__(self, "years", years)


def _closed_form(
    eta0: float, tau_eta: float | None, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ln(C(t)/C0) and eta(t), with t / tau formed once, in place, in the float array `t`.

    `t` comes back holding eta(t). expm1 keeps the tau -> inf limit smooth:
    eta0 * tau * expm1(t/tau) -> eta0 * t. When eta0 * tau rounds to zero
    or overflows, 0 times an overflowed expm1, or inf times expm1(0), would
    be NaN, so the product is reassociated as eta0 * (tau * expm1(t/tau)).
    """
    log_ratio = np.empty_like(t)
    if tau_eta is None:
        np.multiply(t, eta0, out=log_ratio)
        t.fill(eta0)
        return log_ratio, t
    x = np.divide(t, tau_eta, out=t)
    np.expm1(x, out=log_ratio)
    if 0.0 < abs(scale := eta0 * tau_eta) <= _FLOAT_MAX:
        log_ratio *= scale
    else:
        log_ratio *= tau_eta
        log_ratio *= eta0
    np.exp(x, out=x)
    x *= eta0
    return log_ratio, x


def eta_from_productivity(lambda0: float, f: float) -> float:
    """Rate of return implied by energy productivity f in $/J at fixed lambda.

    eta = (lambda/1000) * f per second, converted to a per-year rate. More
    output per joule raises the return on wealth, hence growth, hence the
    eventual energy demand: efficiency gains backfire in this model.
    """
    _positive("lambda0", lambda0)
    _positive("energy productivity", f)
    eta = lambda0 / LAMBDA_SCALE * f * SECONDS_PER_YEAR
    what = "eta lambda0/1000 * f * seconds per year = {}/1000 * {} * {}"
    _representable(eta, what, lambda0, f, SECONDS_PER_YEAR)
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


# the units of the forecast block's rows, in the order their series are checked
_UNITS = (
    Unit.WEALTH_TRILLION_USD2005,
    Unit.PER_YEAR_FRACTION,
    Unit.GDP_TRILLION_USD2005_PER_YEAR,
    Unit.POWER_TERAWATT,
)


def _materialize(scenario: Scenario, log_c: np.ndarray, eta: np.ndarray) -> ForecastPath:
    """Exponentiate the log-space columns into one (4, n) block, proved once.

    Wealth, eta, gdp and power are the rows of one private float64 block
    on the scenario's read-only year grid. One max over the block is the
    overflow test; only when it fails is the first year with an inf in
    wealth, gdp or power named (HorizonOverflowError). After the start
    column is pinned, one min over the block ends the proof: every value
    is finite and positive. eta alone may be non-positive by
    its unit, but a later eta at or below 0, or NaN, leaves gdp 0 or NaN
    there, so per-row floors would reject nothing more. Only a failed
    proof diagnoses the rows in order: gdp at zero is
    HorizonUnderflowError, naming eta if eta is zero there; then
    `_derived` names the first bad row, and a failure the pin
    overwrote passes. No array the caller passed is aliased or changed.
    The columns may hold inf, 0 or NaN; call under np.errstate(all="ignore").
    """
    years = scenario.years
    block = np.empty((len(_UNITS), years.size))
    block[0] = log_c
    np.log(eta, out=block[1])
    np.add(log_c, block[1], out=block[2])
    np.add(log_c, math.log(scenario.lambda0 / LAMBDA_SCALE), out=block[3])
    np.exp(block, out=block)
    # eta itself, not exp(log(eta)), which may be off by an ulp
    block[1] = eta
    finite = block.max() < math.inf
    if not finite:
        # year-major, so the first inf is in the first year any row overflows
        over = np.isinf(block[[0, 2, 3]].T)
        if over.any():
            i, row = divmod(int(over.argmax()), 3)
            raise HorizonOverflowError(int(years[i]), ("wealth", "gdp", "power")[row])
    # pin the start row to the exact scenario state; exp(log(c0)) is off
    # by an ulp and the t=0 identity C(start) == c0 is worth keeping
    c0, eta0 = scenario.c0, scenario.eta0
    block[:, 0] = (c0, eta0, eta0 * c0, scenario.lambda0 / LAMBDA_SCALE * c0)
    labels = (f"wealth from {scenario.start_year}", "rate of return", "gdp", "power")
    if not (finite and block.min() > 0.0):
        # Scenario keeps gdp[0] off zero, so a zero here is a later year
        if block[2].min() == 0.0:
            i = int((block[2] == 0.0).argmax())
            raise HorizonUnderflowError(int(years[i]), "eta" if block[1, i] == 0.0 else "gdp")
        for row, unit, label in zip(block, _UNITS, labels):
            _derived(years, row, unit, label)
    block.flags.writeable = False
    return ForecastPath(scenario, *map(_stored, (years,) * len(_UNITS), block, _UNITS, labels))


def forecast(scenario: Scenario) -> ForecastPath:
    """Closed-form trajectory of the scenario on its year grid.

    ln wealth and eta are written into arrays this call owns, from one
    t / tau, and `_materialize` builds and proves the block. Raises
    HorizonOverflowError naming the first grid year at which any emitted
    quantity would exceed double range; super-exponential paths get there
    fast. Raises HorizonUnderflowError naming the first grid year at which
    eta or gdp would round to zero, as a decaying eta (tau < 0) does over
    a long horizon.
    """
    # years since the start, exactly as (years - start_year) in float
    t = np.arange(scenario.horizon_years + 1, dtype=float)
    # paths past the limits hold inf, 0 or NaN until _materialize names
    # the first failing year; numpy's float warnings would only repeat it
    with np.errstate(all="ignore"):
        log_c, eta = _closed_form(scenario.eta0, scenario.tau_eta, t)
        log_c += math.log(scenario.c0)
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
        if not _finite(tau_eta):
            raise ThermoeconError(f"tau_eta must be finite, got {tau_eta}")
        if tau_eta > 0.0:
            eta_years = tau_eta * LN2
    wealth_years = LN2 / eta
    # a subnormal eta puts ln2 over it past the largest double
    _representable(wealth_years, "wealth doubling time ln2 / eta = ln2 / {}", eta)
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
    label = "wealth doubling time"
    delta_c = _derived(eta_series.years, wealth_years, Unit.YEARS, label, label)
    slope = rolling_mean(log_derivative(eta_series), window_years)
    positive = slope.values > 0.0
    years = eta_series.years[positive]
    with np.errstate(all="ignore"):
        eta_years = LN2 / slope.values[positive]
    label = "eta doubling time"
    delta_eta = _derived(years, eta_years, Unit.YEARS, label, label)
    return delta_c, delta_eta
