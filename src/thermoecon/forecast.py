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

from .errors import (
    DomainError,
    HorizonOverflowError,
    HorizonUnderflowError,
    ValidationError,
)
from .series import MAX_GRID_YEARS, AnnualSeries, annual_grid, log_derivative, rolling_mean
from .units import SECONDS_PER_YEAR, Unit

LN2 = math.log(2.0)

# log of the largest representable double; paths are cut off before any
# emitted quantity would exceed this
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

# longest forecast a Scenario accepts: the longest annual grid
MAX_HORIZON_YEARS = MAX_GRID_YEARS


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
        if not np.isfinite(self.c0) or self.c0 <= 0.0:
            raise ValidationError(f"c0 must be positive, got {self.c0}")
        if not np.isfinite(self.eta0) or self.eta0 <= 0.0:
            raise ValidationError(f"eta0 must be positive, got {self.eta0}")
        if not np.isfinite(self.lambda0) or self.lambda0 <= 0.0:
            raise ValidationError(f"lambda0 must be positive, got {self.lambda0}")
        # the cap comes first, so int() below never sees an infinite horizon
        if self.horizon_years > MAX_HORIZON_YEARS:
            raise ValidationError(
                f"horizon_years must be at most {MAX_HORIZON_YEARS}, got {self.horizon_years}"
            )
        if not self.horizon_years >= 0 or int(self.horizon_years) != self.horizon_years:
            raise ValidationError(
                f"horizon_years must be a non-negative integer, got {self.horizon_years}"
            )
        if self.tau_eta is not None:
            if not np.isfinite(self.tau_eta) or self.tau_eta == 0.0:
                raise ValidationError(
                    f"tau_eta must be finite and nonzero, got {self.tau_eta}; "
                    "use None for no innovation"
                )
        if self.eta0 * self.c0 == 0.0:
            raise ValidationError(
                f"initial gdp eta0 * c0 = {self.eta0} * {self.c0} "
                "rounds to zero in double precision"
            )
        if self.lambda0 / 1000.0 * self.c0 == 0.0:
            raise ValidationError(
                f"initial power lambda0/1000 * c0 = {self.lambda0}/1000 * {self.c0} "
                "rounds to zero in double precision"
            )

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
    else:
        out = eta0 * tau_eta * np.expm1(t / tau_eta)
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
    if f <= 0.0:
        raise DomainError(f"energy productivity must be positive, got {f}")
    return lambda0 / 1000.0 * f * SECONDS_PER_YEAR


@dataclass(frozen=True)
class ForecastPath:
    """Evaluated trajectory of one scenario on its year grid."""

    scenario: Scenario
    wealth: AnnualSeries
    eta: AnnualSeries
    gdp: AnnualSeries
    power: AnnualSeries

    def __post_init__(self):
        n = len(self.wealth)
        if not (len(self.eta) == len(self.gdp) == len(self.power) == n):
            raise ValidationError("trajectory columns differ in length")


def _materialize(
    scenario: Scenario, years: np.ndarray, log_c: np.ndarray, eta: np.ndarray
) -> ForecastPath:
    """Exponentiate the log-space columns; takes ownership of `eta`.

    Raises HorizonOverflowError for the first grid year at which wealth,
    gdp or power (checked in that order) would pass the largest double,
    and HorizonUnderflowError for the first year at which gdp rounds to
    zero, naming eta if eta itself is zero there. The columns may hold
    inf, 0 or NaN; call under np.errstate(all="ignore").
    """
    t_label = scenario.start_year
    log_gdp = log_c + np.log(eta)
    log_power = log_c + math.log(scenario.lambda0 / 1000.0)
    for quantity, log_values in (
        ("wealth", log_c),
        ("gdp", log_gdp),
        ("power", log_power),
    ):
        # fmax skips the NaN an inf * 0 start row can hold, where max would
        # return it and hide an overflow later in the column
        if np.fmax.reduce(log_values) > _LOG_FLOAT_MAX:
            over = log_values > _LOG_FLOAT_MAX
            raise HorizonOverflowError(int(years[over.argmax()]), quantity)
    c = np.exp(log_c)
    gdp = np.exp(log_gdp)
    power = np.exp(log_power)
    # pin the start row to the exact scenario state; exp(log(c0)) is off
    # by an ulp and the t=0 identity C(start) == c0 is worth keeping
    c[0] = scenario.c0
    eta[0] = scenario.eta0
    gdp[0] = scenario.eta0 * scenario.c0
    power[0] = scenario.lambda0 / 1000.0 * scenario.c0
    # Scenario keeps gdp[0] off zero, so a zero here is a later year
    if gdp.min() == 0.0:
        i = int((gdp == 0.0).argmax())
        raise HorizonUnderflowError(int(years[i]), "eta" if eta[i] == 0.0 else "gdp")
    return ForecastPath(
        scenario=scenario,
        wealth=AnnualSeries(
            years, c, Unit.WEALTH_TRILLION_USD2005, f"wealth from {t_label}"
        ),
        eta=AnnualSeries(years, eta, Unit.PER_YEAR_FRACTION, "rate of return"),
        gdp=AnnualSeries(years, gdp, Unit.GDP_TRILLION_USD2005_PER_YEAR, "gdp"),
        power=AnnualSeries(years, power, Unit.POWER_TERAWATT, "power"),
    )


def forecast(scenario: Scenario) -> ForecastPath:
    """Closed-form trajectory of the scenario on its year grid.

    Raises HorizonOverflowError naming the first grid year at which any
    emitted quantity would exceed double range; super-exponential paths get
    there fast. Raises HorizonUnderflowError naming the first grid year at
    which eta or gdp would round to zero, as a decaying eta (tau < 0) does
    over a long horizon.
    """
    years = scenario.years
    t = (years - scenario.start_year).astype(float)
    # paths past the limits hold inf, 0 or NaN until _materialize names
    # the first failing year; numpy's float warnings would only repeat it
    with np.errstate(all="ignore"):
        log_c = math.log(scenario.c0) + np.asarray(
            log_wealth_ratio(scenario.eta0, scenario.tau_eta, t)
        )
        eta = np.asarray(eta_trajectory(scenario.eta0, scenario.tau_eta, t))
        return _materialize(scenario, years, log_c, eta)


@dataclass(frozen=True, slots=True)
class DoublingTimes:
    """Doubling times of wealth and of the rate of return, in years."""

    wealth_years: float
    eta_years: float | None


def doubling_times(eta: float, tau_eta: float | None = None) -> DoublingTimes:
    """Instantaneous doubling times: ln2/eta for wealth, tau*ln2 for eta.

    eta_years is None without innovation, or with tau <= 0 where eta is
    halving rather than doubling.
    """
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    eta_years = None
    if tau_eta is not None and tau_eta > 0.0:
        eta_years = tau_eta * LN2
    return DoublingTimes(wealth_years=LN2 / eta, eta_years=eta_years)


def doubling_time_series(
    eta_series: AnnualSeries, window_years: int = 10
) -> tuple[AnnualSeries, AnnualSeries]:
    """Smoothed doubling-time views of an eta record.

    Wealth doubling time ln2 / <eta> is returned on the full grid. The
    eta doubling time ln2 / <d ln eta / dt> only exists where the smoothed
    trend is positive, so that series is sparse; stagnating stretches
    simply drop out.
    """
    eta_bar = rolling_mean(eta_series, window_years)
    delta_c = AnnualSeries(
        eta_series.years, LN2 / eta_bar.values, Unit.YEARS, "wealth doubling time"
    )
    slope = rolling_mean(log_derivative(eta_series), window_years)
    positive = slope.values > 0.0
    delta_eta = AnnualSeries(
        eta_series.years[positive],
        LN2 / slope.values[positive],
        Unit.YEARS,
        "eta doubling time",
    )
    return delta_c, delta_eta
