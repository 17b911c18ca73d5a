"""Historical fitting: wealth construction, ratio statistics, trend growth.

The model ties three observables together on an annual grid:

* wealth C accumulates GDP, dC/dt = Y, so C is a running trapezoid sum;
* primary power a is proportional to wealth, a = (lambda/1000) C with
  lambda in W per thousand dollars and C in trillion dollars;
* the rate of return eta = Y/C doubles as the growth rate of both C and a.

`run_fit` is the one pipeline: it interpolates GDP and power onto the
annual grid of the fit window once, integrates that GDP into C from an
anchor value, forms the pointwise ratios lambda, eta and the energy
productivity f = Y/a on the same grid, and regresses ln(eta) on time to
get the innovation rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ThermoeconError
from .series import (
    AnnualSeries,
    _derived,
    _positive,
    _stored,
    annual_grid,
    cumulative_integral,
    interpolate,
)
from .units import LAMBDA_SCALE, Unit

#: Minimum length, in consecutive calendar years, of the GDP/power overlap.
MIN_FIT_OVERLAP_YEARS = 10
#: Fewest points the ln(eta) regression takes, so the shortest fit window.
MIN_INNOVATION_POINTS = 3


def build_wealth(
    gdp: AnnualSeries,
    power: AnnualSeries,
    lambda0: float | None = None,
    historical_gdp: AnnualSeries | None = None,
) -> tuple[AnnualSeries, str]:
    """Accumulate a dense annual GDP record into wealth over its years.

    Returns the wealth series and the name of its anchor mode.

    The anchor is chosen in this order. With a historical GDP record, the
    record's years before `gdp` are merged in front of it, the merged record
    is interpolated log-linearly onto every year from its first, and the
    integral starts from zero wealth there ("integrated_from_epoch").
    Otherwise wealth starts at C0 = 1000 * power / lambda0 in the first
    year ("calibrated_from_lambda"), which is the only option when the
    record starts long after economic activity did; a given lambda0 must be
    finite and positive even where the record sets the anchor. Either way one
    trapezoid sum runs over the annual GDP, and only the years of `gdp` are
    returned. `power` only supplies the calibration value, so it must start
    in the same year as `gdp`. Positive GDP makes the wealth non-decreasing.
    """
    if gdp.unit is not Unit.GDP_TRILLION_USD2005_PER_YEAR:
        raise ThermoeconError(f"expected a GDP series, got {gdp.unit.token}")
    start, end = gdp.first_year, gdp.last_year
    if power.first_year != start:
        raise ThermoeconError(
            f"power starts in {power.first_year}, GDP in {start}; align them first"
        )
    if lambda0 is not None:
        _positive("lambda0", lambda0)
    if historical_gdp is not None:
        if historical_gdp.unit is not gdp.unit:
            raise ThermoeconError("historical GDP must share the GDP unit")
        epoch = historical_gdp.first_year
        if epoch >= start:
            raise ThermoeconError(
                f"historical record must begin before {start}, starts {epoch}"
            )
        keep = historical_gdp.years < start
        merged = _derived(
            np.concatenate([historical_gdp.years[keep], gdp.years]),
            np.concatenate([historical_gdp.values[keep], gdp.values]),
            gdp.unit,
            gdp.label,
        )
        rate = interpolate(merged, annual_grid(epoch, end))
        init_mode, initial = "integrated_from_epoch", 0.0
    elif lambda0 is not None:
        lambda0, power0 = float(lambda0), float(power.values[0])
        rate = gdp
        init_mode = "calibrated_from_lambda"
        # Python floats overflow to inf and underflow to 0 without a warning
        initial = LAMBDA_SCALE * power0 / lambda0
        if not 0.0 < initial < math.inf:
            raise ThermoeconError(
                f"lambda0 = {lambda0!r} puts the calibrated wealth "
                f"1000 * {power0!r} / lambda0 outside double precision"
            )
    else:
        raise ThermoeconError(
            "need lambda0 for calibrated wealth or a historical GDP record"
        )
    return cumulative_integral(rate, from_year=start, initial=initial), init_mode


@dataclass(frozen=True)
class ModelFit:
    """Pointwise ratio series and their summary statistics over one window."""

    window: tuple[int, int]
    lambda_series: AnnualSeries
    lambda_mean: float
    lambda_rel_std: float
    eta_series: AnnualSeries
    eta_mean: float
    f_series: AnnualSeries
    f_mean: float


def fit_lambda(power: AnnualSeries, wealth: AnnualSeries, gdp: AnnualSeries) -> ModelFit:
    """Form lambda = a/C, eta = Y/C and f = Y/a from three aligned series.

    The three series must share one year grid; the fit window is that grid.
    Relative spread is the population standard deviation over the mean,
    the figure of merit for "is lambda actually constant". A statistic
    that leaves double range raises ThermoeconError naming it.
    """
    if len(wealth) == 0:
        raise ThermoeconError("empty fit window")
    lam = power / wealth
    eta = gdp / wealth
    f = gdp / power
    # the spread squares lambda, so it overflows first, from lambda ~1.3e154
    with np.errstate(all="ignore"):
        fit = ModelFit(
            window=(wealth.first_year, wealth.last_year),
            lambda_series=lam,
            lambda_mean=float(np.mean(lam.values)),
            lambda_rel_std=float(np.std(lam.values) / np.mean(lam.values)),
            eta_series=eta,
            eta_mean=float(np.mean(eta.values)),
            f_series=f,
            f_mean=float(np.mean(f.values)),
        )
    for name, value in {
        "lambda mean": fit.lambda_mean,
        "lambda spread": fit.lambda_rel_std,
        "eta mean": fit.eta_mean,
        "energy productivity mean": fit.f_mean,
    }.items():
        if not math.isfinite(value):
            start, end = fit.window
            raise ThermoeconError(f"{name} over {start}:{end} overflows double precision")
    return fit


@dataclass(frozen=True)
class InnovationFit:
    """Least-squares trend of ln(eta) against calendar year.

    slope is the innovation rate d ln(eta)/dt in 1/yr; tau_eta is its
    reciprocal when growth is positive and None otherwise. intercept is
    ln(eta) at center_year, the mean fit year, where the regression is
    anchored for conditioning.
    """

    window: tuple[int, int]
    slope: float
    intercept: float
    center_year: float
    tau_eta: float | None
    residual_rms: float
    n_points: int


def fit_innovation(
    eta: AnnualSeries,
    window: tuple[int, int] | None = None,
) -> InnovationFit:
    """Regress ln(eta) on year; needs at least 3 points and positive eta.

    A window reaching past eta's years is refused, not clipped.
    """
    if window is not None:
        start, end = window
        if start < eta.first_year or end > eta.last_year:
            raise ThermoeconError(
                f"window {start}:{end} extrapolates beyond series {eta.label!r} "
                f"coverage [{eta.first_year}, {eta.last_year}]"
            )
        eta = eta.window(start, end)
    if len(eta) < MIN_INNOVATION_POINTS:
        where = "" if window is None else f" in window {window[0]}:{window[1]}"
        raise ThermoeconError(
            f"innovation fit needs at least {MIN_INNOVATION_POINTS} points, got {len(eta)}{where}"
        )
    if np.any(eta.values <= 0.0):
        raise ThermoeconError("eta must be positive to fit ln(eta)")
    x = eta.years.astype(float)
    center = float(x.mean())
    x = x - center
    y = np.log(eta.values)
    slope = float(np.dot(x, y) / np.dot(x, x))
    intercept = float(y.mean())
    residuals = y - (intercept + slope * x)
    rms = float(np.sqrt(np.mean(residuals**2)))
    tau = 1.0 / slope if slope > 0.0 else None
    return InnovationFit(
        window=(eta.first_year, eta.last_year),
        slope=slope,
        intercept=intercept,
        center_year=center,
        tau_eta=tau,
        residual_rms=rms,
        n_points=len(eta),
    )


class FitResult(NamedTuple):
    """Every stage of one run_fit; init_mode names the wealth anchor."""

    model: ModelFit
    innovation: InnovationFit
    wealth: AnnualSeries
    init_mode: str

    @property
    def predicted_growth(self) -> float:
        """GDP growth d ln(Y)/dt = eta + d ln(eta)/dt, in 1/yr.

        The mean return plus the innovation rate, both over the one fit
        grid. The reference split for the 1970-2009 benchmark window is a
        1.87 %/yr mean return plus a 0.93 %/yr innovation rate, 2.80 %/yr
        in total, against an observed mean GDP growth of 2.93 %/yr over
        those years, 0.13 points more than the split predicts. The
        annual-grid fit here lands near 1.84 + 1.13 instead; both terms
        move with gridding and smoothing choices, their sum much less so.
        """
        return self.model.eta_mean + self.innovation.slope

    def state_at(self, year: int) -> tuple[float, float, float]:
        """(c0, eta0, lambda0) of the fit at `year`, the state a Scenario
        starts from; unrounded, unlike `Table1.state_at`'s printed digits."""
        m = self.model
        return tuple(s.value_at(year) for s in (self.wealth, m.eta_series, m.lambda_series))


def run_fit(
    gdp: AnnualSeries,
    power: AnnualSeries,
    window: tuple[int, int] | None = None,
    lambda0: float | None = None,
    historical_gdp: AnnualSeries | None = None,
) -> FitResult:
    """Whole fitting pipeline on one annual grid.

    GDP and power must overlap on at least MIN_FIT_OVERLAP_YEARS years,
    and the window must span at least MIN_INNOVATION_POINTS years. The
    window defaults to that overlap; both series are interpolated onto
    its annual grid once, and every later stage works on those dense,
    aligned series. Wealth is integrated from a historical record when one
    is supplied, otherwise calibrated at the window start with lambda0.
    """
    overlap = (
        max(gdp.first_year, power.first_year),
        min(gdp.last_year, power.last_year),
    )
    n_overlap = overlap[1] - overlap[0] + 1
    if n_overlap < MIN_FIT_OVERLAP_YEARS:
        raise ThermoeconError(
            f"GDP and power overlap on {max(n_overlap, 0)} years; "
            f"need at least {MIN_FIT_OVERLAP_YEARS} consecutive years for fitting"
        )
    start, end = overlap if window is None else window
    if end < start:
        raise ThermoeconError(f"window {start}:{end} is empty")
    if end - start + 1 < MIN_INNOVATION_POINTS:
        raise ThermoeconError(
            f"fit window {start}:{end} covers {end - start + 1} years; "
            f"the innovation fit needs at least {MIN_INNOVATION_POINTS}"
        )
    grid = annual_grid(start, end)
    gdp_d = interpolate(gdp, grid)
    # every series of the fit is put on gdp_d's years, interpolate's private
    # copy of the grid, so each later stage and the writer see one array
    years = gdp_d.years
    power_d = interpolate(power, grid)
    power_d = _stored(years, power_d.values, power_d.unit, power_d.label)
    wealth, init_mode = build_wealth(
        gdp_d, power_d, lambda0=lambda0, historical_gdp=historical_gdp
    )
    wealth = _stored(years, wealth.values, wealth.unit, wealth.label)
    model = fit_lambda(power_d, wealth, gdp_d)
    return FitResult(model, fit_innovation(model.eta_series), wealth, init_mode)
