"""Numerical toolkit for a thermodynamic model of economic wealth.

Wealth is the time integral of inflation-adjusted production, primary
power consumption stays in fixed proportion to it, and growth is set by
the rate of return eta = GDP/wealth, which itself drifts upward at the
innovation rate. The package fits those relations to annual records and
runs the resulting closed-form trajectories forward.
"""

from .errors import (
    HorizonOverflowError,
    HorizonUnderflowError,
    ParseError,
    ThermoeconError,
)
from .forecast import (
    DoublingTimes,
    ForecastPath,
    Scenario,
    doubling_time_series,
    doubling_times,
    eta_from_productivity,
    eta_trajectory,
    forecast,
    log_wealth_ratio,
)
from .growth import (
    FitResult,
    InnovationFit,
    ModelFit,
    build_wealth,
    fit_innovation,
    fit_lambda,
    run_fit,
)
from .ingest import (
    Table1,
    builtin_table1,
    load_series,
    write_table,
)
from .series import (
    AnnualSeries,
    annual_grid,
    cumulative_integral,
    interpolate,
    log_derivative,
    rolling_mean,
)
from .units import SECONDS_PER_YEAR, Unit, parse_unit_token

__version__ = "0.1.0"

__all__ = [
    "AnnualSeries",
    "DoublingTimes",
    "FitResult",
    "ForecastPath",
    "HorizonOverflowError",
    "HorizonUnderflowError",
    "InnovationFit",
    "ModelFit",
    "ParseError",
    "SECONDS_PER_YEAR",
    "Scenario",
    "Table1",
    "ThermoeconError",
    "Unit",
    "annual_grid",
    "build_wealth",
    "builtin_table1",
    "cumulative_integral",
    "doubling_time_series",
    "doubling_times",
    "eta_from_productivity",
    "eta_trajectory",
    "fit_innovation",
    "fit_lambda",
    "forecast",
    "interpolate",
    "load_series",
    "log_derivative",
    "log_wealth_ratio",
    "parse_unit_token",
    "rolling_mean",
    "run_fit",
    "write_table",
]
