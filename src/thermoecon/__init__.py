"""Numerical toolkit for a thermodynamic model of economic wealth.

Wealth is the time integral of inflation-adjusted production, primary
power consumption stays in fixed proportion to it, and growth is set by
the rate of return eta = GDP/wealth, which itself drifts upward at the
innovation rate. The package fits those relations to annual records and
runs the resulting closed-form trajectories forward.

Only the names a user of the model calls are exported here; the series
operations, fit stages and result types stay in their own modules, e.g.
`thermoecon.series.interpolate` and `thermoecon.growth.FitResult`.
"""

from .errors import (
    HorizonOverflowError,
    HorizonUnderflowError,
    ParseError,
    ThermoeconError,
)
from .forecast import (
    Scenario,
    doubling_time_series,
    doubling_times,
    eta_from_productivity,
    forecast,
)
from .growth import fit_innovation, run_fit
from .ingest import builtin_table1, load_series, write_table
from .series import AnnualSeries
from .units import Unit

__version__ = "0.1.0"

__all__ = [
    "AnnualSeries",
    "HorizonOverflowError",
    "HorizonUnderflowError",
    "ParseError",
    "Scenario",
    "ThermoeconError",
    "Unit",
    "builtin_table1",
    "doubling_time_series",
    "doubling_times",
    "eta_from_productivity",
    "fit_innovation",
    "forecast",
    "load_series",
    "run_fit",
    "write_table",
]
