"""Unit-aware annual time series and the numerical operations on them.

Everything here is immutable and pure: series own read-only numpy arrays,
operations return new series. Years are integer calendar years; gaps are
allowed (sparse historical data) and every operation that needs an annual
grid says so and raises GapError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    GapError,
    InsufficientDataError,
    SeriesRangeError,
    UnitError,
    ValidationError,
)
from .units import Unit, division_rule, multiplication_rule

InterpolationMode = Literal["log_linear", "linear"]

# 2**63 as a float64 scalar, so that float16/32 years compare in float64
_INT64_FLOAT_BOUND = np.float64(2.0**63)


@dataclass(frozen=True)
class AnnualSeries:
    """Ordered (year, value) points with a declared unit.

    Invariants enforced at construction, in this order, each with its own
    ValidationError:

    * `years` and `values` are 1-d and the same length; a 0-d scalar pair
      counts as one point;
    * every year is an integer (integral floats and bools pass, since the
      check compares against the int64 cast; NaN, inf and float years
      outside int64 fail without a cast warning);
    * years are strictly increasing, so no duplicates;
    * every value is finite;
    * for units that require it (GDP, power, wealth), every value is
      strictly positive.

    `years` is stored as a read-only int64 array and `values` as a
    read-only float64 array, each a private copy of the input.
    """

    years: np.ndarray
    values: np.ndarray
    unit: Unit
    label: str = ""

    def __post_init__(self):
        years = np.asarray(self.years)
        if years.ndim == 0:
            years = years.reshape(1)
        values = np.array(self.values, dtype=float, ndmin=1)
        if years.shape != values.shape or years.ndim != 1:
            raise ValidationError("years and values must be 1-d and the same length")
        # signed-integer years pass this check by construction; float years
        # the int64 cast cannot hold (NaN, inf, 2**63 and beyond) fail
        # before the cast, which would warn
        if years.dtype.kind != "i" and years.size:
            castable = years.dtype.kind != "f" or (
                (years >= -_INT64_FLOAT_BOUND) & (years < _INT64_FLOAT_BOUND)
            ).all()
            if not (castable and np.array_equal(years, years.astype(np.int64))):
                raise ValidationError("years must be integers")
        years = years.astype(np.int64)
        # compares neighbours directly: np.diff would wrap at extreme years
        if (years[1:] <= years[:-1]).any():
            raise ValidationError("years must be strictly increasing with no duplicates")
        if not np.isfinite(values).all():
            raise ValidationError(f"non-finite value in series {self.label!r}")
        if self.unit.requires_positive and years.size and values.min() <= 0.0:
            raise ValidationError(
                f"{self.unit.token} series {self.label!r} must be strictly positive"
            )
        years.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_points(
        cls,
        points: Iterable[tuple[int, float]],
        unit: Unit,
        label: str = "",
        sort: bool = False,
    ) -> "AnnualSeries":
        pts = list(points)
        if sort:
            pts.sort(key=lambda p: p[0])
        years = [p[0] for p in pts]
        values = [p[1] for p in pts]
        return cls(np.array(years), np.array(values), unit, label)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return int(self.years.size)

    @property
    def first_year(self) -> int:
        if not len(self):
            raise InsufficientDataError("empty series has no coverage")
        return int(self.years[0])

    @property
    def last_year(self) -> int:
        if not len(self):
            raise InsufficientDataError("empty series has no coverage")
        return int(self.years[-1])

    @property
    def is_dense(self) -> bool:
        """True when the series covers every year from first to last."""
        return len(self) <= 1 or bool(np.all(np.diff(self.years) == 1))

    def value_at(self, year: int) -> float:
        idx = np.searchsorted(self.years, year)
        if idx >= len(self) or self.years[idx] != year:
            raise SeriesRangeError(f"year {year} not in series {self.label!r}")
        return float(self.values[idx])

    def window(self, start_year: int, end_year: int) -> "AnnualSeries":
        """Sub-series with start_year <= year <= end_year."""
        if start_year > end_year:
            raise SeriesRangeError(f"bad window [{start_year}, {end_year}]")
        mask = (self.years >= start_year) & (self.years <= end_year)
        return AnnualSeries(self.years[mask], self.values[mask], self.unit, self.label)

    def with_values(self, values: np.ndarray, unit: Unit | None = None, label: str | None = None):
        return AnnualSeries(
            self.years,
            values,
            self.unit if unit is None else unit,
            self.label if label is None else label,
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_aligned(self, other: "AnnualSeries"):
        if not np.array_equal(self.years, other.years):
            raise ValidationError(
                f"series {self.label!r} and {other.label!r} are on different year grids; "
                f"interpolate explicitly first"
            )

    def __add__(self, other: "AnnualSeries") -> "AnnualSeries":
        if not isinstance(other, AnnualSeries):
            return NotImplemented
        if self.unit is not other.unit:
            raise UnitError(f"cannot add {self.unit.token} and {other.unit.token}")
        self._check_aligned(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "AnnualSeries") -> "AnnualSeries":
        if not isinstance(other, AnnualSeries):
            return NotImplemented
        if self.unit is not other.unit:
            raise UnitError(f"cannot subtract {other.unit.token} from {self.unit.token}")
        self._check_aligned(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.with_values(self.values * float(other))
        if isinstance(other, AnnualSeries):
            self._check_aligned(other)
            unit, scale = multiplication_rule(self.unit, other.unit)
            return AnnualSeries(self.years, self.values * other.values * scale, unit)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self.with_values(self.values / float(other))
        if isinstance(other, AnnualSeries):
            self._check_aligned(other)
            unit, scale = division_rule(self.unit, other.unit)
            return AnnualSeries(self.years, self.values / other.values * scale, unit)
        return NotImplemented


@dataclass(frozen=True)
class WealthSeries:
    """Cumulative wealth C(t) plus the metadata of how it was initialized."""

    series: AnnualSeries
    init_mode: Literal["integrated_from_epoch", "calibrated_from_lambda"]
    init_year: int
    init_value: float

    def __post_init__(self):
        if self.series.unit is not Unit.WEALTH_TRILLION_USD2005:
            raise UnitError("WealthSeries requires wealth_trillion_usd2005 values")
        if self.init_mode not in ("integrated_from_epoch", "calibrated_from_lambda"):
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")
        if self.series.value_at(self.init_year) != self.init_value:
            raise ValidationError("series value at init_year must equal init_value exactly")
        if np.any(np.diff(self.series.values) < 0.0):
            raise ValidationError("wealth must be non-decreasing (GDP is positive)")

    @property
    def years(self) -> np.ndarray:
        return self.series.years

    @property
    def values(self) -> np.ndarray:
        return self.series.values

    def value_at(self, year: int) -> float:
        return self.series.value_at(year)


# ---------------------------------------------------------------------------
# operations


def interpolate(
    series: AnnualSeries, year_grid: Sequence[int], mode: InterpolationMode
) -> AnnualSeries:
    """Resample a series onto `year_grid`, exactly reproducing original points.

    `log_linear` interpolates ln(value) linearly in time (exact for
    exponential growth between knots) and requires positive values;
    `linear` interpolates the values themselves. Extrapolation is refused.
    """
    if mode not in ("log_linear", "linear"):
        raise ValidationError(f"unknown interpolation mode {mode!r}")
    if len(series) == 0:
        raise InsufficientDataError("cannot interpolate an empty series")
    grid = np.atleast_1d(np.asarray(year_grid, dtype=np.int64))
    if grid.size == 0:
        return AnnualSeries(grid, np.array([]), series.unit, series.label)
    if grid.min() < series.first_year or grid.max() > series.last_year:
        raise SeriesRangeError(
            f"grid [{grid.min()}, {grid.max()}] extrapolates beyond series "
            f"{series.label!r} coverage [{series.first_year}, {series.last_year}]"
        )
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("year_grid must be strictly increasing")

    x = series.years.astype(float)
    g = grid.astype(float)
    if mode == "log_linear":
        if np.any(series.values <= 0.0):
            raise DomainError("log_linear interpolation requires strictly positive values")
        out = np.exp(np.interp(g, x, np.log(series.values)))
    else:
        out = np.interp(g, x, series.values)
    # knot years reproduce stored values bit-exactly, immune to log/exp noise
    knot = np.searchsorted(series.years, grid)
    knot_mask = (knot < len(series)) & (series.years[np.minimum(knot, len(series) - 1)] == grid)
    out[knot_mask] = series.values[knot[knot_mask]]
    return AnnualSeries(grid, out, series.unit, series.label)


def cumulative_integral(series: AnnualSeries, from_year: int, initial: float) -> AnnualSeries:
    """Trapezoidal running integral of a dense annual rate series.

    The integral starts at the series' first year with the value `initial`,
    and each later year adds the trapezoid of one annual step. Only the
    years from `from_year` on are returned, so a stock that starts at zero
    before them never has to be a series of its own. Output unit is the
    rate unit integrated over years (e.g. T$/yr -> T$).
    """
    out_unit = series.unit.integral_unit
    if len(series) == 0:
        raise InsufficientDataError("cannot integrate an empty series")
    if from_year < series.first_year or from_year > series.last_year:
        raise SeriesRangeError(
            f"from_year {from_year} outside series coverage "
            f"[{series.first_year}, {series.last_year}]"
        )
    if not series.is_dense:
        raise GapError(f"series {series.label!r} has gaps; interpolate before integrating")
    v = series.values
    run = initial + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]))])
    k = from_year - series.first_year
    return AnnualSeries(series.years[k:], run[k:], out_unit, series.label)


def log_derivative(series: AnnualSeries) -> AnnualSeries:
    """d ln(value)/dt by centered differences, one-sided at the endpoints.

    Exact for pure exponentials, which is the native family here. Requires a
    dense annual, strictly positive series of at least two points.
    """
    if len(series) < 2:
        raise InsufficientDataError("log_derivative needs at least 2 points")
    if not series.is_dense:
        raise GapError(f"series {series.label!r} has gaps; interpolate before differentiating")
    if np.any(series.values <= 0.0):
        raise DomainError("log_derivative requires strictly positive values")
    ln = np.log(series.values)
    out = np.empty_like(ln)
    out[0] = ln[1] - ln[0]
    out[-1] = ln[-1] - ln[-2]
    if len(series) > 2:
        out[1:-1] = 0.5 * (ln[2:] - ln[:-2])
    return AnnualSeries(series.years, out, Unit.PER_YEAR_FRACTION, series.label)


def rolling_mean(series: AnnualSeries, window_years: int) -> AnnualSeries:
    """Centered moving average over `window_years`, same years out as in.

    Even windows use the classic centered form: full weight on the inner
    points and half weight on the two extremes, so a 10-year window spans
    11 points with total weight 10 and stays phase-neutral. Near the edges
    the window shrinks symmetrically around each point.

    Full windows are summed as sliding windows, not as a running cumulative
    sum: each window is one numpy reduction over its own points, so the
    result is bit-for-bit that of averaging every window separately.
    """
    if window_years < 1:
        raise ValidationError("window_years must be >= 1")
    if len(series) == 0:
        return series
    if not series.is_dense:
        raise GapError(f"series {series.label!r} has gaps; interpolate before smoothing")
    v = series.values
    n = len(v)
    half = window_years // 2
    out = np.empty_like(v)
    full = n - 2 * half  # points whose whole window lies inside the series
    if full > 0:
        if window_years % 2:
            total = sliding_window_view(v, window_years).sum(axis=1)
        else:
            # inner 2*half-1 points at full weight, the two extremes at half
            inner = sliding_window_view(v[1:-1], window_years - 1).sum(axis=1)
            total = inner + 0.5 * (v[:full] + v[window_years:])
        out[half : n - half] = total / window_years
    for i in (*range(min(half, n)), *range(max(n - half, half), n)):
        h = min(i, n - 1 - i)
        out[i] = v[i - h : i + h + 1].mean()
    return series.with_values(out)


def exponential_series(
    start_year: int,
    n_years: int,
    initial: float,
    growth_rate: float,
    unit: Unit = Unit.DIMENSIONLESS,
    label: str = "",
) -> AnnualSeries:
    """Annual series initial * exp(growth_rate * k), k = 0..n_years-1.

    Test/synthetic-data helper; exponentials are the model's native family.
    """
    years = np.arange(start_year, start_year + n_years, dtype=np.int64)
    values = initial * np.exp(growth_rate * np.arange(n_years, dtype=float))
    return AnnualSeries(years, values, unit, label)


def annual_grid(start_year: int, end_year: int) -> np.ndarray:
    if end_year < start_year:
        raise SeriesRangeError(f"bad year range [{start_year}, {end_year}]")
    return np.arange(start_year, end_year + 1, dtype=np.int64)
