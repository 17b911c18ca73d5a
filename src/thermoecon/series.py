"""Unit-aware annual time series and the numerical operations on them.

Everything here is immutable and pure: series own read-only numpy arrays,
operations return new series. Years are integer calendar years; gaps are
allowed (sparse historical data) and every operation that needs an annual
grid says so and raises ThermoeconError otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ThermoeconError
from .units import Unit, division_rule

#: Longest span, in years, of any annual grid: a million years is 8 MB per column
MAX_GRID_YEARS = 1_000_000

# 2**63 as a float64 scalar, so that float16/32 years compare in float64
_INT64_FLOAT_BOUND = np.float64(2.0**63)
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, eq=False)
class AnnualSeries:
    """Ordered (year, value) points with a declared unit.

    Invariants enforced at construction, in this order, each with its own
    ThermoeconError message:

    * every value is a real number: complex input, and strings, bytes,
      None, dates or anything else that is not a real number, are
      refused before the float cast;
    * `years` and `values` are 1-d and the same length; a 0-d scalar pair
      counts as one point;
    * every year is an integer (integral floats and bools pass, since the
      check compares against the int64 cast; NaN, inf and float or Python
      int years outside int64 fail without a cast warning);
    * years are strictly increasing, so no duplicates;
    * every value is finite;
    * for units that require it (GDP, power, wealth), every value is
      strictly positive.

    The constructor stores `years` as a read-only int64 array and `values`
    as a read-only float64 array, each a private copy of its input.
    `with_values` builds a series on the same years: it shares this
    series' read-only years array, already checked, and copies and checks
    only the new values. A forecast stores its four columns as the rows of
    one private read-only block on its scenario's read-only year grid, so
    `values` may be one row of that block; either way no caller's array
    is ever aliased. Equality and hashing are by identity.
    """

    years: np.ndarray
    values: np.ndarray
    unit: Unit
    label: str = ""

    def __post_init__(self):
        years = np.asarray(self.years)
        if years.ndim == 0:
            years = years.reshape(1)
        values = _values_on(years, self.values, self.label)
        if not _increasing(years := _int64_years(years)):
            raise ThermoeconError("years must be strictly increasing with no duplicates")
        years.flags.writeable = False
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", _checked_values(values, self.unit, self.label))

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return int(self.years.size)

    @property
    def first_year(self) -> int:
        if not len(self):
            raise ThermoeconError("empty series has no coverage")
        return int(self.years[0])

    @property
    def last_year(self) -> int:
        if not len(self):
            raise ThermoeconError("empty series has no coverage")
        return int(self.years[-1])

    @property
    def is_dense(self) -> bool:
        """True when the series covers every year from first to last."""
        return len(self) <= 1 or bool(np.all(np.diff(self.years) == 1))

    def value_at(self, year: int) -> float:
        idx = np.searchsorted(self.years, year)
        if idx >= len(self) or self.years[idx] != year:
            raise ThermoeconError(f"year {year} not in series {self.label!r}")
        return float(self.values[idx])

    def window(self, start_year: int, end_year: int) -> "AnnualSeries":
        """Sub-series with start_year <= year <= end_year; both bounds are
        integers, or integral floats."""
        start, end = _integral(start_year), _integral(end_year)
        if start is None or end is None:
            raise ThermoeconError(f"window [{start_year}, {end_year}] holds a non-integer year")
        start_year, end_year = start, end
        if start_year > end_year:
            raise ThermoeconError(f"bad window [{start_year}, {end_year}]")
        mask = (self.years >= start_year) & (self.years <= end_year)
        return AnnualSeries(self.years[mask], self.values[mask], self.unit, self.label)

    def with_values(
        self, values: np.ndarray, unit: Unit | None = None, label: str | None = None
    ) -> AnnualSeries:
        """A series on these same years, sharing this series' years array.

        The values get every check the constructor makes, with the same
        messages; unit and label default to this series' own.
        """
        unit = self.unit if unit is None else unit
        label = self.label if label is None else label
        values = _checked_values(_values_on(self.years, values, label), unit, label)
        return _stored(self.years, values, unit, label)

    def __truediv__(self, other):
        if not isinstance(other, AnnualSeries):
            return NotImplemented
        if not np.array_equal(self.years, other.years):
            raise ThermoeconError(
                f"series {self.label!r} and {other.label!r} are on different "
                "year grids; interpolate explicitly first"
            )
        unit, scale = division_rule(self.unit, other.unit)
        with np.errstate(all="ignore"):
            values = self.values / other.values * scale
        _check_overflow(f"series {self.label!r} / {other.label!r}", self.years, values)
        return self.with_values(values, unit, label="")


def _check_overflow(what: str, years: np.ndarray, values: np.ndarray) -> None:
    """Raise ThermoeconError naming `what` and the first year of a non-finite value."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ThermoeconError(f"{what} overflows double precision at year {years[bad.argmax()]}")


def _finite(value: float) -> bool:
    """False for NaN, +-inf and an int past double range; never converts to float."""
    return abs(value) <= _FLOAT_MAX


def _positive(name: str, value: float) -> None:
    """Raise ThermoeconError unless the scalar `value` is finite and positive."""
    if not 0.0 < value <= _FLOAT_MAX:
        rule = "positive" if _finite(value) else "finite"
        raise ThermoeconError(f"{name} must be {rule}, got {value}")


def _representable(value: float, what: str, *args) -> None:
    """Raise ThermoeconError unless `value` is nonzero and finite; formats `what` only then."""
    if not (value != 0.0 and _finite(value)):
        fate = "rounds to zero in" if value == 0.0 else "overflows"
        raise ThermoeconError(f"{what.format(*args)} {fate} double precision")


def _values_on(years: np.ndarray, values, label: str) -> np.ndarray:
    """`values` of series `label` as a private float64 copy shaped as the 1-d `years`.

    Bools, ints and floats pass on one dtype test. Anything else is taken
    cell by cell and refused before the float cast, which would parse a
    string, turn None into NaN and drop an imaginary part with only a
    warning: a complex cell as complex, and a string, bytes, None or any
    cell that does not convert to float as non-numeric. Nesting of unequal
    length is a shape error.
    """
    try:
        cast = np.array(values, ndmin=1)
    except ValueError:  # ragged nesting
        raise ThermoeconError("years and values must be 1-d and the same length") from None
    if cast.dtype.kind not in "biuf":
        cast = _real_cells(cast, values, label)
    if years.ndim != 1 or cast.shape != years.shape:
        raise ThermoeconError("years and values must be 1-d and the same length")
    return cast.astype(float, copy=False)


def _real_cells(cast: np.ndarray, values, label: str) -> np.ndarray:
    """`cast`, which numpy did not type as real numbers, as float64 if every cell is one."""
    cells = np.array(values, dtype=object).ravel()
    if any(isinstance(c, (complex, np.complexfloating)) for c in cells):
        raise ThermoeconError(f"complex value in series {label!r}")
    if cast.dtype.kind == "O" and not any(c is None or isinstance(c, (str, bytes)) for c in cells):
        try:
            return cast.astype(float)
        except OverflowError:  # a Python int past double range
            raise ThermoeconError(f"non-finite value in series {label!r}") from None
        except (TypeError, ValueError):
            pass
    raise ThermoeconError(f"non-numeric value in series {label!r}")


def _int64_years(years: np.ndarray) -> np.ndarray:
    """`years` as a private int64 copy; ThermoeconError unless every year is an integer."""
    # signed-integer years pass by construction; float and object (Python
    # int) years past int64 (NaN, inf, 2**63 on) fail before the cast warns or raises
    if years.dtype.kind != "i" and years.size:
        with np.errstate(invalid="ignore"):  # a NaN among Python ints warns here
            castable = years.dtype.kind not in "fO" or (
                (years >= -_INT64_FLOAT_BOUND) & (years < _INT64_FLOAT_BOUND)
            ).all()
        if not (castable and np.array_equal(years, years.astype(np.int64))):
            raise ThermoeconError("years must be integers")
    return years.astype(np.int64)


def _increasing(years: np.ndarray) -> bool:
    """True if the int64 `years` strictly increase; np.diff would wrap at extreme years."""
    return not (years[1:] <= years[:-1]).any()


def _checked_values(values: np.ndarray, unit: Unit, label: str) -> np.ndarray:
    """The float64 `values` of series `label`, checked and made read-only in place.

    One max and one min prove every value finite and above its unit's
    floor (NaN fails both). Only a failed proof scans for a non-finite
    value, reported before a non-positive one.
    """
    floor = 0.0 if unit.requires_positive else -math.inf
    if values.size and not (values.max() < math.inf and values.min() > floor):
        if not np.isfinite(values).all():
            raise ThermoeconError(f"non-finite value in series {label!r}")
        # every value is finite, so the min sits at or below a zero floor
        raise ThermoeconError(f"{unit.token} series {label!r} must be strictly positive")
    values.flags.writeable = False
    return values


def _stored(years: np.ndarray, values: np.ndarray, unit: Unit, label: str) -> AnnualSeries:
    """A series on arrays already checked and read-only, built without
    __post_init__, which would copy and check them again."""
    out = object.__new__(AnnualSeries)
    out.__dict__.update(years=years, values=values, unit=unit, label=label)
    return out


# ---------------------------------------------------------------------------
# operations


def interpolate(series: AnnualSeries, year_grid: Sequence[int]) -> AnnualSeries:
    """Resample a series onto `year_grid`, exactly reproducing original points.

    ln(value) is interpolated linearly in time, which is exact for
    exponential growth between knots and requires positive values.
    Extrapolation is refused, and so is a grid year that is not an integer.
    """
    if len(series) == 0:
        raise ThermoeconError("cannot interpolate an empty series")
    grid = _int64_years(np.atleast_1d(np.asarray(year_grid)))
    if grid.size == 0:
        return AnnualSeries(grid, np.array([]), series.unit, series.label)
    if grid.min() < series.first_year or grid.max() > series.last_year:
        raise ThermoeconError(
            f"grid [{grid.min()}, {grid.max()}] extrapolates beyond series "
            f"{series.label!r} coverage [{series.first_year}, {series.last_year}]"
        )
    if not _increasing(grid):
        raise ThermoeconError("year_grid must be strictly increasing")

    if np.any(series.values <= 0.0):
        raise ThermoeconError("log_linear interpolation requires strictly positive values")
    x = series.years.astype(float)
    out = np.exp(np.interp(grid.astype(float), x, np.log(series.values)))
    # knot years reproduce stored values bit-exactly, immune to log/exp noise
    knot = np.searchsorted(series.years, grid)
    knot_mask = (knot < len(series)) & (series.years[np.minimum(knot, len(series) - 1)] == grid)
    out[knot_mask] = series.values[knot[knot_mask]]
    return AnnualSeries(grid, out, series.unit, series.label)


def cumulative_integral(series: AnnualSeries, from_year: int, initial: float) -> AnnualSeries:
    """Wealth accumulated from a dense annual GDP series: dC/dt = Y.

    The integral starts at the series' first year with the value `initial`,
    and each later year adds the trapezoid of one annual step. Only the
    years from `from_year` on are returned, so a stock that starts at zero
    before them never has to be a series of its own. Only GDP (T$/yr)
    integrates, into wealth (T$), whose token is the output label. A sum
    past the largest double raises ThermoeconError, as do any other unit,
    a from_year that is not an integer and an initial that is not finite.
    """
    if series.unit is not Unit.GDP_TRILLION_USD2005_PER_YEAR:
        raise ThermoeconError(f"cannot integrate a series in {series.unit.token} over years")
    out_unit = Unit.WEALTH_TRILLION_USD2005
    if len(series) == 0:
        raise ThermoeconError("cannot integrate an empty series")
    if (year := _integral(from_year)) is None:
        raise ThermoeconError(f"from_year must be an integer, got {from_year}")
    if year < series.first_year or year > series.last_year:
        raise ThermoeconError(
            f"from_year {year} outside series coverage "
            f"[{series.first_year}, {series.last_year}]"
        )
    if not series.is_dense:
        raise ThermoeconError(f"series {series.label!r} has gaps; interpolate before integrating")
    if not _finite(initial):
        raise ThermoeconError(f"initial must be finite, got {initial}")
    v = series.values
    with np.errstate(all="ignore"):
        run = initial + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]))])
    _check_overflow(f"{out_unit.token} integral of series {series.label!r}", series.years, run)
    k = year - series.first_year
    return AnnualSeries(series.years[k:], run[k:], out_unit, out_unit.token)


def log_derivative(series: AnnualSeries) -> AnnualSeries:
    """d ln(value)/dt by centered differences, one-sided at the endpoints.

    Exact for pure exponentials, which is the native family here. Requires a
    dense annual, strictly positive series of at least two points.
    """
    if len(series) < 2:
        raise ThermoeconError("log_derivative needs at least 2 points")
    if not series.is_dense:
        raise ThermoeconError(
            f"series {series.label!r} has gaps; interpolate before differentiating"
        )
    if np.any(series.values <= 0.0):
        raise ThermoeconError("log_derivative requires strictly positive values")
    return series.with_values(np.gradient(np.log(series.values)), Unit.PER_YEAR_FRACTION)


def rolling_mean(series: AnnualSeries, window_years: int) -> AnnualSeries:
    """Centered moving average over `window_years`, same years out as in.

    Even windows use the classic centered form: full weight on the inner
    points and half weight on the two extremes, so a 10-year window spans
    11 points with total weight 10 and stays phase-neutral. Near the edges
    the window shrinks symmetrically around each point.

    Full windows are summed as sliding windows, not as a running cumulative
    sum: each window is one numpy reduction over its own points, so the
    result is bit-for-bit that of averaging every window separately.
    `window_years` must be an integer; an integral float passes.
    """
    if (window := _integral(window_years)) is None:
        raise ThermoeconError(f"window_years must be an integer, got {window_years}")
    if window < 1:
        raise ThermoeconError("window_years must be >= 1")
    if len(series) == 0:
        return series
    if not series.is_dense:
        raise ThermoeconError(f"series {series.label!r} has gaps; interpolate before smoothing")
    v = series.values
    n = len(v)
    half = window // 2
    out = np.empty_like(v)
    full = n - 2 * half  # points whose whole window lies inside the series
    if full > 0:
        if window % 2:
            total = sliding_window_view(v, window).sum(axis=1)
        else:
            # inner 2*half-1 points at full weight, the two extremes at half
            inner = sliding_window_view(v[1:-1], window - 1).sum(axis=1)
            total = inner + 0.5 * (v[:full] + v[window:])
        out[half : n - half] = total / window
    for i in (*range(min(half, n)), *range(max(n - half, half), n)):
        h = min(i, n - 1 - i)
        out[i] = v[i - h : i + h + 1].mean()
    return series.with_values(out)


def _integral(value) -> int | None:
    """`value` as an int if it is one, or an integral float; else None."""
    try:
        out = int(value)
    except (ValueError, OverflowError):  # NaN, inf
        return None
    return out if out == value else None


def annual_grid(start_year: int, end_year: int) -> np.ndarray:
    """Every year from start_year to end_year inclusive, as int64.

    Every dense grid in the package is built here, so its length and its
    range are checked once, before anything is allocated. Non-integral
    and non-finite years are refused, and so are years past +-2**53: the
    fits work on float years, which skip integers there.
    """
    start, end = _integral(start_year), _integral(end_year)
    if start is None or end is None:
        raise ThermoeconError(f"year range [{start_year}, {end_year}] holds a non-integer year")
    start_year, end_year = start, end
    if end_year < start_year:
        raise ThermoeconError(f"bad year range [{start_year}, {end_year}]")
    if end_year - start_year > MAX_GRID_YEARS:
        raise ThermoeconError(
            f"year range [{start_year}, {end_year}] spans more than {MAX_GRID_YEARS} years"
        )
    if start_year < -(2**53) or end_year > 2**53:
        raise ThermoeconError(f"year range [{start_year}, {end_year}] reaches past +-2**53")
    return np.arange(start_year, end_year + 1, dtype=np.int64)
