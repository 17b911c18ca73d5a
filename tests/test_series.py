import re
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import AnnualSeries, ThermoeconError, Unit, run_fit
from thermoecon.growth import build_wealth
from thermoecon.series import (
    MAX_GRID_YEARS,
    annual_grid,
    cumulative_integral,
    interpolate,
    log_derivative,
    rolling_mean,
)


@contextmanager
def every_warning_raises():
    """Every warning an error, as under -W error: a cast that warns, such
    as a complex value kept as its real part, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def exactly(message):
    """A `pytest.raises` match pattern for the whole of `message`, taken literally."""
    return f"^{re.escape(message)}$"


def series(values, start=2000, unit=Unit.DIMENSIONLESS):
    values = np.asarray(values, dtype=float)
    return AnnualSeries(np.arange(start, start + len(values)), values, unit)


def exponential_series(start_year, n_years, initial, growth_rate, unit, label=""):
    """Annual series initial * exp(growth_rate * k), k = 0..n_years-1.

    Synthetic-data helper for the whole suite; exponentials are the
    model's native family.
    """
    years = np.arange(start_year, start_year + n_years, dtype=np.int64)
    values = initial * np.exp(growth_rate * np.arange(n_years, dtype=float))
    return AnnualSeries(years, values, unit, label)


def rolling_mean_reference(v, window_years):
    """The original one-window-at-a-time rolling mean, kept as the oracle."""
    n = len(v)
    half = window_years // 2
    even = window_years % 2 == 0
    out = np.empty_like(v)
    for i in range(n):
        h = min(half, i, n - 1 - i)
        if even and h == half and h > 0:
            total = v[i - half + 1 : i + half].sum() + 0.5 * (v[i - half] + v[i + half])
            out[i] = total / window_years
        else:
            out[i] = v[i - h : i + h + 1].mean()
    return out


def annual_series_reference(years, values, unit, label=""):
    """The original AnnualSeries checks and copies, kept as the oracle.

    Returns the (years, values) arrays a series would store, or raises the
    error construction would raise.
    """
    years = np.atleast_1d(np.asarray(years))
    if any(isinstance(v, complex) for v in np.asarray(values, dtype=object).ravel().tolist()):
        raise ThermoeconError(f"complex value in series {label!r}")
    try:
        values = np.atleast_1d(np.asarray(values, dtype=float))
    except ValueError:
        raise ThermoeconError(f"non-numeric value in series {label!r}") from None
    if years.shape != values.shape or years.ndim != 1:
        raise ThermoeconError("years and values must be 1-d and the same length")
    if years.size and not np.array_equal(years, years.astype(np.int64)):
        raise ThermoeconError("years must be integers")
    years = years.astype(np.int64)
    if years.size > 1 and not np.all(np.diff(years) > 0):
        raise ThermoeconError("years must be strictly increasing with no duplicates")
    if not np.all(np.isfinite(values)):
        raise ThermoeconError(f"non-finite value in series {label!r}")
    if unit.requires_positive and years.size and not np.all(values > 0.0):
        raise ThermoeconError(f"{unit.token} series {label!r} must be strictly positive")
    return np.array(years, dtype=np.int64), np.array(values, dtype=float)


# year strategies per dtype; int64 stays inside +-2**62 so that the
# reference's np.diff cannot wrap (see test_extreme_years_do_not_wrap)
_YEAR_DTYPES = {
    "int8": (np.int8, st.integers(-(2**7), 2**7 - 1)),
    "int16": (np.int16, st.integers(-(2**15), 2**15 - 1)),
    "int32": (np.int32, st.integers(-(2**31), 2**31 - 1)),
    "int64": (np.int64, st.integers(-(2**62), 2**62)),
    "uint64": (np.uint64, st.integers(0, 2**64 - 1)),
    "bool": (np.bool_, st.booleans()),
    "float integral": (np.float64, st.integers(-(2**52), 2**52).map(float)),
    # bounded so the int64 cast of the reference stays defined
    "float": (np.float64, st.floats(-1e15, 1e15)),
}
_VALUES = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf]),
)
# values that are no real numbers, refused before any float cast
_NO_REAL_NUMBERS = st.sampled_from(
    [["a"], np.array([1 + 2j]), np.array([1.0, 1 + 2j], dtype=object)]
)


@st.composite
def series_inputs(draw):
    dtype, elements = _YEAR_DTYPES[draw(st.sampled_from(sorted(_YEAR_DTYPES)))]
    years = np.array(draw(st.lists(elements, max_size=6)), dtype=dtype)
    order = draw(st.sampled_from(["as drawn", "sorted", "sorted unique"]))
    if order == "sorted":
        years = np.sort(years)
    elif order == "sorted unique":
        years = np.unique(years)
    shape = draw(st.sampled_from(["1-d", "1-d", "1-d", "0-d", "2-d", "mismatched", "no real"]))
    n = years.size + (shape == "mismatched")
    values = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)), dtype=float)
    if shape == "0-d":
        years = np.array(draw(elements), dtype=dtype)
        values = np.array(draw(_VALUES))
    elif shape == "2-d":
        years, values = years.reshape(1, -1), values.reshape(1, -1)
    elif shape == "no real":
        values = draw(_NO_REAL_NUMBERS)
    unit = draw(st.sampled_from([Unit.DIMENSIONLESS, Unit.POWER_TERAWATT]))
    return years, values, unit


@st.composite
def with_values_inputs(draw):
    """A valid series and new values for it: NaN, inf, zero, negative, 2-d, off
    length, no real numbers."""
    years = np.unique(np.array(draw(st.lists(_YEAR_DTYPES["int64"][1], max_size=6)), np.int64))
    source = AnnualSeries(years, np.ones(years.size), Unit.DIMENSIONLESS, "source")
    shape = draw(st.sampled_from(["1-d", "1-d", "1-d", "0-d", "2-d", "short", "long", "no real"]))
    n = max(years.size + {"short": -1, "long": 1}.get(shape, 0), 0)
    values = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)), dtype=float)
    if shape == "0-d":
        values = np.array(draw(_VALUES))
    elif shape == "2-d":
        values = values.reshape(1, -1)
    elif shape == "no real":
        values = draw(_NO_REAL_NUMBERS)
    unit = draw(st.sampled_from([Unit.DIMENSIONLESS, Unit.POWER_TERAWATT]))
    return source, values, unit, draw(st.sampled_from(["", "x", "power"]))


class TestAnnualSeries:
    @given(series_inputs())
    @settings(max_examples=500, deadline=None)
    def test_checks_match_the_reference(self, inputs):
        years, values, unit = inputs
        try:
            want = annual_series_reference(years, values, unit, "x")
        except ThermoeconError as exc:
            with pytest.raises(type(exc)) as err, every_warning_raises():
                AnnualSeries(years, values, unit, "x")
            assert str(err.value) == str(exc)
            return
        with every_warning_raises():
            s = AnnualSeries(years, values, unit, "x")
        assert s.years.dtype == want[0].dtype and np.array_equal(s.years, want[0])
        assert s.values.dtype == want[1].dtype
        assert np.array_equal(s.values.view(np.int64), want[1].view(np.int64))
        assert not s.years.flags.writeable and not s.values.flags.writeable

    @given(with_values_inputs())
    @settings(max_examples=500, deadline=None)
    def test_with_values_checks_like_the_constructor(self, inputs):
        s, values, unit, label = inputs
        try:
            with every_warning_raises():
                want = AnnualSeries(s.years, values, unit, label)
        except ThermoeconError as exc:
            with pytest.raises(type(exc)) as err, every_warning_raises():
                s.with_values(values, unit, label)
            assert str(err.value) == str(exc)
            return
        with every_warning_raises():
            got = s.with_values(values, unit, label)
        assert got.years is s.years
        assert (got.unit, got.label) == (unit, label)
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
        assert not got.values.flags.writeable
        values[...] = 7.0  # a private copy: the caller's array stays its own
        assert np.array_equal(got.values, want.values)

    def test_stores_a_private_copy(self):
        years, values = np.arange(2000, 2003), np.ones(3)
        s = AnnualSeries(years, values, Unit.DIMENSIONLESS)
        years[0], values[0] = 1990, 9.0
        assert s.years[0] == 2000 and s.values[0] == 1.0
        assert years.flags.writeable and values.flags.writeable

    def test_extreme_years_do_not_wrap(self):
        # the reference's np.diff wraps to -1 here and rejects sorted years
        years = np.array([-(2**63), 2**63 - 1])
        s = AnnualSeries(years, np.ones(2), Unit.DIMENSIONLESS)
        assert list(s.years) == [-(2**63), 2**63 - 1]
        with pytest.raises(
            ThermoeconError, match=exactly("years must be strictly increasing with no duplicates")
        ):
            annual_series_reference(years, np.ones(2), Unit.DIMENSIONLESS)

    def test_basic_accessors(self):
        s = series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.first_year == 2000 and s.last_year == 2002
        assert s.value_at(2001) == 2.0
        assert s.is_dense

    def test_shape_mismatch_rejected(self):
        with pytest.raises(
            ThermoeconError, match=exactly("years and values must be 1-d and the same length")
        ):
            AnnualSeries(np.array([2000, 2001]), np.array([1.0]), Unit.DIMENSIONLESS)

    def test_years_must_increase_strictly(self):
        with pytest.raises(
            ThermoeconError, match=exactly("years must be strictly increasing with no duplicates")
        ):
            AnnualSeries(np.array([2001, 2000]), np.ones(2), Unit.DIMENSIONLESS)
        with pytest.raises(
            ThermoeconError, match=exactly("years must be strictly increasing with no duplicates")
        ):
            AnnualSeries(np.array([2000, 2000]), np.ones(2), Unit.DIMENSIONLESS)

    def test_fractional_years_rejected(self):
        with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
            AnnualSeries(np.array([2000.5, 2001.5]), np.ones(2), Unit.DIMENSIONLESS)

    @pytest.mark.parametrize(
        "years",
        [
            [np.nan, 2000.0],
            [2000.0, np.inf],
            [-np.inf, 2000.0],
            [2.0**63, 2.0**64],
            [-1e19, 2000.0],
            np.array([np.nan, 2000.0], dtype=np.float32),
            np.array([2000.0, np.inf], dtype=np.float16),
            [1, 2**64],  # Python ints past int64 make an object array
        ],
    )
    def test_uncastable_float_years_rejected_without_warning(self, years):
        # the suite turns RuntimeWarning into an error, so a cast warning fails
        with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
            AnnualSeries(np.asarray(years), np.ones(2), Unit.DIMENSIONLESS)

    @pytest.mark.parametrize("years", [[-(2**63) - 1, np.nan], [np.nan, 10**400]])
    def test_nan_among_python_ints_rejected_without_warning(self, years):
        # Python ints past int64 make an object array; its NaN must not warn
        with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
            AnnualSeries(np.asarray(years), np.ones(2), Unit.DIMENSIONLESS)
        with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
            interpolate(series(np.ones(3)), years)

    def test_float_years_at_the_int64_bounds(self):
        s = AnnualSeries(np.array([-(2.0**63), 2.0**62]), np.ones(2), Unit.DIMENSIONLESS)
        assert list(s.years) == [-(2**63), 2**62]

    def test_non_finite_values_rejected(self):
        with pytest.raises(ThermoeconError, match=exactly("non-finite value in series ''")):
            series([1.0, np.nan])
        with pytest.raises(ThermoeconError, match=exactly("non-finite value in series ''")):
            series([1.0, np.inf])

    def test_int_values_past_double_range_rejected(self):
        with pytest.raises(ThermoeconError, match=exactly("non-finite value in series ''")):
            AnnualSeries([2000], [10**400], Unit.YEARS)
        s = series([1.0, 2.0])
        with pytest.raises(ThermoeconError, match=exactly("non-finite value in series 'big'")):
            s.with_values([1, -(10**400)], label="big")

    @pytest.mark.parametrize(
        "values",
        [
            ["1.5"],  # the float cast would parse it
            np.array(["1.5"]),
            [b"1.5"],
            [None],  # the float cast would make it NaN
            np.array([None], dtype=object),
            np.array(["2000"], dtype="datetime64[Y]"),  # the cast counts years since 1970
        ],
        ids=["str", "numpy str", "bytes", "None", "None in an object array", "datetime64"],
    )
    def test_values_that_are_no_numbers_rejected(self, values):
        with pytest.raises(ThermoeconError, match=exactly("non-numeric value in series 'x'")):
            AnnualSeries([2000], values, Unit.YEARS, "x")
        with pytest.raises(ThermoeconError, match=exactly("non-numeric value in series 'x'")):
            series([1.0]).with_values(values, label="x")

    def test_ragged_values_rejected_as_a_shape_error(self):
        with pytest.raises(
            ThermoeconError, match=exactly("years and values must be 1-d and the same length")
        ):
            AnnualSeries([2000, 2001], [[1], [1, 2]], Unit.YEARS, "x")

    def test_real_numbers_of_other_types_still_convert(self):
        from decimal import Decimal
        from fractions import Fraction

        values = np.array([Decimal("1.5"), Fraction(5, 2), 10**20, True], dtype=object)
        s = AnnualSeries(np.arange(2000, 2004), values, Unit.YEARS)
        assert s.values.tolist() == [1.5, 2.5, 1e20, 1.0]

    def test_physical_units_must_be_positive(self):
        with pytest.raises(
            ThermoeconError, match=exactly("power_terawatt series '' must be strictly positive")
        ):
            series([1.0, 0.0], unit=Unit.POWER_TERAWATT)
        # rates may legitimately cross zero
        series([0.01, -0.01], unit=Unit.PER_YEAR_FRACTION)

    def test_value_at_missing_year(self):
        with pytest.raises(ThermoeconError, match=exactly("year 1999 not in series ''")):
            series([1.0, 2.0]).value_at(1999)

    def test_window_clips_inclusively(self):
        s = series(np.arange(10.0))
        w = s.window(2002, 2005)
        assert list(w.years) == [2002, 2003, 2004, 2005]
        with pytest.raises(ThermoeconError, match=exactly("bad window [2005, 2002]")):
            s.window(2005, 2002)
        assert list(s.window(2002.0, 2003).years) == [2002, 2003]
        # as annual_grid: a fractional bound is not rounded, a NaN one selects nothing
        for start, end in [(2000.5, 2003), (np.nan, 2003), (2000, np.inf)]:
            with pytest.raises(
                ThermoeconError, match=exactly(f"window [{start}, {end}] holds a non-integer year")
            ):
                s.window(start, end)

    def test_values_are_read_only(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_division_needs_aligned_grid(self):
        a = series([1.0, 2.0])
        b = series([1.0, 2.0], start=2001)
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "series '' and '' are on different year grids; interpolate explicitly first"
            ),
        ):
            a / b
        gdp = series([1.0, 2.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        ratio = gdp / series([10.0, 20.0], unit=Unit.WEALTH_TRILLION_USD2005)
        assert ratio.unit is Unit.PER_YEAR_FRACTION
        assert list(ratio.values) == [0.1, 0.1]

    @pytest.mark.parametrize("other", [2.0, 2, "x"])
    def test_division_by_a_non_series(self, other):
        s = series([1.0, 2.0], unit=Unit.YEARS)
        assert s.__truediv__(other) is NotImplemented
        with pytest.raises(TypeError):
            s / other

    def test_division_overflow_names_the_first_year(self):
        # the suite turns RuntimeWarning into an error, so a numpy warning fails
        power = AnnualSeries([2000, 2001, 2002], [1.0, 1e306, 1e307], Unit.POWER_TERAWATT, "p")
        wealth = AnnualSeries(power.years, [1.0, 1.0, 1.0], Unit.WEALTH_TRILLION_USD2005, "w")
        with pytest.raises(
            ThermoeconError,
            match=exactly("series 'p' / 'w' overflows double precision at year 2001"),
        ):
            power / wealth

    def test_equality_is_identity(self, table1):
        a, b = series([1.0, 2.0]), series([1.0, 2.0])
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert hash(a) == hash(a) and len({a, b}) == 2
        one = run_fit(table1.gdp, table1.power, lambda0=6.4)
        two = run_fit(table1.gdp, table1.power, lambda0=6.4)
        assert one == one and one != two
        assert hash(one) == hash(one)

    def test_division_applies_unit_rule(self):
        power = series([7.2, 7.3], unit=Unit.POWER_TERAWATT)
        wealth = series([1125.0, 1150.0], unit=Unit.WEALTH_TRILLION_USD2005)
        lam = power / wealth
        assert lam.unit is Unit.WATTS_PER_THOUSAND_USD2005
        assert lam.values[0] == pytest.approx(6.4)

    def test_division_without_rule_raises(self):
        years = series([1.0, 2.0], unit=Unit.YEARS)
        power = series([1.0, 2.0], unit=Unit.POWER_TERAWATT)
        with pytest.raises(
            ThermoeconError, match=exactly("no division rule for years / power_terawatt")
        ):
            years / power

    def test_empty_series_has_no_first_year(self):
        empty = AnnualSeries(
            np.array([], dtype=np.int64), np.array([]), Unit.DIMENSIONLESS
        )
        assert len(empty) == 0
        with pytest.raises(ThermoeconError, match=exactly("empty series has no coverage")):
            empty.first_year
        with pytest.raises(ThermoeconError, match=exactly("empty series has no coverage")):
            empty.last_year


class TestWealthSeries:
    # wealth is a plain AnnualSeries from build_wealth; these pin the
    # invariants a separate wealth type used to check on construction
    def test_init_value_must_match_series(self):
        gdp = series([40.0, 42.0, 45.0], start=2000, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = series([12.0, 12.5, 13.0], start=2000, unit=Unit.POWER_TERAWATT)
        w, mode = build_wealth(gdp, power, lambda0=8.0)
        assert mode == "calibrated_from_lambda"
        assert w.first_year == 2000
        assert w.values[0] == 1500.0  # 1000 * 12 / 8
        history = series([1.0, 2.0], start=1990, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        w, mode = build_wealth(gdp, power, historical_gdp=history)
        assert mode == "integrated_from_epoch"
        merged = AnnualSeries(
            np.concatenate([history.years, gdp.years]),
            np.concatenate([history.values, gdp.values]),
            gdp.unit,
        )
        v = interpolate(merged, annual_grid(1990, 2002)).values
        assert w.values[0] == np.sum(0.5 * (v[1:11] + v[:10]))

    def test_values_must_not_decrease(self):
        # falling but positive GDP still adds to wealth every year
        gdp = series([50.0, 30.0, 10.0, 1.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = series([10.0, 9.0, 8.0, 7.0], unit=Unit.POWER_TERAWATT)
        w, _ = build_wealth(gdp, power, lambda0=5.0)
        assert np.all(np.diff(w.values) > 0.0)

    def test_wrong_unit_rejected(self):
        gdp = series([40.0, 42.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = series([12.0, 12.5], unit=Unit.POWER_TERAWATT)
        w, _ = build_wealth(gdp, power, lambda0=8.0)
        assert w.unit is Unit.WEALTH_TRILLION_USD2005
        # wealth fed back where GDP belongs is rejected, as is a
        # historical record in any unit but the GDP's
        with pytest.raises(
            ThermoeconError, match=exactly("expected a GDP series, got wealth_trillion_usd2005")
        ):
            build_wealth(w, power, lambda0=8.0)
        history = series([1.0, 2.0], start=1990, unit=Unit.WEALTH_TRILLION_USD2005)
        with pytest.raises(
            ThermoeconError, match=exactly("historical GDP must share the GDP unit")
        ):
            build_wealth(gdp, power, historical_gdp=history)


class TestInterpolate:
    def test_knot_years_bit_exact(self, table1):
        dense = interpolate(table1.gdp, annual_grid(1970, 2009))
        for year in table1.gdp.years:
            assert dense.value_at(int(year)) == table1.gdp.value_at(int(year))

    def test_log_linear_between_knots(self, table1):
        dense = interpolate(table1.gdp, annual_grid(1970, 2009))
        # geometric interpolation between the 2005 and 2009 anchors
        assert dense.value_at(2007) == pytest.approx(47.369505, abs=5e-6)

    @given(rate=st.floats(-0.2, 0.2), start=st.floats(0.5, 100.0))
    @settings(max_examples=40)
    def test_log_linear_exact_on_exponentials(self, rate, start):
        years = np.array([2000, 2004, 2010])
        values = start * np.exp(rate * (years - 2000))
        sparse = AnnualSeries(years, values, Unit.DIMENSIONLESS)
        dense = interpolate(sparse, annual_grid(2000, 2010))
        expected = start * np.exp(rate * (dense.years - 2000))
        assert np.allclose(dense.values, expected, rtol=1e-12)

    def test_refuses_extrapolation(self, table1):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "grid [1960, 1980] extrapolates beyond series 'world GDP' coverage [1970, 2009]"
            ),
        ):
            interpolate(table1.gdp, annual_grid(1960, 1980))

    def test_log_mode_needs_positive_values(self):
        s = series([1.0, -1.0, 1.0], unit=Unit.PER_YEAR_FRACTION)
        with pytest.raises(
            ThermoeconError,
            match=exactly("log_linear interpolation requires strictly positive values"),
        ):
            interpolate(s, annual_grid(2000, 2002))

    def test_empty_inputs_and_unordered_grid(self):
        empty = AnnualSeries([], [], Unit.DIMENSIONLESS)
        with pytest.raises(ThermoeconError, match=exactly("cannot interpolate an empty series")):
            interpolate(empty, [2000])
        s = series([1.0, 2.0, 4.0], unit=Unit.POWER_TERAWATT)
        out = interpolate(s, [])
        assert len(out) == 0 and out.unit is Unit.POWER_TERAWATT
        with pytest.raises(
            ThermoeconError, match=exactly("year_grid must be strictly increasing")
        ):
            interpolate(s, [2002, 2000])

    def test_grid_years_must_be_integers(self, table1):
        ints = interpolate(table1.gdp, [1970, 1975])
        floats = interpolate(table1.gdp, [1970.0, 1975.0])
        assert np.array_equal(floats.years, ints.years)
        assert np.array_equal(floats.values, ints.values)
        for grid in ([1970.5, 1975.9], np.array([np.nan]), [1970, np.inf], [2**64]):
            with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
                interpolate(table1.gdp, grid)

    def test_extreme_grid_years_do_not_wrap(self):
        years = np.array([-(2**63), 2**62])
        s = AnnualSeries(years, np.ones(2), Unit.DIMENSIONLESS)
        out = interpolate(s, years)
        assert np.array_equal(out.years, years) and np.array_equal(out.values, s.values)


class TestCumulativeIntegral:
    def test_constant_rate_integrates_to_ramp(self):
        s = series([2.5] * 5, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        c = cumulative_integral(s, from_year=2000, initial=100.0)
        assert (c.unit, c.label) == (Unit.WEALTH_TRILLION_USD2005, "wealth_trillion_usd2005")
        assert list(c.values) == [100.0, 102.5, 105.0, 107.5, 110.0]

    def test_initial_value_kept_exactly(self):
        s = series([1.0, 2.0, 4.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        c = cumulative_integral(s, from_year=2000, initial=1125.0)
        assert c.values[0] == 1125.0

    def test_benchmark_tail_increment(self, table1):
        dense = interpolate(table1.gdp, annual_grid(2005, 2009))
        c = cumulative_integral(dense, from_year=2005, initial=2111.0)
        assert c.value_at(2009) == pytest.approx(2300.5238, abs=2e-4)

    def test_needs_integrable_unit(self):
        # only GDP integrates, into wealth; a per-year fraction has no rule either
        for unit in (Unit.POWER_TERAWATT, Unit.PER_YEAR_FRACTION):
            s = series([1.0, 2.0], unit=unit)
            with pytest.raises(
                ThermoeconError,
                match=exactly(f"cannot integrate a series in {unit.token} over years"),
            ):
                cumulative_integral(s, from_year=2000, initial=0.0)

    def test_needs_dense_grid(self):
        s = AnnualSeries(
            np.array([2000, 2002]),
            np.array([1.0, 2.0]),
            Unit.GDP_TRILLION_USD2005_PER_YEAR,
        )
        with pytest.raises(
            ThermoeconError, match=exactly("series '' has gaps; interpolate before integrating")
        ):
            cumulative_integral(s, from_year=2000, initial=0.0)

    def test_later_from_year_returns_the_tail(self):
        # the sum always starts at the first year; earlier years are dropped
        # after integrating, so a zero start never becomes a wealth point
        s = series([1.0, 2.0, 3.0, 4.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        c = cumulative_integral(s, from_year=2002, initial=0.0)
        assert list(c.years) == [2002, 2003]
        assert list(c.values) == [4.0, 7.5]

    def test_needs_points(self):
        empty = AnnualSeries([], [], Unit.GDP_TRILLION_USD2005_PER_YEAR)
        with pytest.raises(ThermoeconError, match=exactly("cannot integrate an empty series")):
            cumulative_integral(empty, from_year=2000, initial=0.0)

    def test_overflow_names_the_first_year(self):
        s = AnnualSeries(
            [2000, 2001, 2002], [1e308, 1.5e308, 1.5e308], Unit.GDP_TRILLION_USD2005_PER_YEAR, "g"
        )
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "wealth_trillion_usd2005 integral of series 'g' overflows double precision at "
                "year 2001"
            ),
        ):
            cumulative_integral(s, from_year=2000, initial=0.0)

    def test_from_year_must_be_on_grid(self):
        s = series([1.0, 2.0, 3.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        with pytest.raises(
            ThermoeconError, match=exactly("from_year 1999 outside series coverage [2000, 2002]")
        ):
            cumulative_integral(s, from_year=1999, initial=0.0)

    def test_from_year_must_be_an_integer(self):
        s = series([1.0, 2.0, 3.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        c = cumulative_integral(s, from_year=2001.0, initial=0.0)
        assert list(c.years) == [2001, 2002] and list(c.values) == [1.5, 4.0]
        for year in (2000.5, np.nan, np.inf):
            with pytest.raises(
                ThermoeconError, match=exactly(f"from_year must be an integer, got {year}")
            ):
                cumulative_integral(s, from_year=year, initial=0.0)
        with pytest.raises(
            ThermoeconError, match=exactly("from_year 2003 outside series coverage [2000, 2002]")
        ):
            cumulative_integral(s, from_year=2003.0, initial=0.0)

    @pytest.mark.parametrize(
        "initial", [np.nan, np.inf, -np.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_initial_must_be_finite(self, initial):
        s = series([1.0, 2.0, 3.0], unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        with pytest.raises(
            ThermoeconError, match=exactly(f"initial must be finite, got {initial}")
        ):
            cumulative_integral(s, from_year=2000, initial=initial)

    @given(scale=st.floats(0.25, 4.0))
    @settings(max_examples=25)
    def test_linearity_in_the_integrand(self, scale):
        # increments above the initial stock scale with the integrand
        v = np.array([1.0, 3.0, 2.0, 5.0])
        a = series(v, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        b = series(scale * v, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR)
        ca = cumulative_integral(a, from_year=2000, initial=1.0).values - 1.0
        cb = cumulative_integral(b, from_year=2000, initial=1.0).values - 1.0
        assert np.allclose(cb, scale * ca, rtol=1e-12, atol=1e-12)


class TestLogDerivative:
    @given(rate=st.floats(-0.1, 0.1))
    @settings(max_examples=40)
    def test_exact_for_exponentials(self, rate):
        s = exponential_series(2000, 12, 3.0, rate, Unit.DIMENSIONLESS)
        d = log_derivative(s)
        assert d.unit is Unit.PER_YEAR_FRACTION
        # centered interior and one-sided ends are all exact here
        assert np.allclose(d.values, rate, atol=1e-12)

    def test_benchmark_power_trend_at_2007(self, table1):
        dense = interpolate(table1.power, annual_grid(1970, 2009))
        d = log_derivative(dense)
        assert d.value_at(2007) == pytest.approx(0.01438, abs=5e-5)
        assert 0.01 < d.value_at(2007) < 0.035

    def test_needs_two_points(self):
        with pytest.raises(
            ThermoeconError, match=exactly("log_derivative needs at least 2 points")
        ):
            log_derivative(series([1.0]))

    def test_needs_dense_grid(self):
        s = AnnualSeries(np.array([2000, 2002]), np.array([1.0, 2.0]), Unit.DIMENSIONLESS)
        with pytest.raises(
            ThermoeconError,
            match=exactly("series '' has gaps; interpolate before differentiating"),
        ):
            log_derivative(s)

    def test_needs_positive_values(self):
        with pytest.raises(
            ThermoeconError, match=exactly("log_derivative requires strictly positive values")
        ):
            log_derivative(series([1.0, -2.0, 3.0]))


class TestRollingMean:
    def test_window_one_is_identity(self):
        s = series([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(rolling_mean(s, 1).values, s.values)

    def test_needs_a_window_and_a_dense_grid(self):
        with pytest.raises(ThermoeconError, match=exactly("window_years must be >= 1")):
            rolling_mean(series([1.0, 2.0]), 0)
        gapped = AnnualSeries([2000, 2002], [1.0, 2.0], Unit.DIMENSIONLESS)
        with pytest.raises(
            ThermoeconError, match=exactly("series '' has gaps; interpolate before smoothing")
        ):
            rolling_mean(gapped, 3)

    def test_window_must_be_an_integer(self):
        s = series([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(rolling_mean(s, 2.0).values, rolling_mean(s, 2).values)
        for window in (2.5, np.nan, np.inf):
            with pytest.raises(
                ThermoeconError, match=exactly(f"window_years must be an integer, got {window}")
            ):
                rolling_mean(s, window)

    def test_linear_ramp_even_window_returns_own_value(self):
        years = np.arange(2000, 2030)
        ramp = AnnualSeries(years, np.arange(30, dtype=float), Unit.DIMENSIONLESS)
        sm = rolling_mean(ramp, 10)
        # a full centered even window with half-weighted extremes is exact
        # on linear data
        interior = slice(5, 25)
        assert np.allclose(sm.values[interior], ramp.values[interior], atol=1e-12)

    def test_alternating_signs_cancel_under_even_window(self):
        s = series([1.0, -1.0] * 6)
        sm = rolling_mean(s, 2)
        assert np.allclose(sm.values[1:-1], 0.0, atol=1e-15)

    @given(
        values=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=25),
        window=st.integers(1, 12),
    )
    @settings(max_examples=60)
    def test_stays_within_data_range(self, values, window):
        sm = rolling_mean(series(values), window)
        assert sm.values.min() >= min(values) - 1e-9
        assert sm.values.max() <= max(values) + 1e-9

    @given(level=st.floats(-50.0, 50.0), window=st.integers(1, 15))
    @settings(max_examples=40)
    def test_constant_series_unchanged(self, level, window):
        s = series([level] * 9)
        assert np.allclose(rolling_mean(s, window).values, level, atol=1e-12)

    def test_edges_shrink_symmetrically(self):
        s = series([1.0, 2.0, 3.0, 4.0, 5.0])
        sm = rolling_mean(s, 5)
        # the first point sees only itself, the second a 3-point window
        assert sm.values[0] == 1.0
        assert sm.values[1] == 2.0
        assert sm.values[2] == 3.0

    @given(
        n=st.integers(0, 400),
        window=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference_loop(self, n, window, seed):
        # magnitudes log-uniform over 1e-6..1e6, random signs
        rng = np.random.default_rng(seed)
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        got = rolling_mean(series(values), window).values
        want = rolling_mean_reference(values, window)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 12, 60, 61, 400])
    @pytest.mark.parametrize("window", [1, 2, 3, 10, 11, 59, 60])
    def test_bit_identical_at_window_boundaries(self, n, window):
        values = np.exp(np.sin(np.arange(n, dtype=float)) * 13.0)
        got = rolling_mean(series(values), window).values
        want = rolling_mean_reference(values, window)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def scalars(low, high):
    """Ints, integral floats and fractions near [low, high], any int or
    float at all, and both infinities and NaN."""
    near = st.integers(low, high)
    return st.one_of(
        near,
        near.map(float),
        st.builds(float.__add__, near.map(float), st.floats(0.001, 0.999)),
        st.integers(),
        st.floats(),
        st.sampled_from([np.inf, -np.inf, np.nan]),
    )


class TestScalarArguments:
    """Year and window arguments either work or end in a ThermoeconError;
    no other exception, and no RuntimeWarning under the suite's filter."""

    GDP = AnnualSeries(
        np.arange(2000, 2010), np.linspace(1.0, 2.0, 10), Unit.GDP_TRILLION_USD2005_PER_YEAR, "g"
    )

    @given(
        grid=st.one_of(scalars(1995, 2015), st.lists(scalars(1995, 2015), max_size=5)),
        from_year=scalars(1995, 2015),
        initial=scalars(-1000, 1000),
        window=scalars(-2, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_return_or_refuse(self, grid, from_year, initial, window):
        try:
            out = interpolate(self.GDP, grid)
            assert np.array_equal(out.years, np.atleast_1d(np.asarray(grid, dtype=float)))
        except ThermoeconError:
            pass
        try:
            out = cumulative_integral(self.GDP, from_year, initial)
            assert out.first_year == from_year and out.values[-1] == pytest.approx(initial + 13.5)
        except ThermoeconError:
            pass
        try:
            out = rolling_mean(self.GDP, window)
            assert window == int(window) >= 1 and out.years is self.GDP.years
        except ThermoeconError:
            pass


class TestHelpers:
    def test_annual_grid_is_inclusive(self):
        g = annual_grid(1970, 1973)
        assert list(g) == [1970, 1971, 1972, 1973]
        with pytest.raises(ThermoeconError, match=exactly("bad year range [1973, 1970]")):
            annual_grid(1973, 1970)

    def test_annual_grid_cap(self):
        assert annual_grid(0, MAX_GRID_YEARS).size == MAX_GRID_YEARS + 1
        assert list(annual_grid(2**53 - 1, 2**53)) == [2**53 - 1, 2**53]
        assert list(annual_grid(-(2**53), -(2**53) + 1)) == [-(2**53), -(2**53) + 1]
        for start, end in [(2**53 - 1, 2**53 + 1), (-(2**53) - 1, -(2**53))]:
            with pytest.raises(
                ThermoeconError, match=exactly(f"year range [{start}, {end}] reaches past +-2**53")
            ):
                annual_grid(start, end)
        # checked before allocation, so no span is too large to reject,
        # including bounds past int64
        for start, end in [
            (0, MAX_GRID_YEARS + 1),
            (1970, 2_000_000_000),
            (-2_000_000_000, 2009),
            (1970, 1970 * 10**18),
        ]:
            with pytest.raises(
                ThermoeconError,
                match=exactly(f"year range [{start}, {end}] spans more than 1000000 years"),
            ):
                annual_grid(start, end)

    def test_annual_grid_refuses_non_integer_years(self):
        assert list(annual_grid(np.int64(2000), 2001.0)) == [2000, 2001]
        for start, end in [(2009.5, 2014.5), (np.nan, 2000), (2000, np.inf), (-np.inf, 0)]:
            with pytest.raises(
                ThermoeconError,
                match=exactly(f"year range [{start}, {end}] holds a non-integer year"),
            ):
                annual_grid(start, end)

    def test_exponential_series_matches_formula(self):
        s = exponential_series(2000, 5, 10.0, 0.07, Unit.POWER_TERAWATT)
        assert s.values[0] == 10.0
        assert s.values[4] == pytest.approx(10.0 * np.exp(0.28))
