import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoecon import (
    AnnualSeries,
    HorizonOverflowError,
    HorizonUnderflowError,
    Scenario,
    ThermoeconError,
    Unit,
    doubling_time_series,
    doubling_times,
    eta_from_productivity,
    forecast,
    write_table,
)
from thermoecon.forecast import LN2, ForecastPath, _closed_form, _materialize
from thermoecon.growth import build_wealth
from thermoecon.series import MAX_GRID_YEARS, annual_grid, cumulative_integral, interpolate
from thermoecon.units import SECONDS_PER_YEAR

from test_series import exactly, exponential_series, scalars


def forecast_base2(scenario: Scenario) -> ForecastPath:
    """Oracle: the forecast() trajectory in doubling-time arithmetic.

    With delta_c = ln2/eta0 (initial wealth doubling time) and
    delta_eta = tau * ln2 (doubling time of the rate of return),

        C(t) = C0 * 2 ** (delta_eta / (delta_c * ln2) * (2 ** (t/delta_eta) - 1))

    Note the ln2 in the denominator of the prefactor; dropping it, as a
    naive change of base suggests, overstates every exponent by ln2.
    Agrees with forecast() to rounding error, which is the point: the
    base-2 form is a reformulation, not an approximation.
    """
    years = scenario.years
    t = (years - scenario.start_year).astype(float)
    delta_c = LN2 / scenario.eta0
    if scenario.tau_eta is None:
        log2_ratio = t / delta_c
        eta = np.full_like(t, scenario.eta0)
    else:
        delta_eta = scenario.tau_eta * LN2
        log2_ratio = delta_eta / (delta_c * LN2) * (2.0 ** (t / delta_eta) - 1.0)
        eta = scenario.eta0 * 2.0 ** (t / delta_eta)
    log_c = math.log(scenario.c0) + log2_ratio * LN2
    return _materialize(scenario, log_c, eta)


# log of the largest representable double; the oracle cuts a path off
# before any emitted quantity would exceed it
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def reference_log_columns(scenario: Scenario):
    """The oracle's eta and its ln wealth, ln gdp and ln power columns."""
    years = scenario.years
    t = (years - scenario.start_year).astype(float)
    with np.errstate(all="ignore"):
        log_ratio, eta = _closed_form(scenario.eta0, scenario.tau_eta, t.copy())
    log_c = math.log(scenario.c0) + log_ratio
    log_gdp = log_c + np.log(eta)
    log_power = log_c + math.log(scenario.lambda0 / 1000.0)
    return eta, log_c, log_gdp, log_power


def forecast_reference(scenario: Scenario):
    """The original forecast() arithmetic, kept as the oracle, with an overflow
    check that names the first year any quantity overflows.

    Returns the grid years and the raw (wealth, eta, gdp, power) columns
    without building series, so a column that rounded to zero can be seen.
    """
    years = scenario.years
    eta, log_c, log_gdp, log_power = reference_log_columns(scenario)
    # the first year any quantity overflows, then the first quantity in it
    over = np.array([log_c, log_gdp, log_power]) > _LOG_FLOAT_MAX
    if over.any():
        i = int(over.any(axis=0).argmax())
        quantity = ("wealth", "gdp", "power")[int(over[:, i].argmax())]
        raise HorizonOverflowError(int(years[i]), quantity)
    c = np.exp(log_c)
    gdp = np.exp(log_gdp)
    power = np.exp(log_power)
    c[0] = scenario.c0
    eta = eta.copy()
    eta[0] = scenario.eta0
    gdp[0] = scenario.eta0 * scenario.c0
    power[0] = scenario.lambda0 / 1000.0 * scenario.c0
    return years, (c, eta, gdp, power)


def assert_matches_reference(sc: Scenario):
    """forecast() agrees with the oracle bit for bit, or fails as it did.

    Where the oracle's gdp rounds to zero (the old code then failed on a
    non-positive gdp series) forecast() must name that first year in a
    HorizonUnderflowError instead. No numpy warning may escape forecast().
    """
    with np.errstate(all="ignore"):
        try:
            years, want = forecast_reference(sc)
        except HorizonOverflowError as exc:
            expected = exc
        else:
            expected = None
            zero = want[2] == 0.0
            if zero.any():
                i = int(zero.argmax())
                quantity = "eta" if want[1][i] == 0.0 else "gdp"
                expected = HorizonUnderflowError(int(years[i]), quantity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is not None:
            with pytest.raises(type(expected)) as err:
                forecast(sc)
            assert str(err.value) == str(expected)
            return
        path = forecast(sc)
    for got, col in zip((path.wealth, path.eta, path.gdp, path.power), want):
        assert np.array_equal(got.years, years)
        assert np.array_equal(got.values.view(np.int64), col.view(np.int64))


def materialize_inputs(sc: Scenario):
    """The log wealth and eta columns that forecast() hands to _materialize."""
    t = (sc.years - sc.start_year).astype(float)
    with np.errstate(all="ignore"):
        log_ratio, eta = _closed_form(sc.eta0, sc.tau_eta, t.copy())
    return math.log(sc.c0) + log_ratio, eta


_REFERENCE_UNITS = (
    Unit.WEALTH_TRILLION_USD2005,
    Unit.PER_YEAR_FRACTION,
    Unit.GDP_TRILLION_USD2005_PER_YEAR,
    Unit.POWER_TERAWATT,
)


def materialize_reference(
    scenario: Scenario, years: np.ndarray, log_c: np.ndarray, eta: np.ndarray
) -> ForecastPath:
    """Oracle: _materialize as it was, checking its block twice.

    One exp over the (4, n) block, one max as the overflow proof with a
    first-year scan of wealth, gdp and power behind it, the start-row pin,
    a gdp-zero test, and then the four columns built with the public
    constructor, which copies and checks the years again and every row a
    second time.
    """
    block = np.empty((4, years.size))
    block[0] = log_c
    np.log(eta, out=block[1])
    np.add(log_c, block[1], out=block[2])
    np.add(log_c, math.log(scenario.lambda0 / 1000.0), out=block[3])
    np.exp(block, out=block)
    block[1] = eta
    if not block.max() < math.inf:
        # the first year any of wealth, gdp, power is inf, then the first of them
        over = np.isinf(block[[0, 2, 3]])
        if over.any():
            i = int(over.any(axis=0).argmax())
            quantity = ("wealth", "gdp", "power")[int(over[:, i].argmax())]
            raise HorizonOverflowError(int(years[i]), quantity)
    c0, eta0 = scenario.c0, scenario.eta0
    block[:, 0] = (c0, eta0, eta0 * c0, scenario.lambda0 / 1000.0 * c0)
    gdp = block[2]
    if gdp.min() == 0.0:
        i = int((gdp == 0.0).argmax())
        raise HorizonUnderflowError(int(years[i]), "eta" if block[1, i] == 0.0 else "gdp")
    labels = (f"wealth from {scenario.start_year}", "rate of return", "gdp", "power")
    return ForecastPath(
        scenario,
        *(AnnualSeries(years, *column) for column in zip(block, _REFERENCE_UNITS, labels)),
    )


BASE = dict(c0=2300.0, eta0=0.0214, lambda0=7.0, start_year=2009)


def scenario(**kw):
    merged = {**BASE, **kw}
    return Scenario(**merged)


valid_scenarios = st.builds(
    scenario,
    c0=st.floats(10.0, 5000.0),
    eta0=st.floats(0.001, 0.05),
    lambda0=st.floats(2.0, 20.0),
    horizon_years=st.integers(0, 50),
    tau_eta=st.one_of(
        st.none(),
        st.floats(20.0, 500.0),
        st.floats(-500.0, -20.0),
    ),
)


class TestScenario:
    def test_grid_includes_start_and_end(self):
        s = scenario(horizon_years=3)
        assert list(s.years) == [2009, 2010, 2011, 2012]

    def test_zero_horizon_is_single_year(self):
        s = scenario(horizon_years=0)
        assert list(s.years) == [2009]

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(c0=0.0), "c0 must be positive, got 0.0"),
            (dict(c0=-5.0), "c0 must be positive, got -5.0"),
            (dict(eta0=0.0), "eta0 must be positive, got 0.0"),
            (dict(eta0=-0.01), "eta0 must be positive, got -0.01"),
            (dict(lambda0=0.0), "lambda0 must be positive, got 0.0"),
            (dict(horizon_years=-1), "horizon_years must be a non-negative integer, got -1"),
            (dict(horizon_years=2.5), "horizon_years must be a non-negative integer, got 2.5"),
            (
                dict(tau_eta=0.0),
                "tau_eta must be finite and nonzero, got 0.0; use None for no innovation",
            ),
            (
                dict(tau_eta=np.inf),
                "tau_eta must be finite and nonzero, got inf; use None for no innovation",
            ),
            (
                dict(tau_eta=np.nan),
                "tau_eta must be finite and nonzero, got nan; use None for no innovation",
            ),
            (dict(c0=np.inf), "c0 must be finite, got inf"),
            (dict(eta0=np.nan), "eta0 must be finite, got nan"),
            (dict(lambda0=-np.inf), "lambda0 must be finite, got -inf"),
            # a start past double range, which no horizon can help
            (
                dict(c0=8.98846567431158e307, eta0=2.0, lambda0=1.0, horizon_years=0),
                "initial gdp eta0 * c0 = 2.0 * 8.98846567431158e+307 overflows double precision",
            ),
            (
                dict(eta0=1e306, horizon_years=5),
                "initial gdp eta0 * c0 = 1e+306 * 2300.0 overflows double precision",
            ),
            (
                dict(c0=1e300, eta0=1e10, horizon_years=0),
                "initial gdp eta0 * c0 = 10000000000.0 * 1e+300 overflows double precision",
            ),
            (
                dict(c0=1e306, eta0=1e-10, lambda0=1e6, horizon_years=0),
                "initial power lambda0/1000 * c0 = 1000000.0/1000 * 1e+306 overflows double "
                "precision",
            ),
        ],
        ids=[f"kw{i}" for i in range(17)],
    )
    def test_invalid_parameters_rejected(self, kw, message):
        with pytest.raises(ThermoeconError, match=exactly(message)):
            scenario(horizon_years=kw.pop("horizon_years", 10), **kw)

    @pytest.mark.parametrize("start", [2009.5, np.nan, np.inf])
    def test_non_integer_start_year_rejected(self, start):
        # a fractional start would otherwise be truncated onto the grid
        with pytest.raises(
            ThermoeconError,
            match=exactly(f"year range [{start}, {start + 5}] holds a non-integer year"),
        ):
            forecast(scenario(start_year=start, horizon_years=5))

    @pytest.mark.parametrize(
        "start, message",
        [
            (2009.5, "year range [2009.5, 2014.5] holds a non-integer year"),
            (np.nan, "year range [nan, nan] holds a non-integer year"),
            (np.inf, "year range [inf, inf] holds a non-integer year"),
            (
                2**60,
                "year range [1152921504606846976, 1152921504606846981] reaches past +-2**53",
            ),
        ],
        ids=["fraction", "nan", "inf", "2**60"],
    )
    def test_start_year_off_the_grid_rejected_at_construction(self, start, message):
        with pytest.raises(ThermoeconError, match=exactly(message)):
            scenario(start_year=start, horizon_years=5)

    def test_years_is_one_read_only_grid(self):
        s = scenario(horizon_years=3)
        assert s.years is s.years
        assert s.years.dtype == np.int64 and not s.years.flags.writeable

    def test_horizon_cap(self):
        assert scenario(horizon_years=MAX_GRID_YEARS).horizon_years == 1_000_000
        for horizon in (MAX_GRID_YEARS + 1, 10**11, np.inf):
            with pytest.raises(
                ThermoeconError,
                match=exactly(f"horizon_years must be at most 1000000, got {horizon}"),
            ):
                scenario(horizon_years=horizon)
        with pytest.raises(
            ThermoeconError, match=exactly("horizon_years must be a non-negative integer, got nan")
        ):
            scenario(horizon_years=np.nan)


class TestClosedForm:
    def test_start_state_is_exact(self):
        p = forecast(scenario(horizon_years=5, tau_eta=100.0))
        assert p.wealth.value_at(2009) == 2300.0
        assert p.eta.value_at(2009) == 0.0214

    def test_reference_ten_year_ratio(self):
        p = forecast(scenario(horizon_years=10, tau_eta=107.5))
        assert p.wealth.value_at(2019) / 2300.0 == pytest.approx(
            1.251408, abs=2e-6
        )

    def test_frozen_eta_grows_exponentially(self):
        p = forecast(scenario(horizon_years=10, tau_eta=None))
        assert p.wealth.value_at(2019) == pytest.approx(
            2300.0 * np.exp(0.214), rel=1e-12
        )
        assert np.allclose(p.eta.values, 0.0214)

    def test_output_relations(self):
        p = forecast(scenario(horizon_years=20, tau_eta=80.0))
        assert np.allclose(
            p.power.values, 7.0 / 1000.0 * p.wealth.values, rtol=1e-12
        )
        assert np.allclose(
            p.gdp.values, p.eta.values * p.wealth.values, rtol=1e-12
        )

    def test_columns_share_the_wealth_years(self):
        p = forecast(scenario(horizon_years=5, tau_eta=80.0))
        assert p.eta.years is p.gdp.years is p.power.years is p.wealth.years

    @pytest.mark.parametrize(
        "column, value, label",
        [
            ("log_c", np.nan, "wealth from 2009"),
            ("eta", np.nan, "rate of return"),
            ("eta", -0.01, "gdp"),
        ],
        ids=["nan_log_c", "nan_eta", "negative_eta"],
    )
    def test_non_finite_column_names_its_series(self, column, value, label):
        sc = scenario(horizon_years=5, tau_eta=80.0)
        log_c, eta = materialize_inputs(sc)
        {"log_c": log_c, "eta": eta}[column][3] = value
        with np.errstate(all="ignore"), pytest.raises(
            ThermoeconError, match=exactly(f"non-finite value in series {label!r}")
        ):
            _materialize(sc, log_c, eta)

    def test_power_rounding_to_zero_alone_names_power(self):
        # ln wealth -740 leaves wealth and gdp subnormal but power zero
        sc = scenario(horizon_years=5, eta0=0.01, lambda0=1e-3, tau_eta=None)
        log_c, eta = materialize_inputs(sc)
        log_c[3] = -740.0
        with np.errstate(all="ignore"), pytest.raises(
            ThermoeconError,
            match=exactly("power_terawatt series 'power' must be strictly positive"),
        ):
            _materialize(sc, log_c, eta)

    def test_columns_are_read_only_and_alias_no_input(self):
        sc = scenario(horizon_years=5, tau_eta=80.0)
        log_c, eta = materialize_inputs(sc)
        given = [a.copy() for a in (log_c, eta)]
        p = _materialize(sc, log_c, eta)
        years = p.wealth.years
        assert years.dtype == np.int64
        assert np.array_equal(years, annual_grid(2009, 2014))
        assert not years.flags.writeable
        for column in (p.wealth, p.eta, p.gdp, p.power):
            assert column.years is years
            assert not column.values.flags.writeable
            for a in (log_c, eta):
                assert not np.shares_memory(column.values, a)
                assert not np.shares_memory(column.years, a)
        for a, b in zip((log_c, eta), given):
            assert a.flags.writeable and np.array_equal(a, b)

    def test_columns_must_be_on_one_year_grid(self):
        sc = scenario(horizon_years=4)
        ones = np.ones(5)
        wealth, gdp, power = (
            AnnualSeries(sc.years, ones, unit)
            for unit in (
                Unit.WEALTH_TRILLION_USD2005,
                Unit.GDP_TRILLION_USD2005_PER_YEAR,
                Unit.POWER_TERAWATT,
            )
        )
        # an equal grid in another array passes
        eta = AnnualSeries(sc.years, ones, Unit.PER_YEAR_FRACTION)
        ForecastPath(sc, wealth, eta, gdp, power)
        shifted = AnnualSeries(sc.years + 1, ones, Unit.PER_YEAR_FRACTION)
        for columns in ((shifted, gdp, power), (eta, gdp, shifted)):
            with pytest.raises(
                ThermoeconError, match=exactly("trajectory columns are on different year grids")
            ):
                ForecastPath(sc, wealth, *columns)

    @given(sc=valid_scenarios)
    @settings(max_examples=50)
    def test_wealth_always_increases(self, sc):
        p = forecast(sc)
        assert np.all(np.diff(p.wealth.values) > 0.0) or len(p.wealth) == 1

    @given(sc=valid_scenarios)
    @settings(max_examples=50)
    def test_eta_moves_with_the_sign_of_tau(self, sc):
        p = forecast(sc)
        d = np.diff(p.eta.values)
        if sc.tau_eta is None:
            assert np.allclose(d, 0.0)
        elif sc.tau_eta > 0:
            assert np.all(d > 0.0) or len(d) == 0
        else:
            assert np.all(d < 0.0) or len(d) == 0

    def test_super_exponential_beats_exponential(self):
        with_innovation = forecast(scenario(horizon_years=50, tau_eta=100.0))
        frozen = forecast(scenario(horizon_years=50, tau_eta=None))
        gap = with_innovation.wealth.values[1:] / frozen.wealth.values[1:]
        assert np.all(gap > 1.0)
        assert np.all(np.diff(gap) > 0.0)


class TestDerivativeIdentity:
    @given(
        eta0=st.floats(0.005, 0.05),
        tau=st.one_of(st.none(), st.floats(30.0, 300.0)),
        t=st.floats(0.0, 40.0),
    )
    @settings(max_examples=60)
    def test_log_slope_equals_eta(self, eta0, tau, t):
        h = 0.01
        log_ratio, eta = _closed_form(eta0, tau, np.array([t + h, t - h, t]))
        fd = (log_ratio[0] - log_ratio[1]) / (2.0 * h)
        assert fd == pytest.approx(eta[2], abs=1e-4)

    def test_vector_evaluation(self):
        t = np.linspace(0.0, 30.0, 7)
        out = _closed_form(0.02, 100.0, t.copy())[0]
        assert out.shape == t.shape
        assert out[0] == 0.0

    @pytest.mark.parametrize("tau", [1e200, -1e200])
    def test_overflowing_eta0_tau_product(self, tau):
        # eta0 * tau is inf; ln(C(t)/C0) is still 0 at t = 0 and about
        # eta0 * t at t = 1, with no NaN and no RuntimeWarning
        out = _closed_form(1e200, tau, np.array([0.0, 1.0]))[0]
        assert out.tolist() == [0.0, 1e200]

    def test_column_not_returned_may_overflow_silently(self):
        # eta overflows where ln(C/C0) does not, and the other way round;
        # forecast() ignores the warnings and names the failing year itself
        with np.errstate(all="ignore"):
            assert _closed_form(1e306, 1e6, np.array([1000.0]))[1][0] == 1.0010005001667084e306
            assert _closed_form(100.0, 0.01, np.array([7.07]))[0][0] == 1.1122405015634333e307
            # a value past double range is inf
            assert _closed_form(0.02, 1.0, np.array([1000.0]))[1][0] == math.inf


class TestBase2Form:
    @given(sc=valid_scenarios)
    @settings(max_examples=60)
    def test_matches_natural_base_form(self, sc):
        a = forecast(sc)
        b = forecast_base2(sc)
        assert np.allclose(b.wealth.values, a.wealth.values, rtol=1e-12, atol=0.0)
        assert np.allclose(b.eta.values, a.eta.values, rtol=1e-12, atol=0.0)
        assert np.allclose(b.gdp.values, a.gdp.values, rtol=1e-12, atol=0.0)

    def test_huge_tau_approaches_the_frozen_limit(self):
        sc = scenario(horizon_years=50, tau_eta=1e6)
        slow = forecast(sc)
        frozen = forecast(dataclasses.replace(sc, tau_eta=None))
        gap = abs(slow.wealth.value_at(2059) / frozen.wealth.value_at(2059) - 1.0)
        assert gap == pytest.approx(2.675e-5, abs=2e-8)
        assert gap < 1e-4


# values that break a column: NaN, both infinities, both zeros, a
# negative, the smallest subnormal, and a log whose exp is subnormal or
# zero, which can send power to zero while gdp stays positive
_BAD_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]),
    st.floats(-1e300, -1e-300),
    st.floats(-760.0, -700.0),
)


@st.composite
def damaged_inputs(draw):
    """A scenario of 0-40 years and its _materialize inputs with bad cells."""
    # the starting gdp and power stay inside double range for every draw
    sc = scenario(
        c0=draw(st.floats(1e-300, 1e300)),
        eta0=draw(st.floats(1e-5, 10.0)),
        lambda0=draw(st.floats(1e-3, 1e3)),
        horizon_years=draw(st.integers(0, 40)),
        tau_eta=draw(st.one_of(st.none(), st.floats(0.1, 1e6), st.floats(-1e6, -0.1))),
    )
    with np.errstate(all="ignore"):
        log_c, eta = materialize_inputs(sc)
    n = log_c.size
    for _ in range(draw(st.integers(0, 4))):
        column = draw(st.sampled_from([log_c, eta]))
        column[draw(st.integers(0, n - 1))] = draw(_BAD_CELLS)
    return sc, log_c, eta


def damaged(column: str, index: int, value: float):
    """The 20-year benchmark scenario's _materialize inputs with one bad cell."""
    sc = scenario(horizon_years=20, tau_eta=80.0)
    log_c, eta = materialize_inputs(sc)
    {"log_c": log_c, "eta": eta}[column][index] = value
    return sc, log_c, eta


class TestMaterializeReference:
    @given(case=damaged_inputs())
    # the edges of the whole-block proof: an eta of -0.0 underflows gdp
    # and names eta, the smallest subnormal eta passes, wealth rounding
    # to zero sends gdp to zero, a NaN in the last year of eta, and an
    # overflow in the start column, which the max sees before the pin
    @example(case=damaged("eta", 7, -0.0))
    @example(case=damaged("eta", 7, 5e-324))
    @example(case=damaged("log_c", 7, -800.0))
    @example(case=damaged("eta", -1, math.nan))
    @example(case=damaged("log_c", 0, math.inf))
    @settings(max_examples=400, deadline=None)
    def test_same_columns_or_same_error(self, case):
        sc, log_c, eta = case
        with np.errstate(all="ignore"):
            try:
                want = materialize_reference(sc, sc.years, log_c.copy(), eta.copy())
            except ThermoeconError as exc:
                with pytest.raises(type(exc)) as err:
                    _materialize(sc, log_c, eta)
                assert type(err.value) is type(exc) and str(err.value) == str(exc)
                return
            got = _materialize(sc, log_c, eta)
        for name in ("wealth", "eta", "gdp", "power"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a.years, b.years) and a.years.dtype == b.years.dtype
            assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
            assert (a.unit, a.label) == (b.unit, b.label)


class TestReference:
    @given(
        sc=st.builds(
            scenario,
            c0=st.floats(1.0, 1e5),
            eta0=st.floats(1e-3, 0.05),
            lambda0=st.floats(1.0, 20.0),
            horizon_years=st.integers(0, 400),
            tau_eta=st.one_of(
                st.none(), st.floats(100.0, 5000.0), st.floats(-5000.0, -100.0)
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_on_valid_scenarios(self, sc):
        # ln C stays below about 280 here, far inside double range
        assert_matches_reference(sc)
        forecast(sc)

    @given(
        sc=st.builds(
            scenario,
            c0=st.floats(1e-200, 1e200),
            eta0=st.floats(1e-5, 10.0),
            lambda0=st.floats(1e-3, 1e3),
            horizon_years=st.integers(0, 3000),
            tau_eta=st.one_of(
                st.none(), st.floats(0.1, 1e6), st.floats(-1e6, -0.1)
            ),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_same_values_or_named_error_out_to_the_limits(self, sc):
        assert_matches_reference(sc)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(horizon_years=700, tau_eta=-1.0),  # eta subnormal, still valid
            dict(horizon_years=5000, tau_eta=-1.0),  # eta rounds to zero
            dict(horizon_years=650, c0=1e-200, tau_eta=-1.0),  # gdp, not eta, hits 0
            dict(horizon_years=2000, tau_eta=1.0),  # expm1 itself overflows
            dict(horizon_years=32500, tau_eta=None),  # ln C = 703, still valid
            dict(horizon_years=33300, tau_eta=None),  # ln C = 720
            dict(horizon_years=40000, tau_eta=None),
            dict(c0=1.0, eta0=0.1, lambda0=1e8, horizon_years=6990, tau_eta=None),  # power
            # gdp 1e308 at t=0; a start past double range is Scenario's error
            dict(c0=1e300, eta0=1e8, horizon_years=0, tau_eta=None),
            dict(horizon_years=0, eta0=1e200, tau_eta=1e200),  # inf * 0 at t=0
            dict(horizon_years=5, eta0=1e200, tau_eta=1e200),  # NaN, then overflow
        ],
    )
    def test_edge_scenarios(self, kw):
        assert_matches_reference(scenario(**kw))


_POSITIVE_DOUBLES = st.floats(5e-324, float(np.finfo(np.float64).max))


class TestRange:
    @given(
        c0=_POSITIVE_DOUBLES,
        eta0=_POSITIVE_DOUBLES,
        lambda0=_POSITIVE_DOUBLES,
        horizon_years=st.integers(0, 3000),
        tau_eta=st.one_of(st.none(), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3)),
    )
    @example(c0=2300.0, eta0=1e-323, lambda0=7.0, horizon_years=10, tau_eta=0.01)
    @settings(max_examples=500, deadline=None)
    def test_every_valid_scenario_forecasts_or_names_its_horizon(self, **kw):
        # over the whole positive double range, subnormals included, a NaN
        # that slipped past the horizon errors would end in a row message
        try:
            sc = scenario(**kw)
        except ThermoeconError:
            return
        try:
            forecast(sc)
        except (HorizonOverflowError, HorizonUnderflowError):
            pass


class TestUnderflow:
    def test_decaying_eta_names_the_first_zero_year(self):
        with pytest.raises(HorizonUnderflowError) as err:
            forecast(scenario(horizon_years=5000, tau_eta=-1.0))
        assert (err.value.year, err.value.quantity) == (2751, "eta")
        assert "2751" in str(err.value)

    def test_small_wealth_sends_gdp_to_zero_first(self):
        # eta is still a normal double when C * eta rounds to zero
        with pytest.raises(HorizonUnderflowError) as err:
            forecast(scenario(horizon_years=800, c0=1e-200, tau_eta=-1.0))
        assert err.value.quantity == "gdp"
        assert err.value.year < 2009 + 700

    def test_zero_start_gdp_names_the_initial_state(self):
        # no horizon helps here, so the scenario itself is rejected
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "initial gdp eta0 * c0 = 1e-30 * 1e-300 rounds to zero in double precision"
            ),
        ):
            scenario(c0=1e-300, eta0=1e-30, horizon_years=10)

    def test_zero_start_power_names_the_initial_state(self):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "initial power lambda0/1000 * c0 = 1e-30/1000 * 1e-300 rounds to zero in double "
                "precision"
            ),
        ):
            scenario(c0=1e-300, lambda0=1e-30, horizon_years=10)

    def test_largest_representable_start_is_kept(self):
        c0 = float(np.finfo(np.float64).max)
        path = forecast(scenario(c0=c0, eta0=1.0, lambda0=1000.0, horizon_years=0))
        assert path.wealth.values[0] == path.gdp.values[0] == path.power.values[0] == c0

    def test_tiny_but_representable_start_is_kept(self):
        path = forecast(scenario(c0=1e-300, eta0=1e-10, lambda0=1e-5, horizon_years=3))
        assert path.gdp.values[0] == 1e-10 * 1e-300 > 0.0
        assert path.power.values[0] == 1e-5 / 1000.0 * 1e-300 > 0.0


class TestOverflow:
    def test_raises_with_the_first_bad_year(self):
        sc = scenario(horizon_years=2000, tau_eta=50.0)
        with pytest.raises(HorizonOverflowError) as err:
            forecast(sc)
        assert err.value.year > 2009
        assert str(err.value.year) in str(err.value)

    def test_wealth_overflows_before_gdp_reports_wealth(self):
        # frozen 2.14 %/yr needs ~33k years to leave double range
        sc = scenario(horizon_years=40000, tau_eta=None)
        with pytest.raises(HorizonOverflowError) as err:
            forecast(sc)
        assert err.value.quantity == "wealth"

    def test_underflowed_wealth_scale_still_names_the_overflow(self):
        # eta0 * tau rounds to zero, while tau * expm1(t / tau) overflows at t = 8
        sc = scenario(eta0=1e-323, tau_eta=0.01, horizon_years=10)
        with pytest.raises(HorizonOverflowError) as err:
            forecast(sc)
        assert (err.value.year, err.value.quantity) == (2017, "wealth")

    def test_safe_horizon_does_not_raise(self):
        forecast(scenario(horizon_years=100, tau_eta=100.0))

    @pytest.mark.parametrize(
        "kw, year, quantity",
        [
            # the 2009 state at 20 /yr: gdp passes the largest double in
            # 2044, a year before wealth does
            (dict(eta0=20.0, horizon_years=50, tau_eta=None), 2044, "gdp"),
            # power overflows in 2019, wealth only in 2087
            (
                dict(c0=math.exp(702), eta0=0.1, lambda0=9e5, horizon_years=100, tau_eta=None),
                2019,
                "power",
            ),
            (
                dict(c0=2.0, eta0=3.0, lambda0=1.0, horizon_years=237, tau_eta=None),
                2245,
                "gdp",
            ),
        ],
        ids=["gdp_a_year_before_wealth", "power_decades_before_wealth", "gdp_at_2245"],
    )
    def test_names_the_first_year_any_quantity_overflows(self, kw, year, quantity):
        with pytest.raises(HorizonOverflowError) as err:
            forecast(scenario(**kw))
        assert (err.value.year, err.value.quantity) == (year, quantity)


class TestOverflowBoundary:
    # a frozen-eta run one year long: at 2010, ln C = ln c0 + eta0, and
    # ln gdp and ln power add ln eta0 and ln(lambda0/1000); the quantity
    # under test gets the largest column
    COLUMNS = {
        "wealth": (1, dict(eta0=0.5, lambda0=1.0)),
        "gdp": (2, dict(eta0=2.0, lambda0=1.0)),
        "power": (3, dict(eta0=0.5, lambda0=2000.0)),
    }

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("quantity", sorted(COLUMNS))
    def test_one_ulp_either_side_of_the_largest_double(self, quantity, ulps):
        target = _LOG_FLOAT_MAX
        if ulps:
            target = float(np.nextafter(target, ulps * math.inf))
        column, kw = self.COLUMNS[quantity]

        def make(c0):
            return scenario(c0=c0, horizon_years=1, tau_eta=None, **kw)

        def log_at_2010(c0):
            return reference_log_columns(make(c0))[column][1]

        # ln c0 moves in far finer steps than the ulp of ln(float max)
        c0 = math.exp(target - log_at_2010(1.0))
        while log_at_2010(c0) < target:
            c0 = float(np.nextafter(c0, math.inf))
        while log_at_2010(c0) > target:
            c0 = float(np.nextafter(c0, 0.0))
        assert log_at_2010(c0) == target
        assert_matches_reference(make(c0))
        if ulps > 0:
            with pytest.raises(HorizonOverflowError) as err:
                forecast(make(c0))
            assert (err.value.year, err.value.quantity) == (2010, quantity)
        else:
            forecast(make(c0))


class TestProductivityCoupling:
    def test_unit_algebra(self):
        eta = eta_from_productivity(7.1, 8.3462e-8)
        assert eta == pytest.approx(0.0187, abs=2e-5)
        assert eta == pytest.approx(7.1 / 1000.0 * 8.3462e-8 * SECONDS_PER_YEAR)

    def test_rejects_non_positive(self):
        with pytest.raises(
            ThermoeconError, match=exactly("energy productivity must be positive, got 0.0")
        ):
            eta_from_productivity(7.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(
            ThermoeconError, match=exactly("energy productivity must be finite, got nan")
        ):
            eta_from_productivity(7.0, np.nan)

    @pytest.mark.parametrize(
        "lambda0, message",
        [
            (np.inf, "lambda0 must be finite, got inf"),
            (np.nan, "lambda0 must be finite, got nan"),
            (-7.0, "lambda0 must be positive, got -7.0"),
            (0.0, "lambda0 must be positive, got 0.0"),
        ],
        ids=["inf", "nan", "negative", "zero"],
    )
    def test_rejects_bad_lambda0(self, lambda0, message):
        with pytest.raises(ThermoeconError, match=exactly(message)):
            eta_from_productivity(lambda0, 1e-7)

    @pytest.mark.parametrize(
        "lambda0, f, fate",
        [(1e300, 1e300, "overflows"), (1e-300, 1e-300, "rounds to zero in")],
        ids=["overflow", "zero"],
    )
    def test_rejects_a_product_outside_double_precision(self, lambda0, f, fate):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                f"eta lambda0/1000 * f * seconds per year = {lambda0}/1000 * {f} * 31556900.0 "
                f"{fate} double precision"
            ),
        ):
            eta_from_productivity(lambda0, f)

    @given(
        f_low=st.floats(2e-8, 1.2e-7),
        bump=st.floats(1e-9, 8e-8),
    )
    @settings(max_examples=40)
    def test_higher_productivity_raises_future_power(self, f_low, bump):
        # efficiency gains backfire: more output per joule means faster
        # growth and therefore more power demand later, never less
        def power_after_ten_years(f):
            sc = Scenario(
                c0=2300.0,
                eta0=eta_from_productivity(7.0, f),
                lambda0=7.0,
                start_year=2009,
                horizon_years=10,
                tau_eta=100.0,
            )
            return forecast(sc).power.value_at(2019)

        assert power_after_ten_years(f_low + bump) > power_after_ten_years(f_low)


class TestDoublingTimes:
    def test_reference_values(self):
        assert doubling_times(0.0214).wealth_years == pytest.approx(32.3901, abs=1e-4)
        assert doubling_times(0.0035).wealth_years == pytest.approx(198.0421, abs=1e-4)
        assert doubling_times(0.0137).wealth_years == pytest.approx(50.5947, abs=1e-4)
        assert doubling_times(0.0093).wealth_years == pytest.approx(74.5320, abs=1e-4)

    def test_eta_doubling_needs_positive_tau(self):
        assert doubling_times(0.02).eta_years is None
        assert doubling_times(0.02, -50.0).eta_years is None
        assert doubling_times(0.02, 100.0).eta_years == pytest.approx(69.3147, abs=1e-4)

    def test_positive_eta_required(self):
        with pytest.raises(ThermoeconError, match=exactly("eta must be positive, got 0.0")):
            doubling_times(0.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_finite_eta_required(self, eta):
        with pytest.raises(ThermoeconError, match=exactly(f"eta must be finite, got {eta}")):
            doubling_times(eta)

    def test_overflowing_wealth_doubling_time_rejected(self):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "wealth doubling time ln2 / eta = ln2 / 5e-324 overflows double precision"
            ),
        ):
            doubling_times(5e-324)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_finite_tau_required(self, tau):
        with pytest.raises(ThermoeconError, match=exactly(f"tau_eta must be finite, got {tau}")):
            doubling_times(0.02, tau)

    def test_doubling_halves_are_consistent(self):
        # doubling the rate halves the wealth doubling time
        assert doubling_times(0.02).wealth_years == pytest.approx(
            2.0 * doubling_times(0.04).wealth_years
        )


class TestDoublingTimeSeries:
    def test_window_must_be_an_integer(self, benchmark_fit):
        eta = benchmark_fit.model.eta_series
        a = doubling_time_series(eta, 10)
        b = doubling_time_series(eta, 10.0)
        for x, y in zip(a, b):
            assert np.array_equal(x.years, y.years) and np.array_equal(x.values, y.values)
        with pytest.raises(
            ThermoeconError, match=exactly("window_years must be an integer, got 2.5")
        ):
            doubling_time_series(eta, 2.5)

    def test_benchmark_endpoints(self, benchmark_fit):
        delta_c, delta_eta = doubling_time_series(
            benchmark_fit.model.eta_series, window_years=10
        )
        assert delta_c.unit is Unit.YEARS
        assert delta_c.value_at(1970) == pytest.approx(50.967, abs=2e-3)
        assert delta_c.value_at(2009) == pytest.approx(32.633, abs=2e-3)

    def test_stagnant_years_drop_out(self, benchmark_fit):
        delta_c, delta_eta = doubling_time_series(
            benchmark_fit.model.eta_series, window_years=10
        )
        missing = sorted(set(delta_c.years.tolist()) - set(delta_eta.years.tolist()))
        assert missing == [2007, 2008, 2009]

    def test_constant_eta_has_no_eta_doubling(self):
        flat = AnnualSeries(
            np.arange(2000, 2020), np.full(20, 0.02), Unit.PER_YEAR_FRACTION
        )
        delta_c, delta_eta = doubling_time_series(flat, window_years=5)
        assert len(delta_eta) == 0
        assert np.allclose(delta_c.values, np.log(2.0) / 0.02)

    def test_steadily_rising_eta_keeps_every_year(self):
        rising = exponential_series(2000, 20, 0.015, 0.01, Unit.PER_YEAR_FRACTION)
        delta_c, delta_eta = doubling_time_series(rising, window_years=5)
        assert np.array_equal(delta_eta.years, rising.years)
        assert np.allclose(delta_eta.values, np.log(2.0) / 0.01, rtol=1e-9)


_HUGE = 10**400


class TestArgumentsPastDoubleRange:
    """Python ints past double range, and exact int products that leave it,
    get the messages a non-finite float or an overflowing product gets."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: scenario(c0=_HUGE, horizon_years=10),
                f"c0 must be finite, got {_HUGE}",
            ),
            (
                lambda: scenario(c0=1.0, horizon_years=10, tau_eta=_HUGE),
                f"tau_eta must be finite and nonzero, got {_HUGE}; use None for no innovation",
            ),
            (lambda: doubling_times(_HUGE), f"eta must be finite, got {_HUGE}"),
            (lambda: doubling_times(0.02, _HUGE), f"tau_eta must be finite, got {_HUGE}"),
            (
                lambda: eta_from_productivity(7.0, _HUGE),
                f"energy productivity must be finite, got {_HUGE}",
            ),
            (
                lambda: scenario(eta0=_HUGE, horizon_years=10),
                f"eta0 must be finite, got {_HUGE}",
            ),
            (
                lambda: scenario(eta0=-_HUGE, horizon_years=10),
                f"eta0 must be finite, got {-_HUGE}",
            ),
            (
                lambda: scenario(c0=10**200, eta0=10**200, horizon_years=10),
                f"initial gdp eta0 * c0 = {10**200} * {10**200} overflows double precision",
            ),
        ],
        ids=[
            "scenario_c0",
            "scenario_tau",
            "doubling_eta",
            "doubling_tau",
            "productivity_f",
            "scenario_eta0",
            "scenario_negative_eta0",
            "scenario_int_gdp_product",
        ],
    )
    def test_refused_with_the_float_message(self, call, message):
        with pytest.raises(ThermoeconError, match=exactly(message)):
            call()

    def test_build_wealth_lambda0(self, gdp_ramp):
        power = gdp_ramp.with_values(gdp_ramp.values / 2.0, Unit.POWER_TERAWATT)
        with pytest.raises(ThermoeconError, match=exactly(f"lambda0 must be finite, got {_HUGE}")):
            build_wealth(gdp_ramp, power, lambda0=_HUGE)

    def test_exact_int_eta0_tau_product_past_double_range(self):
        # eta0 * tau is the int 10**400; the product is reassociated, as
        # for a float eta0 * tau that overflows
        log_ratio, eta = _closed_form(10**200, 10**200, np.array([1.0]))
        assert log_ratio[0] == pytest.approx(1e200)
        assert eta[0] == pytest.approx(1e200)
        assert _closed_form(10**200, -(10**200), np.array([0.0]))[0][0] == 0.0


# ints either side of double range and of its square root, of both signs
_HUGE_INTS = st.sampled_from([10**200, -(10**200), 10**400, -(10**400)])


def arguments(low, high):
    """`test_series.scalars` near [low, high], and ints past double range."""
    return st.one_of(scalars(low, high), _HUGE_INTS)


_GDP = AnnualSeries(
    np.arange(2000, 2010), np.linspace(1.0, 2.0, 10), Unit.GDP_TRILLION_USD2005_PER_YEAR, "g"
)
_POWER = _GDP.with_values(_GDP.values / 2.0, Unit.POWER_TERAWATT, "p")
# a table column over the years the drawn grids reach; the others are empty cells
_YEARS_COLUMN = AnnualSeries(np.arange(1995, 2016), np.ones(21), Unit.YEARS, "x")


class TestScalarArguments:
    """Every scalar argument of the forecast helpers, the wealth anchor, the
    series builders and the table writer either works or ends in a
    ThermoeconError; no other exception, and no RuntimeWarning under the
    suite's filter."""

    @given(
        c0=arguments(1, 5000),
        eta0=arguments(0, 1),
        lambda0=arguments(1, 20),
        horizon=arguments(-2, 60),
        tau=st.one_of(st.none(), arguments(-500, 500)),
        f=arguments(0, 1),
        years=st.one_of(arguments(1995, 2015), st.lists(arguments(1995, 2015), max_size=4)),
    )
    @settings(max_examples=300, deadline=None)
    def test_return_or_refuse(
        self, tmp_path_factory, c0, eta0, lambda0, horizon, tau, f, years
    ):
        path = tmp_path_factory.getbasetemp() / "scalar_arguments.csv"
        path.unlink(missing_ok=True)
        grid = np.atleast_1d(np.asarray(years, dtype=object))
        calls = {
            "forecast": lambda: forecast(Scenario(c0, eta0, lambda0, 2009, horizon, tau)),
            "doubling_times": lambda: doubling_times(eta0, tau),
            "eta_from_productivity": lambda: eta_from_productivity(lambda0, f),
            "build_wealth": lambda: build_wealth(_GDP, _POWER, lambda0=lambda0),
            "cumulative_integral": lambda: cumulative_integral(_GDP, 2000, c0),
            "AnnualSeries": lambda: AnnualSeries(2009, c0, Unit.GDP_TRILLION_USD2005_PER_YEAR),
            "with_values": lambda: _GDP.with_values([c0] * len(_GDP)),
            "interpolate": lambda: interpolate(_GDP, years),
            "write_table": lambda: write_table(path, years, {"x": _YEARS_COLUMN}),
        }
        done = set()
        for name, call in calls.items():
            try:
                call()
                done.add(name)
            except ThermoeconError:
                pass
        # a refused grid writes nothing; an accepted one writes each year
        if "write_table" in done:
            rows = path.read_text().splitlines()[2:]
            assert [int(row.split(",")[0]) for row in rows] == [int(y) for y in grid]
        else:
            assert not path.exists()
