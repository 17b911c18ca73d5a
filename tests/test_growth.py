import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import AnnualSeries, ThermoeconError, Unit, fit_innovation, run_fit
from thermoecon.forecast import Scenario, forecast
from thermoecon.growth import FitResult, build_wealth, fit_lambda
from thermoecon.series import annual_grid, interpolate
from thermoecon.units import LAMBDA_SCALE, SECONDS_PER_YEAR

from test_series import exactly, exponential_series

# wealth accumulated from the benchmark record, checked independently with
# a hand trapezoid over the log-interpolated annual grid
BENCHMARK_WEALTH = {
    1970: 1125.000,
    1975: 1209.021,
    1980: 1310.236,
    1985: 1428.824,
    1990: 1567.227,
    1995: 1726.340,
    2000: 1908.920,
    2005: 2122.082,
    2009: 2311.606,
}


def dense(series, start=1970, end=2009):
    """A benchmark series on the annual grid of [start, end], as run_fit makes it."""
    return interpolate(series, annual_grid(start, end))


HISTORY = AnnualSeries(
    np.array([1800, 1900, 1950, 1969]),
    np.array([1.0, 3.0, 7.0, 15.0]),
    Unit.GDP_TRILLION_USD2005_PER_YEAR,
)


# knot years a loaded file can hold: a calendar cluster and far-off years,
# so any two are either under 300 or over 1,000,000 years apart and no
# accepted grid is large; window bounds may also lie past int64, and a
# short window may cross +-2**53 or the int64 bounds
CALENDAR_YEARS = st.integers(1850, 2100)
FAR_YEARS = st.sampled_from(
    [
        *(-(2**63), -(2**62), -(2**53) - 20, -2_000_000_000, -1_001_000),
        *(1_003_000, 2_000_000_000, 2**53 - 20, 2**63 - 1),
    ]
)
KNOT_YEARS = st.one_of(CALENDAR_YEARS, FAR_YEARS)
WINDOW_YEARS = st.one_of(
    CALENDAR_YEARS, FAR_YEARS, st.sampled_from([-(10**21), 2**63, 2**63 + 5, 10**21])
)


def knot_series(draw, unit, years=None):
    if years is None:
        years = sorted(draw(st.sets(KNOT_YEARS, min_size=2, max_size=6)))
    values = draw(st.lists(st.floats(1.0, 100.0), min_size=len(years), max_size=len(years)))
    return AnnualSeries(np.array(years, dtype=np.int64), np.array(values), unit)


def exact_model(lambda0=7.0, eta0=0.02, c0=1500.0, n=30, start=1980):
    """Series generated from the closed-form model with frozen eta."""
    years = np.arange(start, start + n)
    t = (years - start).astype(float)
    c = c0 * np.exp(eta0 * t)
    wealth = AnnualSeries(years, c, Unit.WEALTH_TRILLION_USD2005)
    gdp = AnnualSeries(years, eta0 * c, Unit.GDP_TRILLION_USD2005_PER_YEAR)
    power = AnnualSeries(years, lambda0 / 1000.0 * c, Unit.POWER_TERAWATT)
    return wealth, gdp, power


class TestBuildWealth:
    def test_calibrated_anchor_is_exact(self, table1):
        w, mode = build_wealth(dense(table1.gdp), dense(table1.power), lambda0=6.4)
        assert mode == "calibrated_from_lambda"
        assert w.first_year == 1970
        assert w.values[0] == 1125.0  # 1000 * 7.2 / 6.4

    def test_matches_hand_trapezoid(self, benchmark_fit):
        for year, expected in BENCHMARK_WEALTH.items():
            assert benchmark_fit.wealth.value_at(year) == pytest.approx(
                expected, abs=2e-3
            )

    def test_calibration_required(self, table1):
        with pytest.raises(
            ThermoeconError,
            match=exactly("need lambda0 for calibrated wealth or a historical GDP record"),
        ):
            build_wealth(dense(table1.gdp), dense(table1.power))

    # a bad lambda0 is refused even where the historical record sets the anchor
    def test_bad_lambda0(self, table1):
        for history in (None, HISTORY):
            with pytest.raises(
                ThermoeconError, match=exactly("lambda0 must be positive, got -2.0")
            ):
                build_wealth(
                    dense(table1.gdp), dense(table1.power), lambda0=-2.0, historical_gdp=history
                )

    @pytest.mark.parametrize("lambda0", [np.inf, -np.inf, np.nan])
    def test_non_finite_lambda0(self, table1, lambda0):
        for history in (None, HISTORY):
            with pytest.raises(
                ThermoeconError, match=exactly(f"lambda0 must be finite, got {lambda0}")
            ):
                build_wealth(
                    dense(table1.gdp), dense(table1.power), lambda0=lambda0, historical_gdp=history
                )

    def test_lambda0_at_the_double_limits(self, table1):
        # the spread squares lambda: just above sqrt(float max) it still
        # fits, warning-free, since lambda falls off lambda0 within a year
        res = run_fit(table1.gdp, table1.power, lambda0=1.341e154)
        assert np.isfinite(res.model.lambda_rel_std)
        for lambda0 in (1e155, 1e308):
            with pytest.raises(
                ThermoeconError,
                match=exactly("lambda spread over 1970:2009 overflows double precision"),
            ):
                run_fit(table1.gdp, table1.power, lambda0=lambda0)
        for lambda0 in (1e-320, 5e-324):
            with pytest.raises(
                ThermoeconError,
                match=exactly(
                    f"lambda0 = {lambda0} puts the calibrated wealth 1000 * 7.2 / lambda0 "
                    "outside double precision"
                ),
            ):
                run_fit(table1.gdp, table1.power, lambda0=lambda0)

    def test_gdp_unit_enforced(self, table1):
        power = dense(table1.power)
        with pytest.raises(
            ThermoeconError, match=exactly("expected a GDP series, got power_terawatt")
        ):
            build_wealth(power, power, lambda0=6.4)

    def test_power_must_start_with_gdp(self, table1):
        with pytest.raises(
            ThermoeconError, match=exactly("power starts in 1971, GDP in 1970; align them first")
        ):
            build_wealth(dense(table1.gdp), dense(table1.power, 1971), lambda0=6.4)

    def test_sparse_gdp_needs_interpolating_first(self, table1):
        with pytest.raises(
            ThermoeconError,
            match=exactly("series 'world GDP' has gaps; interpolate before integrating"),
        ):
            build_wealth(table1.gdp, table1.power, lambda0=6.4)

    def test_integrated_mode_drops_pre_window_years(self, table1):
        w, mode = build_wealth(dense(table1.gdp), dense(table1.power), historical_gdp=HISTORY)
        assert mode == "integrated_from_epoch"
        assert w.first_year == 1970
        assert w.values[0] > 0.0
        assert np.all(np.diff(w.values) > 0.0)

    def test_integrated_mode_is_one_trapezoid_sum_from_zero(self, table1):
        gdp = dense(table1.gdp)
        w, _ = build_wealth(gdp, dense(table1.power), historical_gdp=HISTORY)
        merged = AnnualSeries(
            np.concatenate([HISTORY.years, gdp.years]),
            np.concatenate([HISTORY.values, gdp.values]),
            gdp.unit,
        )
        v = interpolate(merged, annual_grid(1800, 2009)).values
        run = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]))])
        assert np.array_equal(w.values, run[-40:])

    def test_history_takes_precedence_over_lambda0(self, table1):
        gdp, power = dense(table1.gdp), dense(table1.power)
        both, both_mode = build_wealth(gdp, power, lambda0=6.4, historical_gdp=HISTORY)
        only, only_mode = build_wealth(gdp, power, historical_gdp=HISTORY)
        assert both_mode == only_mode == "integrated_from_epoch"
        assert np.array_equal(both.values, only.values)

    def test_history_must_predate_window(self, table1):
        late = AnnualSeries(
            np.array([1970, 1980]),
            np.array([15.0, 22.0]),
            Unit.GDP_TRILLION_USD2005_PER_YEAR,
        )
        with pytest.raises(
            ThermoeconError, match=exactly("historical record must begin before 1970, starts 1970")
        ):
            build_wealth(dense(table1.gdp), dense(table1.power), historical_gdp=late)

    @given(
        rate=st.floats(0.001, 0.06),
        c0=st.floats(100.0, 5000.0),
    )
    @settings(max_examples=30)
    def test_wealth_never_decreases(self, rate, c0):
        gdp = exponential_series(
            1990, 25, 0.02 * c0, rate, Unit.GDP_TRILLION_USD2005_PER_YEAR
        )
        power = exponential_series(1990, 25, 10.0, rate, Unit.POWER_TERAWATT)
        w, _ = build_wealth(gdp, power, lambda0=7.0)
        assert np.all(np.diff(w.values) >= 0.0)

    @given(
        data=st.data(),
        start=st.integers(1000, 3000),
        values=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=60),
        power0=st.floats(1e-3, 1e3),
        lambda0=st.floats(0.1, 100.0),
        historical=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_wealth_series_invariants_by_construction(
        self, data, start, values, power0, lambda0, historical
    ):
        # what a separate wealth type used to check on every fit: the unit,
        # a non-decreasing path, and a first value equal to the anchor
        years = np.arange(start, start + len(values))
        gdp = AnnualSeries(years, np.array(values), Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = AnnualSeries(years, np.full(len(values), power0), Unit.POWER_TERAWATT)
        if historical:
            knots = data.draw(
                st.lists(st.integers(start - 300, start - 1), min_size=1, max_size=8, unique=True)
            )
            knot_values = data.draw(
                st.lists(st.floats(1e-3, 1e6), min_size=len(knots), max_size=len(knots))
            )
            history = AnnualSeries(np.sort(knots), np.array(knot_values), gdp.unit)
            w, mode = build_wealth(gdp, power, lambda0=lambda0, historical_gdp=history)
            assert mode == "integrated_from_epoch"
            # the anchor is zero wealth at the record's epoch, carried to
            # `start` by the same trapezoid sum over the merged record
            merged = AnnualSeries(
                np.concatenate([history.years, years]),
                np.concatenate([history.values, gdp.values]),
                gdp.unit,
            )
            v = interpolate(merged, annual_grid(history.first_year, years[-1])).values
            run = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]))])
            anchor = run[start - history.first_year]
        else:
            w, mode = build_wealth(gdp, power, lambda0=lambda0)
            assert mode == "calibrated_from_lambda"
            anchor = 1000.0 * power0 / lambda0
        assert w.unit is Unit.WEALTH_TRILLION_USD2005
        assert np.array_equal(w.years, years)
        assert w.values[0] == anchor
        assert np.all(np.diff(w.values) >= 0.0)


class TestFitLambda:
    def test_fit_series_share_one_years_array(self, benchmark_fit):
        # wealth keeps the interpolated GDP's years, and eta = Y/C keeps them too
        assert benchmark_fit.model.eta_series.years is benchmark_fit.wealth.years

    @pytest.mark.parametrize("history", [None, HISTORY], ids=["calibrated", "integrated"])
    def test_every_fit_series_is_on_one_private_years_array(self, table1, history):
        # under either anchor, and on none of the caller's arrays
        res = run_fit(table1.gdp, table1.power, lambda0=6.4, historical_gdp=history)
        m, years = res.model, res.wealth.years
        assert all(s.years is years for s in (m.lambda_series, m.eta_series, m.f_series))
        assert not years.flags.writeable
        owned = (table1.gdp, table1.power, HISTORY)
        assert not any(np.shares_memory(years, s.years) for s in owned)

    def test_recovers_constant_ratio_exactly(self):
        wealth, gdp, power = exact_model(lambda0=7.0)
        fit = fit_lambda(power, wealth, gdp)
        assert fit.lambda_mean == pytest.approx(7.0, rel=1e-12)
        assert fit.lambda_rel_std < 1e-12
        assert np.allclose(fit.eta_series.values, 0.02, rtol=1e-12)

    def test_benchmark_statistics(self, benchmark_fit):
        m = benchmark_fit.model
        assert m.lambda_mean == pytest.approx(7.04813, abs=2e-4)
        assert m.lambda_rel_std == pytest.approx(0.03231, abs=2e-4)
        assert m.eta_mean == pytest.approx(0.018438, abs=2e-5)
        assert m.f_mean == pytest.approx(8.2840e-8, abs=2e-11)
        assert m.eta_series.value_at(1970) == pytest.approx(0.0136, abs=2e-6)
        assert m.eta_series.value_at(2009) == pytest.approx(0.021241, abs=2e-6)

    def test_ratio_definitions_hold_pointwise(self, benchmark_fit, table1):
        # table years are interpolation knots, so the printed inputs come
        # through bit-exact and the definitions can be checked directly
        m = benchmark_fit.model
        w = benchmark_fit.wealth
        for year in map(int, table1.power.years):
            assert m.lambda_series.value_at(year) == pytest.approx(
                1000.0 * table1.power.value_at(year) / w.value_at(year), rel=1e-14
            )
            assert m.eta_series.value_at(year) == pytest.approx(
                table1.gdp.value_at(year) / w.value_at(year), rel=1e-14
            )

    def test_eta_lambda_f_identity(self, benchmark_fit):
        m = benchmark_fit.model
        rhs = m.lambda_series.values / 1000.0 * m.f_series.values * SECONDS_PER_YEAR
        assert np.max(np.abs(m.eta_series.values - rhs)) < 1e-15

    def test_window_restricts_the_fit(self, benchmark_fit, table1):
        # the window is the grid of the inputs; clip all three to narrow it
        wealth = benchmark_fit.wealth.window(1980, 2000)
        m = fit_lambda(
            dense(table1.power, 1980, 2000), wealth, dense(table1.gdp, 1980, 2000)
        )
        assert m.window == (1980, 2000)
        assert len(m.lambda_series) == 21
        full = benchmark_fit.model.lambda_series.window(1980, 2000)
        assert np.array_equal(m.lambda_series.values, full.values)

    def test_empty_window_rejected(self, benchmark_fit, table1):
        def empty(s):
            return s.window(2050, 2060)

        with pytest.raises(ThermoeconError, match=exactly("empty fit window")):
            fit_lambda(
                empty(table1.power), empty(benchmark_fit.wealth), empty(table1.gdp)
            )

    def test_misaligned_grids_rejected(self, benchmark_fit, table1):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "series 'power production' and 'wealth_trillion_usd2005' are on different year "
                "grids; interpolate explicitly first"
            ),
        ):
            fit_lambda(table1.power, benchmark_fit.wealth, table1.gdp)


class TestFitInnovation:
    @given(slope=st.floats(-0.05, 0.05), eta0=st.floats(0.005, 0.05))
    @settings(max_examples=40)
    def test_exact_trend_recovered(self, slope, eta0):
        s = exponential_series(2000, 15, eta0, slope, Unit.PER_YEAR_FRACTION)
        fit = fit_innovation(s)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.residual_rms < 1e-12
        # tau follows the sign of the fitted slope, which at a true slope
        # of zero is rounding noise either way
        if fit.slope > 0:
            assert fit.tau_eta == pytest.approx(1.0 / fit.slope)
        else:
            assert fit.tau_eta is None
        if slope > 1e-6:
            assert fit.tau_eta == pytest.approx(1.0 / slope, rel=1e-6)

    def test_trend_eta_reproduces_inputs(self):
        s = exponential_series(2000, 15, 0.02, 0.01, Unit.PER_YEAR_FRACTION)
        fit = fit_innovation(s)

        def trend(year):
            return np.exp(fit.intercept + fit.slope * (year - fit.center_year))

        assert trend(2000) == pytest.approx(0.02, rel=1e-10)
        assert trend(2014) == pytest.approx(0.02 * np.exp(0.14), rel=1e-10)

    def test_printed_return_row_statistics(self, table1):
        fit = fit_innovation(table1.rate_of_return)
        assert fit.slope == pytest.approx(0.011412, abs=2e-6)
        assert fit.residual_rms == pytest.approx(0.03930, abs=5e-6)
        assert fit.n_points == 9

    def test_endpoint_residual_bounded_by_root_n_rms(self, table1):
        # the worst single residual can exceed the rms; it cannot exceed
        # sqrt(n) times it
        fit = fit_innovation(table1.rate_of_return)
        x = table1.rate_of_return.years.astype(float) - fit.center_year
        resid = np.log(table1.rate_of_return.values) - (
            fit.intercept + fit.slope * x
        )
        bound = np.sqrt(fit.n_points) * fit.residual_rms
        assert np.max(np.abs(resid)) <= bound + 1e-12

    def test_needs_three_points(self):
        s = exponential_series(2000, 2, 0.02, 0.01, Unit.PER_YEAR_FRACTION)
        with pytest.raises(
            ThermoeconError, match=exactly("innovation fit needs at least 3 points, got 2")
        ):
            fit_innovation(s)

    def test_needs_positive_eta(self):
        s = AnnualSeries(
            np.arange(2000, 2004),
            np.array([0.02, -0.01, 0.02, 0.03]),
            Unit.PER_YEAR_FRACTION,
        )
        with pytest.raises(ThermoeconError, match=exactly("eta must be positive to fit ln(eta)")):
            fit_innovation(s)

    def test_window_clips_before_fitting(self, benchmark_fit):
        full = benchmark_fit.innovation
        clipped = fit_innovation(benchmark_fit.model.eta_series, window=(1990, 2009))
        assert clipped.window == (1990, 2009)
        assert clipped.n_points == 20
        assert clipped.slope != full.slope

    @pytest.mark.parametrize("window", [(1960, 2009), (1970, 2010), (1900, 2100)])
    def test_window_past_coverage_rejected(self, table1, window):
        # clipping would fit silently on fewer years than asked for
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                f"window {window[0]}:{window[1]} extrapolates beyond series "
                "'rate of return' coverage [1970, 2009]"
            ),
        ):
            fit_innovation(table1.rate_of_return, window=window)

    @pytest.mark.parametrize("window", [(1990.5, 2009), (np.nan, 2009)])
    def test_window_bound_must_be_an_integer(self, benchmark_fit, window):
        # not a fit on 1991:2009, nor "got 0 points"
        with pytest.raises(
            ThermoeconError,
            match=exactly(f"window [{window[0]}, {window[1]}] holds a non-integer year"),
        ):
            fit_innovation(benchmark_fit.model.eta_series, window=window)

    @pytest.mark.parametrize(
        "fit, window",
        [
            ("run_fit", (1970, None)),
            ("run_fit", ("1970", "2000")),
            ("run_fit", "1970:2000"),
            ("fit_innovation", ("1990", 2009)),
            ("fit_innovation", (1990,)),
            ("fit_innovation", (1990, 2000, 2009)),
            ("fit_innovation", 1990),
        ],
    )
    def test_window_must_be_a_pair_of_real_numbers(self, table1, fit, window):
        # one named error, not the TypeError or ValueError of comparing or
        # unpacking the bounds
        with pytest.raises(
            ThermoeconError, match=exactly(f"window {window!r} is not a pair of real years")
        ):
            if fit == "run_fit":
                run_fit(table1.gdp, table1.power, window=window, lambda0=7.0)
            else:
                fit_innovation(table1.rate_of_return, window=window)


class TestDecomposition:
    def test_sum_identity_is_exact(self, benchmark_fit):
        m, inn = benchmark_fit.model, benchmark_fit.innovation
        assert benchmark_fit.predicted_growth == m.eta_mean + inn.slope

    def test_reference_numbers_recorded(self):
        doc = FitResult.predicted_growth.__doc__
        assert "1.87" in doc and "0.93" in doc and "2.80" in doc
        assert "2.93" in doc and "0.13" in doc
        # and the recorded split is arithmetically consistent
        assert abs((1.87 + 0.93) - 2.80) < 1e-9
        assert abs((2.93 - 2.80) - 0.13) < 1e-9

    def test_benchmark_terms(self, benchmark_fit):
        eta_mean, rate = benchmark_fit.model.eta_mean, benchmark_fit.innovation.slope
        assert eta_mean == pytest.approx(0.018438, abs=2e-5)
        assert rate == pytest.approx(0.011318, abs=2e-5)
        assert 0.008 <= rate <= 0.013


class TestStateAt:
    def test_reads_the_fit_at_a_year_unrounded(self, benchmark_fit):
        m = benchmark_fit.model
        state = benchmark_fit.state_at(2009)
        assert state == (
            benchmark_fit.wealth.value_at(2009),
            m.eta_series.value_at(2009),
            m.lambda_series.value_at(2009),
        )
        assert [type(v) for v in state] == [float] * 3
        # a fitted state is no printed row: it keeps its full digits
        assert state[0] != float(f"{state[0]:.12g}")

    def test_needs_a_year_of_the_fit(self, benchmark_fit):
        with pytest.raises(
            ThermoeconError, match=exactly("year 2010 not in series 'wealth_trillion_usd2005'")
        ):
            benchmark_fit.state_at(2010)


class TestEnergyProductivity:
    # f = Y/a is formed by fit_lambda on the fit grid
    def test_benchmark_values(self, benchmark_fit, table1):
        f = benchmark_fit.model.f_series
        assert f.unit is Unit.USD2005_PER_JOULE
        assert f.value_at(1970) == pytest.approx(6.7339e-8, abs=2e-12)
        # table years are knots, so these are the printed ratios
        knots = [f.value_at(int(year)) for year in table1.gdp.years]
        assert np.mean(knots) == pytest.approx(8.3073e-8, abs=2e-12)

    def test_intersects_year_grids(self, table1):
        power_tail = table1.power.window(1990, 2009)
        f = run_fit(table1.gdp, power_tail, lambda0=7.0).model.f_series
        assert f.first_year == 1990
        assert len(f) == 20
        y, a = table1.gdp.value_at(1990), table1.power.value_at(1990)
        assert f.value_at(1990) == pytest.approx(y / a / SECONDS_PER_YEAR, rel=1e-15)


class TestRunFit:
    def test_needs_an_anchor(self, table1):
        with pytest.raises(
            ThermoeconError,
            match=exactly("need lambda0 for calibrated wealth or a historical GDP record"),
        ):
            run_fit(table1.gdp, table1.power)

    def test_window_defaults_to_overlap(self, table1):
        res = run_fit(table1.gdp, table1.power, lambda0=6.4)
        assert res.model.window == (1970, 2009)
        assert len(res.model.lambda_series) == 40

    def test_explicit_window(self, table1):
        res = run_fit(table1.gdp, table1.power, window=(1980, 2000), lambda0=7.3)
        assert res.model.window == (1980, 2000)
        assert res.wealth.first_year == 1980
        assert res.wealth.values[0] == pytest.approx(1000.0 * 9.6 / 7.3)

    def test_empty_window_rejected(self, table1):
        with pytest.raises(ThermoeconError, match=exactly("window 2000:1990 is empty")):
            run_fit(table1.gdp, table1.power, window=(2000, 1990), lambda0=7.0)

    def test_historical_record_switches_mode(self, table1):
        hist = AnnualSeries(
            np.array([1850, 1900, 1950, 1969]),
            np.array([2.0, 4.0, 8.0, 15.0]),
            Unit.GDP_TRILLION_USD2005_PER_YEAR,
        )
        res = run_fit(table1.gdp, table1.power, historical_gdp=hist)
        assert res.init_mode == "integrated_from_epoch"
        assert res.model.window == (1970, 2009)

    @given(
        data=st.data(),
        window=st.one_of(
            st.none(),
            st.tuples(WINDOW_YEARS, WINDOW_YEARS).map(sorted).map(tuple),
            # short windows anywhere, including across the int64 bounds
            WINDOW_YEARS.flatmap(lambda a: st.tuples(st.just(a), st.integers(a, a + 40))),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_window_and_knot_years_end_in_a_named_error(self, data, window):
        gdp = knot_series(data.draw, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        # power on gdp's knots half the time, so that most pairs overlap
        shared = data.draw(st.booleans())
        power = knot_series(data.draw, Unit.POWER_TERAWATT, gdp.years if shared else None)
        history = None
        if data.draw(st.booleans()):
            history = knot_series(data.draw, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        try:
            run_fit(gdp, power, window=window, lambda0=7.0, historical_gdp=history)
        except ThermoeconError:
            pass

    def test_short_overlap_rejected(self):
        gdp = AnnualSeries(
            np.arange(2000, 2020),
            np.full(20, 40.0),
            Unit.GDP_TRILLION_USD2005_PER_YEAR,
        )
        power = AnnualSeries(
            np.arange(2015, 2035), np.full(20, 15.0), Unit.POWER_TERAWATT
        )
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "GDP and power overlap on 5 years; need at least 10 consecutive years for fitting"
            ),
        ):
            run_fit(gdp, power, lambda0=7.0)

    def test_disjoint_records_rejected(self, table1):
        power = AnnualSeries(
            np.arange(2020, 2040), np.full(20, 17.0), Unit.POWER_TERAWATT
        )
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "GDP and power overlap on 0 years; need at least 10 consecutive years for fitting"
            ),
        ):
            run_fit(table1.gdp, power, lambda0=7.0)

    def test_exact_model_round_trips_through_pipeline(self):
        wealth, gdp, power = exact_model(lambda0=9.0, eta0=0.015, n=25, start=1985)
        # calibrate with the true ratio at the window start; trapezoid
        # integration is second-order so the recovered ratio is close but
        # not exact
        res = run_fit(gdp, power, lambda0=9.0)
        assert res.model.lambda_mean == pytest.approx(9.0, rel=5e-4)
        assert res.model.lambda_rel_std < 5e-4
        assert res.innovation.slope == pytest.approx(0.0, abs=5e-5)


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


def _ulps(a, b):
    """Distance in units in the last place between two positive doubles."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@given(lambda0=_log_uniform(1e-3, 1e4), c0=_log_uniform(1e-3, 1e6))
@settings(max_examples=200, deadline=None)
def test_fit_anchor_and_forecast_start_share_lambda_scale(table1, lambda0, c0):
    # a = (lambda/1000) C read both ways: the fit calibrates C0 from lambda0,
    # a forecast derives its start power from lambda0; each must give lambda0 back
    fitted = run_fit(table1.gdp, table1.power, lambda0=lambda0).model.lambda_series
    assert _ulps(fitted.values[0], lambda0) <= 2
    path = forecast(Scenario(c0=c0, eta0=0.02, lambda0=lambda0, start_year=2009, horizon_years=1))
    assert _ulps(LAMBDA_SCALE * path.power.values[0] / path.wealth.values[0], lambda0) <= 2
