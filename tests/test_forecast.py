import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import (
    AnnualSeries,
    DomainError,
    HorizonOverflowError,
    Scenario,
    SECONDS_PER_YEAR,
    Unit,
    ValidationError,
    doubling_time_series,
    doubling_times,
    eta_from_productivity,
    eta_trajectory,
    exponential_series,
    forecast,
    log_wealth_ratio,
)
from thermoecon.forecast import LN2, ForecastPath, _materialize


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
    t = (scenario.years - scenario.start_year).astype(float)
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
    def test_grid_includes_start_and_respects_step(self):
        s = scenario(horizon_years=10, step_years=4)
        assert list(s.years) == [2009, 2013, 2017]

    def test_zero_horizon_is_single_year(self):
        s = scenario(horizon_years=0)
        assert list(s.years) == [2009]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(c0=0.0),
            dict(c0=-5.0),
            dict(eta0=0.0),
            dict(eta0=-0.01),
            dict(lambda0=0.0),
            dict(horizon_years=-1),
            dict(horizon_years=2.5),
            dict(tau_eta=0.0),
            dict(tau_eta=np.inf),
            dict(tau_eta=np.nan),
            dict(step_years=0),
            dict(step_years=1.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kw):
        with pytest.raises(ValidationError):
            scenario(horizon_years=kw.pop("horizon_years", 10), **kw)


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
        fd = (
            log_wealth_ratio(eta0, tau, t + h) - log_wealth_ratio(eta0, tau, t - h)
        ) / (2.0 * h)
        assert fd == pytest.approx(eta_trajectory(eta0, tau, t), abs=1e-4)

    def test_vector_evaluation(self):
        t = np.linspace(0.0, 30.0, 7)
        out = log_wealth_ratio(0.02, 100.0, t)
        assert out.shape == t.shape
        assert out[0] == 0.0


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

    def test_safe_horizon_does_not_raise(self):
        forecast(scenario(horizon_years=100, tau_eta=100.0))


class TestProductivityCoupling:
    def test_unit_algebra(self):
        eta = eta_from_productivity(7.1, 8.3462e-8)
        assert eta == pytest.approx(0.0187, abs=2e-5)
        assert eta == pytest.approx(7.1 / 1000.0 * 8.3462e-8 * SECONDS_PER_YEAR)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            eta_from_productivity(7.0, 0.0)

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
        with pytest.raises(DomainError):
            doubling_times(0.0)

    def test_doubling_halves_are_consistent(self):
        # doubling the rate halves the wealth doubling time
        assert doubling_times(0.02).wealth_years == pytest.approx(
            2.0 * doubling_times(0.04).wealth_years
        )


class TestDoublingTimeSeries:
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
