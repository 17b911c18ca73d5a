import io
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import Unit, load_series, run_fit
from thermoecon.cli import main
from thermoecon.units import parse_unit_token

from test_ingest import write_series_reference
from test_series import exponential_series

GDP = Unit.GDP_TRILLION_USD2005_PER_YEAR
POWER = Unit.POWER_TERAWATT
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "thermoecon" / "data"


def run(*argv):
    return main(list(argv))


def synthetic_inputs(tmp_path, n=30, rate=0.025):
    gdp = exponential_series(1980, n, 20.0, rate, GDP, "gdp")
    power = exponential_series(1980, n, 9.0, rate, POWER, "power")
    gp = write_series_reference(gdp, tmp_path / "gdp.csv")
    pp = write_series_reference(power, tmp_path / "power.csv")
    return str(gp), str(pp)


class TestFitCommand:
    def test_builtin_outputs(self, tmp_path, capsys):
        assert run("fit", "--builtin-table1", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "lambda mean" in out
        series_path = tmp_path / "lambda_series.csv"
        assert series_path.exists() and (tmp_path / "summary.txt").exists()
        lam = load_series(series_path, Unit.WATTS_PER_THOUSAND_USD2005, column="lambda")
        eta = load_series(series_path, Unit.PER_YEAR_FRACTION, column="eta")
        f = load_series(series_path, Unit.USD2005_PER_JOULE, column="f")
        wealth = load_series(series_path, Unit.WEALTH_TRILLION_USD2005, column="wealth")
        assert len(lam) == len(eta) == len(f) == len(wealth) == 40
        assert lam.value_at(1970) == pytest.approx(6.4)
        assert wealth.value_at(1970) == pytest.approx(1125.0)

    def test_summary_decomposition_is_exact_arithmetic(self, tmp_path):
        run("fit", "--builtin-table1", "--out", str(tmp_path))
        text = (tmp_path / "summary.txt").read_text()
        m = re.search(r"decomposition: (\S+) \+ (\S+) = (\S+)", text)
        assert m, text
        a, b, c = (float(g) for g in m.groups())
        assert a + b == c

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run("fit", "--builtin-table1", "--out", str(d1))
        run("fit", "--builtin-table1", "--out", str(d2))
        for name in ("lambda_series.csv", "summary.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_user_data_with_window(self, tmp_path):
        gp, pp = synthetic_inputs(tmp_path)
        rc = run(
            "fit",
            "--gdp", gp,
            "--power", pp,
            "--window", "1985:2005",
            "--lambda0", "8.0",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "window: 1985:2005" in text

    def test_tsv_format(self, tmp_path):
        run("fit", "--builtin-table1", "--format", "tsv", "--out", str(tmp_path))
        path = tmp_path / "lambda_series.tsv"
        assert path.exists()
        assert "\t" in path.read_text().splitlines()[-1]
        lam = load_series(path, Unit.WATTS_PER_THOUSAND_USD2005, column="lambda")
        assert len(lam) == 40


class TestForecastCommand:
    def test_builtin_seed_row(self, tmp_path):
        assert run("forecast", "--builtin-table1", "--out", str(tmp_path)) == 0
        path = tmp_path / "forecast.csv"
        wealth = load_series(path, Unit.WEALTH_TRILLION_USD2005, column="wealth")
        eta = load_series(path, Unit.PER_YEAR_FRACTION, column="eta")
        assert wealth.first_year == 2009
        assert wealth.value_at(2009) == 2300.0
        assert eta.value_at(2009) == 0.0214
        assert len(wealth) == 51  # default horizon 50

    @pytest.mark.parametrize(
        "window, tau",
        [
            ([], "87.62569233333448"),
            (["--window", "1970:2009"], "87.62569233333448"),
            (["--window", "1990:2009"], "156.38818132003195"),
            (["--window", "2000:2009"], "431.5867319687022"),
        ],
        ids=["default", "1970_2009", "1990_2009", "2000_2009"],
    )
    def test_window_sets_builtin_tau(self, window, tau, tmp_path):
        argv = ["forecast", "--builtin-table1", "--horizon", "5", *window]
        assert run(*argv, "--out", str(tmp_path)) == 0
        header = (tmp_path / "forecast.csv").read_text().splitlines()
        assert f"# tau_eta = {tau} yr, start 2009, horizon 5 yr" in header

    def test_horizon_zero_single_row(self, tmp_path):
        run("forecast", "--builtin-table1", "--horizon", "0", "--out", str(tmp_path))
        wealth = load_series(
            tmp_path / "forecast.csv", Unit.WEALTH_TRILLION_USD2005, column="wealth"
        )
        assert len(wealth) == 1

    def test_tau_zero_freezes_eta(self, tmp_path, capsys):
        run(
            "forecast",
            "--builtin-table1",
            "--tau-eta", "0",
            "--horizon", "50",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert "2.14 %/yr" in out
        eta = load_series(
            tmp_path / "forecast.csv", Unit.PER_YEAR_FRACTION, column="eta"
        )
        assert np.allclose(eta.values, 0.0214)

    def test_eta0_override(self, tmp_path):
        run(
            "forecast",
            "--builtin-table1",
            "--eta0", "0.03",
            "--horizon", "5",
            "--out", str(tmp_path),
        )
        eta = load_series(
            tmp_path / "forecast.csv", Unit.PER_YEAR_FRACTION, column="eta"
        )
        assert eta.value_at(2009) == 0.03

    def test_scenario_recorded_in_header(self, tmp_path):
        run("forecast", "--builtin-table1", "--horizon", "5", "--out", str(tmp_path))
        header = (tmp_path / "forecast.csv").read_text().splitlines()[1]
        assert "c0 = 2300.0" in header and "eta0 = 0.0214" in header

    def test_seeds_from_fitted_end_state_with_user_data(self, tmp_path):
        gp, pp = synthetic_inputs(tmp_path)
        rc = run(
            "forecast",
            "--gdp", gp,
            "--power", pp,
            "--lambda0", "8.0",
            "--horizon", "10",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 0
        wealth = load_series(
            tmp_path / "out" / "forecast.csv",
            Unit.WEALTH_TRILLION_USD2005,
            column="wealth",
        )
        assert wealth.first_year == 2009  # 1980 + 30 years of record - 1
        assert len(wealth) == 11

    def test_negative_exponent_form_tau_needs_equals(self, tmp_path, capsys):
        # argparse takes "-1e3" for an option; "-1000" reads as a number
        with pytest.raises(SystemExit) as exc:
            run("forecast", "--builtin-table1", "--tau-eta", "-1e3")
        assert exc.value.code == 2
        capsys.readouterr()
        outputs = []
        for name, tau in [("equals", ["--tau-eta=-1e3"]), ("plain", ["--tau-eta", "-1000"])]:
            out_dir = tmp_path / name
            assert run("forecast", "--builtin-table1", *tau, "--out", str(out_dir)) == 0
            stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
            outputs.append((stdout, (out_dir / "forecast.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert b"tau_eta = -1000.0 yr" in outputs[0][1]

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run("forecast", "--builtin-table1", "--horizon", "20", "--out", str(d1))
        run("forecast", "--builtin-table1", "--horizon", "20", "--out", str(d2))
        assert (d1 / "forecast.csv").read_bytes() == (d2 / "forecast.csv").read_bytes()


class TestTable1Command:
    def test_deviation_columns_stay_inside_bounds(self, tmp_path):
        assert run("table1", "--out", str(tmp_path)) == 0
        path = tmp_path / "table1_reconstruction.csv"
        ratio_dev = load_series(
            path, Unit.WATTS_PER_THOUSAND_USD2005, column="ratio_deviation"
        )
        ror_dev = load_series(path, Unit.PER_YEAR_FRACTION, column="ror_deviation")
        assert np.max(np.abs(ratio_dev.values)) <= 0.1
        # the file stores percent points; the loader rescales to fractions
        assert np.max(np.abs(ror_dev.values)) <= 0.02 * 0.01

    def test_reconstructed_returns_match_printed(self, tmp_path, table1):
        run("table1", "--out", str(tmp_path))
        path = tmp_path / "table1_reconstruction.csv"
        computed = load_series(path, Unit.PER_YEAR_FRACTION, column="ror_computed")
        for year in map(int, table1.rate_of_return.years):
            assert computed.value_at(year) == pytest.approx(
                table1.rate_of_return.value_at(year), abs=2e-4
            )

    def test_index_column_optional(self, tmp_path):
        run("table1", "--out", str(tmp_path / "plain"))
        run("table1", "--index-1970", "--out", str(tmp_path / "indexed"))
        plain = (tmp_path / "plain" / "table1_reconstruction.csv").read_text()
        indexed = (tmp_path / "indexed" / "table1_reconstruction.csv").read_text()
        assert "wealth_indexed" not in plain
        assert "wealth_indexed" in indexed
        s = load_series(
            tmp_path / "indexed" / "table1_reconstruction.csv",
            Unit.DIMENSIONLESS,
            column="wealth_indexed",
        )
        assert s.value_at(1970) == 1.0
        assert s.value_at(2009) == pytest.approx(2311.606 / 1125.0, abs=1e-4)

    @pytest.mark.parametrize("lambda0", [6.4, 7.1, 0.001, 123.456])
    def test_columns_read_the_fitted_model(self, lambda0, table1, tmp_path):
        argv = ["table1", "--index-1970", "--lambda0", repr(lambda0)]
        assert run(*argv, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "table1_reconstruction.csv").read_text().splitlines()
        names = next(x for x in lines if x.startswith("# columns: "))[11:].split(",")
        rows = [dict(zip(names, x.split(","))) for x in lines if not x.startswith("#")]
        res = run_fit(table1.gdp, table1.power, lambda0=lambda0)
        wealth_1970 = res.wealth.value_at(1970)
        assert [int(r["year"]) for r in rows] == table1.power.years.tolist()
        for r in rows:
            year = int(r["year"])
            assert r["ratio_computed"] == "%.12g" % res.model.lambda_series.value_at(year)
            assert r["wealth_indexed"] == "%.12g" % (res.wealth.value_at(year) / wealth_1970)


class TestFigure2Command:
    def test_sparse_eta_doubling_column(self, tmp_path):
        assert run("figure2", "--builtin-table1", "--out", str(tmp_path)) == 0
        path = tmp_path / "figure2_data.csv"
        delta_c = load_series(path, Unit.YEARS, column="delta_c_years")
        delta_eta = load_series(path, Unit.YEARS, column="delta_eta_years")
        assert len(delta_c) == 40
        missing = sorted(set(delta_c.years.tolist()) - set(delta_eta.years.tolist()))
        assert missing == [2007, 2008, 2009]
        assert delta_c.value_at(1970) == pytest.approx(50.967, abs=2e-3)
        assert delta_c.value_at(2009) == pytest.approx(32.633, abs=2e-3)

    def test_column_with_no_positive_trend_loads_empty(self, tmp_path):
        # a large lambda0 leaves the smoothed eta trend negative in every year
        assert run("figure2", "--builtin-table1", "--lambda0", "100", "--out", str(tmp_path)) == 0
        path = tmp_path / "figure2_data.csv"
        assert len(load_series(path, Unit.YEARS, column="delta_c_years")) == 40
        assert len(load_series(path, Unit.YEARS, column="delta_eta_years")) == 0

    def test_empty_cells_written_for_missing_years(self, tmp_path):
        run("figure2", "--builtin-table1", "--out", str(tmp_path))
        rows = [
            line
            for line in (tmp_path / "figure2_data.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[-1].startswith("2009,") and rows[-1].endswith(",")


class TestPrintedFigures:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--builtin-table1", "--lambda0", "1e150"],
            [
                "forecast", "--builtin-table1",
                "--eta0", "1e300", "--tau-eta", "0", "--horizon", "0",
            ],
            ["table1", "--lambda0", "1e150"],
            ["figure2", "--gdp", "{gdp}", "--power", "{power}", "--lambda0", "1e-300"],
        ],
        ids=["fit", "forecast", "table1", "figure2"],
    )
    def test_huge_figures_stay_short(self, argv, tmp_path, capsys):
        # two-knot records, 1970 and 2009, for figure2's doubling times
        inputs = {
            "gdp": "# unit: gdp_trillion_usd2005_per_year\n1970,15.3\n2009,49.1\n",
            "power": "# unit: power_terawatt\n1970,7.2\n2009,16.1\n",
        }
        for name, text in inputs.items():
            (tmp_path / f"{name}.csv").write_text(text)
        argv = [a.format(**{k: tmp_path / f"{k}.csv" for k in inputs}) for a in argv]
        out_dir = tmp_path / "out"
        assert run(*argv, "--out", str(out_dir)) == 0
        stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
        assert max(map(len, stdout.splitlines())) <= 100
        assert "e+" in stdout


class TestErrorHandling:
    def test_missing_file(self, tmp_path, capsys):
        rc = run(
            "fit",
            "--gdp", str(tmp_path / "nope.csv"),
            "--power", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.replace(str(tmp_path), "<tmp>") == (
            "error: [Errno 2] No such file or directory: '<tmp>/nope.csv'\n"
        )
        assert captured.out == ""

    def test_short_overlap(self, tmp_path, capsys):
        gdp = exponential_series(2000, 20, 40.0, 0.02, GDP, "gdp")
        power = exponential_series(2018, 20, 15.0, 0.02, POWER, "power")
        rc = run(
            "fit",
            "--gdp", str(write_series_reference(gdp, tmp_path / "gdp.csv")),
            "--power", str(write_series_reference(power, tmp_path / "power.csv")),
            "--lambda0", "7.0",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: GDP and power overlap on 2 years; "
            "need at least 10 consecutive years for fitting\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit"], "provide --gdp and --power, or --builtin-table1"),
            (
                ["fit", "--builtin-table1", "--window", "1970-2009"],
                "--window wants START:END, got '1970-2009'",
            ),
            (
                ["fit", "--builtin-table1", "--window", "2009:1970"],
                "--window '2009:1970' ends before it starts",
            ),
            (
                # the window picks the rate-of-return trend years, so it is parsed too
                ["forecast", "--builtin-table1", "--window", "1970-2009"],
                "--window wants START:END, got '1970-2009'",
            ),
            (
                ["fit", "--builtin-table1", "--window", "1980:1981"],
                "fit window 1980:1981 covers 2 years; "
                "the innovation fit needs at least 3",
            ),
            (
                [
                    "fit",
                    "--gdp", str(DATA_DIR / "world_gdp.csv"),
                    "--power", str(DATA_DIR / "world_power.csv"),
                    "--lambda0", "7",
                    "--window", "1960:2000",
                ],
                "grid [1960, 2000] extrapolates beyond series 'world_gdp' "
                "coverage [1970, 2009]",
            ),
            (
                ["forecast", "--builtin-table1", "--tau-eta", "-1", "--horizon", "5000"],
                "forecast underflows double precision at year 2751 (eta); "
                "shorten the horizon",
            ),
            (
                ["forecast", "--builtin-table1", "--tau-eta", "1", "--horizon", "2000"],
                "forecast overflows double precision at year 2020 (wealth); "
                "shorten the horizon",
            ),
            (
                ["forecast", "--builtin-table1", "--horizon", "100000000000"],
                "horizon_years must be at most 1000000, got 100000000000",
            ),
            (
                ["fit", "--builtin-table1", "--window", "1970:1970000000000000000000"],
                "year range [1970, 1970000000000000000000] spans more than 1000000 years",
            ),
            (
                ["fit", "--builtin-table1", "--window", "1970:2000000000"],
                "year range [1970, 2000000000] spans more than 1000000 years",
            ),
            (
                [
                    "fit", "--builtin-table1",
                    "--window", "9223372036854775800:9223372036854775810",
                ],
                "year range [9223372036854775800, 9223372036854775810] reaches past +-2**53",
            ),
            (
                ["forecast", "--builtin-table1", "--window", "2005:2009"],
                "innovation fit needs at least 3 points, got 2 in window 2005:2009",
            ),
            (
                # a trend window past the printed years is refused, not clipped
                ["forecast", "--builtin-table1", "--window", "1900:2100", "--horizon", "10"],
                "window 1900:2100 extrapolates beyond series 'rate of return' "
                "coverage [1970, 2009]",
            ),
            (
                ["forecast", "--builtin-table1", "--gdp", str(DATA_DIR / "world_gdp.csv")],
                "--gdp cannot be combined with --builtin-table1",
            ),
            (
                ["forecast", "--builtin-table1", "--lambda0", "7"],
                "--lambda0 cannot be combined with --builtin-table1",
            ),
            (
                ["fit", "--builtin-table1", "--power", str(DATA_DIR / "world_power.csv")],
                "--power cannot be combined with --builtin-table1",
            ),
            (
                ["figure2", "--builtin-table1", "--historical-gdp", "history.csv"],
                "--historical-gdp cannot be combined with --builtin-table1",
            ),
            (
                ["fit", "--builtin-table1", "--lambda0", "1e-320"],
                "lambda0 = 1e-320 puts the calibrated wealth 1000 * 7.2 / lambda0 "
                "outside double precision",
            ),
            *(
                (
                    [*command, "--lambda0", "1e308"],
                    "lambda spread over 1970:2009 overflows double precision",
                )
                for command in (
                    ["fit", "--builtin-table1"],
                    ["table1"],
                    ["figure2", "--builtin-table1"],
                )
            ),
            (["fit", "--builtin-table1", "--lambda0", "inf"], "lambda0 must be finite, got inf"),
            (["forecast", "--builtin-table1", "--eta0", "nan"], "eta0 must be finite, got nan"),
            (["table1", "--lambda0", "nan"], "lambda0 must be finite, got nan"),
            *(
                (
                    ["forecast", "--builtin-table1", "--eta0", "1e306", "--horizon", horizon],
                    "initial gdp eta0 * c0 = 1e+306 * 2300.0 overflows double precision",
                )
                for horizon in ("0", "5")
            ),
            (
                # eta0 * tau rounds to zero; it once met an overflowed expm1 as 0 * inf
                [
                    "forecast", "--builtin-table1",
                    "--eta0", "1e-323", "--tau-eta", "0.01", "--horizon", "10",
                ],
                "forecast overflows double precision at year 2017 (wealth); shorten the horizon",
            ),
        ],
        ids=[
            "missing_inputs",
            "bad_window_spec",
            "backwards_window",
            "bad_window_spec_with_builtin_forecast",
            "short_window",
            "short_series",
            "eta_underflow",
            "overflow",
            "huge_horizon",
            "window_1e21",
            "window_2e9",
            "window_past_2_53",
            "builtin_trend_window_2_years",
            "builtin_trend_window_past_coverage",
            "builtin_forecast_with_gdp",
            "builtin_forecast_with_lambda0",
            "builtin_fit_with_power",
            "builtin_figure2_with_historical_gdp",
            "fit_lambda0_1e-320",
            "fit_lambda0_1e308",
            "table1_lambda0_1e308",
            "figure2_lambda0_1e308",
            "fit_lambda0_inf",
            "forecast_eta0_nan",
            "table1_lambda0_nan",
            "forecast_eta0_1e306_horizon_0",
            "forecast_eta0_1e306_horizon_5",
            "forecast_eta0_1e-323_tau_0.01",
        ],
    )
    def test_one_error_line(self, argv, message, tmp_path, capsys):
        assert run(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def assert_grid_too_long(self, argv, years, tmp_path, capsys):
        # the span is rejected before any grid is allocated
        assert run(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: year range [{years[0]}, {years[1]}] spans more than 1000000 years\n"
        )
        assert captured.out == ""

    def test_knots_two_billion_years_apart(self, tmp_path, capsys):
        files = []
        for name, token in (("gdp", GDP.token), ("power", POWER.token)):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"# unit: {token}\n1,10.0\n2000000000,20.0\n", encoding="utf-8")
            files.append(str(path))
        argv = ["fit", "--gdp", files[0], "--power", files[1], "--lambda0", "7"]
        self.assert_grid_too_long(argv, (1, 2000000000), tmp_path, capsys)

    @pytest.mark.parametrize(
        "command, gdp, power, lambda0, message",
        [
            (
                "fit", (10.0, 20.0), (7.0, 1e200), "7",
                "lambda spread over 1970:2009 overflows double precision",
            ),
            (
                "fit", (1e308, 1.5e308), (7.0, 16.0), "7",
                "wealth_trillion_usd2005 integral of series 'gdp' overflows double "
                "precision at year 1971",
            ),
            (
                "fit", (10.0, 20.0), (7.0, 1.7e308), "1000",
                "series 'power' / 'wealth_trillion_usd2005' overflows double precision "
                "at year 2009",
            ),
            (
                # fit succeeds; the smoothed eta is subnormal, so ln2 over it is not
                "figure2", (1e-300, 3e-300), (1.0, 2.0), "1e-6",
                "wealth doubling time overflows double precision at year 1970",
            ),
        ],
        ids=["lambda_spread", "wealth_integral", "lambda_ratio", "figure2_tiny_eta"],
    )
    def test_fit_overflow_one_error_line(
        self, command, gdp, power, lambda0, message, tmp_path, capsys
    ):
        # the suite turns RuntimeWarning into an error, so a numpy warning fails
        files = []
        for name, token, (first, last) in (("gdp", GDP.token, gdp), ("power", POWER.token, power)):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"# unit: {token}\n1970,{first!r}\n2009,{last!r}\n", encoding="utf-8")
            files.append(str(path))
        argv = [command, "--gdp", files[0], "--power", files[1], "--lambda0", lambda0]
        assert run(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_forecast_overflow_names_the_first_year(self, tmp_path, capsys):
        # gdp passes the largest double in 2044, a year before wealth does
        argv = ["forecast", "--builtin-table1", "--eta0", "20", "--tau-eta", "0"]
        assert run(*argv, "--horizon", "50", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: forecast overflows double precision at year 2044 (gdp); shorten the horizon\n"
        )
        assert captured.out == ""

    def test_history_from_two_billion_years_back(self, tmp_path, capsys):
        gdp, power = synthetic_inputs(tmp_path)
        history = tmp_path / "history.csv"
        history.write_text(
            f"# unit: {GDP.token}\n-2000000000,0.001\n1900,2.0\n", encoding="utf-8"
        )
        argv = ["fit", "--gdp", gdp, "--power", power, "--historical-gdp", str(history)]
        self.assert_grid_too_long(argv, (-2000000000, 2009), tmp_path, capsys)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1970,15.3\n1971,\xff16\n", "line 3: invalid UTF-8 byte 0xff"),
            (b"1970,15.3\n1971,nan\n", "line 3: non-finite value 'nan'"),
            (b"1970,15.3\n1971,inf\n", "line 3: non-finite value 'inf'"),
            (b"1970,15.3\n1971,1e400\n", "line 3: non-finite value '1e400'"),
            (
                b"1970,15.3\n99999999999999999999,1.0\n",
                "line 3: year '99999999999999999999' is outside the int64 range",
            ),
            (b"1970,15.3\n1971,x\n", "line 3: bad value 'x'"),
        ],
        ids=["non_utf8", "nan", "inf", "1e400", "int64_year", "bad_value"],
    )
    def test_bad_input_file_one_error_line(self, data, message, tmp_path, capsys):
        _, power = synthetic_inputs(tmp_path)
        gdp = tmp_path / "bad_gdp.csv"
        gdp.write_bytes(b"# unit: gdp_trillion_usd2005_per_year\n" + data)
        argv = ["fit", "--gdp", str(gdp), "--power", power, "--lambda0", "7"]
        assert run(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad_gdp.csv: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rows", ["1970,\n1971,\n", ""], ids=["empty_cells", "header_only"])
    @pytest.mark.parametrize("flag", ["gdp", "power", "historical-gdp"])
    def test_input_with_no_values_names_its_file(self, flag, rows, tmp_path, capsys):
        gdp, power = synthetic_inputs(tmp_path)
        empty = tmp_path / "empty.csv"
        token = (POWER if flag == "power" else GDP).token
        empty.write_text(f"# columns: year,value\n# unit.value: {token}\n{rows}", encoding="utf-8")
        inputs = {"gdp": gdp, "power": power, flag: str(empty)}
        argv = [arg for name, path in inputs.items() for arg in (f"--{name}", path)]
        assert run("fit", *argv, "--lambda0", "6.4", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: empty.csv: no values in column 'value'\n"
        assert captured.out == ""

    def test_byte_order_mark_input_fits(self, tmp_path, capsys):
        gp, pp = synthetic_inputs(tmp_path)
        bom = tmp_path / "bom_gdp.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(gp).read_bytes())
        argv = ["fit", "--power", pp, "--lambda0", "8.0"]
        assert run(*argv, "--gdp", gp, "--out", str(tmp_path / "plain")) == 0
        assert run(*argv, "--gdp", str(bom), "--out", str(tmp_path / "bom")) == 0
        for name in ("lambda_series.csv", "summary.txt"):
            plain, bom_out = (tmp_path / d / name for d in ("plain", "bom"))
            assert plain.read_bytes() == bom_out.read_bytes()

    def test_unit_mismatch_in_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# unit: years\n1970,1.0\n1971,2.0\n")
        rc = run(
            "fit",
            "--gdp", str(bad),
            "--power", str(bad),
            "--out", str(tmp_path),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: bad.csv: declared unit 'years' is years, "
            "expected gdp_trillion_usd2005_per_year\n"
        )
        assert captured.out == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "thermoecon 0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzz: every command line ends in exit 0 with loadable outputs, or in
# exit 2 with one error line. Any float and any fault can be drawn, but
# plausible values are drawn more often, so that many runs get past the
# checks and write files.

_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 1e-320, 1e308, math.nan, math.inf])


def _all_heads(draw, flips):
    """True with odds 1 in 2**flips; a drawn integer would skew towards 0."""
    return all(draw(st.booleans()) for _ in range(flips))


def _flag(draw, name, low, high):
    """No flag, a plausible value or, one time in four, any float."""
    if _all_heads(draw, 2):
        value = draw(st.one_of(st.floats(), _SPECIAL_FLOATS))
    else:
        value = draw(st.one_of(st.none(), st.floats(low, high)))
    # the = form, so argparse takes a negative number as the value
    return [] if value is None else [f"--{name}={value!r}"]


@st.composite
def input_file(draw, unit, years):
    """The bytes of one input file with a row for each of `years`.

    A BOM and CRLF line ends are valid; a missing, foreign or unknown unit
    header, a value that is not a positive finite float and a byte that is
    not UTF-8 are not. Rows come in drawn order, so years may repeat or
    run backwards.
    """
    token = draw(st.sampled_from([None, "years", "bogus"])) if _all_heads(draw, 3) else unit.token
    cells = st.floats() if _all_heads(draw, 3) else st.floats(1e-3, 1e3)
    lines = ["# generated"] + ([] if token is None else [f"# unit: {token}"])
    lines += [f"{year},{draw(cells)!r}" for year in years]
    data = (("\r\n" if draw(st.booleans()) else "\n").join(lines) + "\n").encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if _all_heads(draw, 3):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def command_lines(draw, directory):
    """(argv, {path: bytes}) for one run of fit, forecast, figure2 or table1."""
    command = draw(st.sampled_from(["fit", "forecast", "figure2", "table1"]))
    argv, files = [command, "--format", draw(st.sampled_from(["csv", "tsv"]))], {}
    builtin = command == "table1" or draw(st.booleans())
    # forecast refuses --lambda0 with the built-in table
    if not (command == "forecast" and builtin) or _all_heads(draw, 3):
        argv += _flag(draw, "lambda0", 2.0, 20.0)
    if command == "table1":
        return argv + (["--index-1970"] if draw(st.booleans()) else []), files
    year = st.integers(-3000, 3000)
    if builtin:
        argv.append("--builtin-table1")
        years = list(range(1970, 2010))
    else:
        years = draw(st.lists(year, min_size=1, max_size=30, unique=not _all_heads(draw, 2)))
        history = draw(st.one_of(st.none(), st.lists(year, max_size=30)))
        inputs = [("gdp", GDP, years), ("power", POWER, years), ("historical-gdp", GDP, history)]
        for flag, unit, rows in inputs:
            if rows is not None:
                path = directory / f"{flag}.csv"
                files[path] = draw(input_file(unit, rows))
                argv += [f"--{flag}", str(path)]
    if _all_heads(draw, 3):
        argv.append("--window=" + draw(st.sampled_from(["1970", "a:b", ":", "1:2:3"])))
    elif draw(st.booleans()):
        end = st.one_of(st.sampled_from(years), st.integers(-3100, 3100))
        window = draw(end), draw(end)
        argv.append("--window={}:{}".format(*(window if _all_heads(draw, 2) else sorted(window))))
    if command == "forecast":
        argv += _flag(draw, "eta0", 1e-3, 0.1) + _flag(draw, "tau-eta", -500.0, 500.0)
        if draw(st.booleans()):
            argv.append(f"--horizon={draw(st.integers(-5, 3000))}")
    return argv, files


class TestCommandLineFuzz:
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_exit_zero_with_loadable_outputs_or_one_error_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            argv, files = data.draw(command_lines(directory), label="argv, files")
            for path, text in files.items():
                path.write_bytes(text)
            out, stderr = directory / "out", io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                    code = main([*argv, "--out", str(out)])
            err = stderr.getvalue()
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
                return
            assert code == 0 and err == ""
            reports = [p for p in out.iterdir() if p.suffix in (".csv", ".tsv")]
            assert reports
            for path in reports:
                # every column of every report loads back under its own unit
                text = path.read_text(encoding="utf-8")
                for name, token in re.findall(r"^# unit\.(\w+): (\S+)$", text, re.MULTILINE):
                    load_series(path, parse_unit_token(token)[0], column=name)
