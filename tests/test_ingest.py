from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import (
    AnnualSeries,
    InsufficientDataError,
    ParseError,
    Unit,
    UnitError,
    ValidationError,
    builtin_table1,
    load_series,
    write_series,
    write_table,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, text, name="input.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadSeries:
    def test_load_bundled_dataset(self):
        gdp = load_series(DATA_DIR / "world_gdp.csv", Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = load_series(DATA_DIR / "world_power.csv", Unit.POWER_TERAWATT)
        assert gdp.first_year == 1970
        assert power.last_year == 2009

    def test_minimal_file(self, tmp_path):
        p = write(tmp_path, "# unit: power_terawatt\n1970,7.2\n1975,8.3\n")
        s = load_series(p, Unit.POWER_TERAWATT)
        assert list(s.years) == [1970, 1975]
        assert list(s.values) == [7.2, 8.3]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = write(
            tmp_path,
            "# provenance note\n\n# unit: years\n2000,5.0\n\n# trailing remark\n2001,6.0\n",
        )
        s = load_series(p, Unit.YEARS)
        assert len(s) == 2

    def test_rows_out_of_order_are_sorted(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2002,3.0\n2000,1.0\n2001,2.0\n")
        s = load_series(p, Unit.YEARS)
        assert list(s.years) == [2000, 2001, 2002]
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_percent_token_rescales(self, tmp_path):
        p = write(tmp_path, "# unit: percent_per_year\n1970,1.37\n2009,2.14\n")
        s = load_series(p, Unit.PER_YEAR_FRACTION)
        assert s.unit is Unit.PER_YEAR_FRACTION
        assert np.allclose(s.values, [0.0137, 0.0214])

    def test_missing_unit_header(self, tmp_path):
        p = write(tmp_path, "1970,7.2\n")
        with pytest.raises(UnitError, match="unit"):
            load_series(p, Unit.POWER_TERAWATT)

    def test_wrong_unit_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: years\n1970,7.2\n")
        with pytest.raises(UnitError, match="expected power_terawatt"):
            load_series(p, Unit.POWER_TERAWATT)

    def test_unknown_token_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: megaparsecs\n1970,7.2\n")
        with pytest.raises(UnitError, match="unknown unit token"):
            load_series(p, Unit.POWER_TERAWATT)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2000,1.0\n2001,not_a_number\n")
        with pytest.raises(ParseError, match="line 3"):
            load_series(p, Unit.YEARS)

    def test_bad_year_reports_line_number(self, tmp_path):
        p = write(tmp_path, "# unit: years\nMCMXCIX,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series(p, Unit.YEARS)

    def test_wrong_field_count_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2000,1.0,9.9\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series(p, Unit.YEARS)

    def test_empty_cell_invalid_without_columns_header(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2000,\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series(p, Unit.YEARS)

    def test_duplicate_year_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2000,1.0\n2000,2.0\n")
        with pytest.raises(ValidationError, match="duplicate year 2000"):
            load_series(p, Unit.YEARS)

    def test_no_data_rows(self, tmp_path):
        p = write(tmp_path, "# unit: years\n# nothing else\n")
        with pytest.raises(InsufficientDataError):
            load_series(p, Unit.YEARS)

    def test_non_positive_physical_value_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: power_terawatt\n1970,7.2\n1971,-1.0\n")
        with pytest.raises(ValidationError, match="1971"):
            load_series(p, Unit.POWER_TERAWATT)

    def test_tab_separated_rows(self, tmp_path):
        p = write(tmp_path, "# unit: years\n2000\t1.5\n2001\t2.5\n", name="input.tsv")
        s = load_series(p, Unit.YEARS)
        assert list(s.values) == [1.5, 2.5]


class TestRoundTrip:
    @given(
        start=st.integers(1800, 2100),
        values=st.lists(
            st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50)
    def test_write_then_load_is_identity(self, tmp_path_factory, start, values):
        tmp = tmp_path_factory.mktemp("rt")
        s = AnnualSeries(
            np.arange(start, start + len(values)),
            np.array(values),
            Unit.GDP_TRILLION_USD2005_PER_YEAR,
        )
        path = write_series(s, tmp / "s.csv")
        back = load_series(path, s.unit)
        assert np.array_equal(back.years, s.years)
        assert np.array_equal(back.values, s.values)

    def test_tsv_round_trip(self, tmp_path, table1):
        path = write_series(table1.power, tmp_path / "p.tsv", fmt="tsv")
        back = load_series(path, Unit.POWER_TERAWATT)
        assert np.array_equal(back.values, table1.power.values)

    def test_precision_truncates(self, tmp_path):
        s = AnnualSeries(
            np.array([2000]), np.array([1.23456789012345]), Unit.DIMENSIONLESS
        )
        path = write_series(s, tmp_path / "s.csv", precision=4)
        assert "1.235" in path.read_text()


class TestMultiColumn:
    def test_sparse_column_round_trips(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv",
            [2000, 2001, 2002],
            {
                "full": {2000: 1.0, 2001: 2.0, 2002: 3.0},
                "holey": {2000: 10.0, 2002: 30.0},
            },
            {"full": Unit.YEARS, "holey": Unit.YEARS},
        )
        full = load_series(path, Unit.YEARS, column="full")
        holey = load_series(path, Unit.YEARS, column="holey")
        assert len(full) == 3
        assert list(holey.years) == [2000, 2002]

    def test_unknown_column_requested(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv", [2000], {"a": {2000: 1.0}}, {"a": Unit.YEARS}
        )
        with pytest.raises(ParseError, match="no column 'b'"):
            load_series(path, Unit.YEARS, column="b")

    def test_field_count_must_match_declaration(self, tmp_path):
        p = write(
            tmp_path,
            "# columns: year,a,b\n# unit.a: years\n# unit.b: years\n2000,1.0\n",
        )
        with pytest.raises(ParseError, match="line 4"):
            load_series(p, Unit.YEARS, column="a")

    def test_first_column_must_be_year(self, tmp_path):
        p = write(tmp_path, "# columns: a,year\n# unit.a: years\n2000,1.0\n")
        with pytest.raises(ParseError, match="year"):
            load_series(p, Unit.YEARS, column="a")

    def test_raw_token_columns(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv",
            [2000],
            {"r": {2000: 2.14}},
            {"r": "percent_per_year"},
        )
        s = load_series(path, Unit.PER_YEAR_FRACTION, column="r")
        assert s.values[0] == pytest.approx(0.0214)

    @pytest.mark.parametrize("precision", [12, None])
    def test_series_column_matches_mapping_column(self, tmp_path, precision):
        # the series runs past both ends of the grid; off-grid years are dropped
        s = AnnualSeries(
            np.arange(1995, 2011), np.linspace(0.1, 3.7, 16) ** 3, Unit.YEARS
        )
        # a mapping need not be in year order
        mapping = {int(y): float(v) for y, v in zip(s.years[::-1], s.values[::-1])}
        grid = np.arange(2000, 2006)
        a = write_table(
            tmp_path / "a.csv", grid, {"x": s}, {"x": Unit.YEARS}, precision=precision
        )
        b = write_table(
            tmp_path / "b.csv", list(grid), {"x": mapping}, {"x": Unit.YEARS}, precision=precision
        )
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[-1].startswith("2005,")

    def test_array_column_matches_series_column(self, tmp_path):
        s = AnnualSeries(np.arange(2000, 2006), np.linspace(-0.3, 3.7, 6) ** 3, Unit.YEARS)
        a = write_table(tmp_path / "a.csv", s.years, {"x": s}, {"x": Unit.YEARS})
        b = write_table(tmp_path / "b.csv", s.years, {"x": s.values}, {"x": Unit.YEARS})
        assert a.read_bytes() == b.read_bytes()

    def test_array_column_must_match_grid(self, tmp_path):
        with pytest.raises(ValidationError, match="5 values for 6 grid years"):
            write_table(
                tmp_path / "t.csv", np.arange(2000, 2006), {"x": np.ones(5)}, {"x": Unit.YEARS}
            )

    def test_sparse_series_column_round_trips(self, tmp_path):
        years = np.arange(2000, 2008)
        dense = AnnualSeries(years, np.linspace(1.0, 8.0, 8), Unit.YEARS)
        keep = np.array([True, False, False, True, True, False, True, False])
        sparse = AnnualSeries(years[keep], dense.values[keep] * 10.0, Unit.YEARS)
        path = write_table(
            tmp_path / "t.tsv",
            years,
            {"dense": dense, "sparse": sparse},
            {"dense": Unit.YEARS, "sparse": Unit.YEARS},
            fmt="tsv",
        )
        rows = path.read_text().splitlines()[-8:]
        assert rows[1] == "2001\t2\t" and rows[7] == "2007\t8\t"
        back = load_series(path, Unit.YEARS, column="sparse")
        assert np.array_equal(back.years, sparse.years)
        assert np.array_equal(back.values, sparse.values)

    @given(
        values=st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50)
    def test_full_precision_round_trips_bit_exact(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("table")
        s = AnnualSeries(np.arange(1900, 1900 + len(values)), values, Unit.DIMENSIONLESS)
        path = write_table(
            tmp / "t.csv", s.years, {"v": s}, {"v": Unit.DIMENSIONLESS}, precision=None
        )
        back = load_series(path, Unit.DIMENSIONLESS, column="v")
        assert np.array_equal(back.values.view(np.int64), s.values.view(np.int64))

    def test_unknown_raw_token_rejected_at_write(self, tmp_path):
        with pytest.raises(UnitError):
            write_table(
                tmp_path / "t.csv", [2000], {"r": {2000: 1.0}}, {"r": "bogus"}
            )


class TestBuiltinTable:
    def test_shapes_and_units(self, table1):
        for s in table1:
            assert len(s) == 9
            assert s.first_year == 1970 and s.last_year == 2009
        assert table1.power.unit is Unit.POWER_TERAWATT
        assert table1.gdp.unit is Unit.GDP_TRILLION_USD2005_PER_YEAR
        assert table1.power_over_wealth.unit is Unit.WATTS_PER_THOUSAND_USD2005
        assert table1.rate_of_return.unit is Unit.PER_YEAR_FRACTION

    def test_rate_of_return_stored_as_fraction(self, table1):
        assert table1.rate_of_return.value_at(1970) == pytest.approx(0.0137)
        assert table1.rate_of_return.value_at(2009) == pytest.approx(0.0214)

    def test_bundled_files_match_builtin(self, table1):
        pairs = [
            ("world_power.csv", Unit.POWER_TERAWATT, table1.power),
            ("world_gdp.csv", Unit.GDP_TRILLION_USD2005_PER_YEAR, table1.gdp),
            (
                "power_wealth_ratio.csv",
                Unit.WATTS_PER_THOUSAND_USD2005,
                table1.power_over_wealth,
            ),
            ("rate_of_return.csv", Unit.PER_YEAR_FRACTION, table1.rate_of_return),
        ]
        for name, unit, expected in pairs:
            s = load_series(DATA_DIR / name, unit)
            assert np.array_equal(s.years, expected.years)
            assert np.allclose(s.values, expected.values, rtol=1e-15)
