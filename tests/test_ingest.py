import io
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoecon import (
    AnnualSeries,
    ParseError,
    ThermoeconError,
    Unit,
    builtin_table1,
    load_series,
    write_table,
)
from thermoecon.ingest import _CHUNK_ROWS
from thermoecon.units import FILE_TOKENS, parse_unit_token

from test_series import exactly

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "thermoecon"
DATA_DIR = PACKAGE_DIR / "data"

# ---------------------------------------------------------------------------
# the original reader and writers, kept as oracles for the one-split reader
# and the one-format-call-per-row writers

_UNIT_RE = re.compile(r"^#\s*unit:\s*(\S+)\s*$")
_COLUMNS_RE = re.compile(r"^#\s*columns:\s*(\S+)\s*$")
_COLUMN_UNIT_RE = re.compile(r"^#\s*unit\.([A-Za-z0-9_]+):\s*(\S+)\s*$")


def _split_row_reference(line):
    if "\t" in line:
        return [f.strip() for f in line.split("\t")]
    return [f.strip() for f in line.split(",")]


def load_series_reference(path, expected_unit, column="value"):
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    unit_token = None
    columns = None
    column_units = {}
    points = {}
    has_rows = False

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _UNIT_RE.match(line)
            if m:
                unit_token = m.group(1)
                continue
            m = _COLUMNS_RE.match(line)
            if m:
                columns = m.group(1).split(",")
                if not columns or columns[0] != "year":
                    raise ParseError("first declared column must be 'year'", lineno)
                seen = {"year"}
                for c in columns[1:]:
                    if c in seen or not re.fullmatch(r"[A-Za-z0-9_]+", c):
                        why = "repeated" if c in seen else "not [A-Za-z0-9_]+"
                        raise ParseError(f"column {c!r} is {why}", lineno)
                    seen.add(c)
                continue
            m = _COLUMN_UNIT_RE.match(line)
            if m:
                column_units[m.group(1)] = m.group(2)
            continue

        has_rows = True
        fields = _split_row_reference(raw)
        if columns is None:
            if len(fields) != 2:
                raise ParseError(f"expected 'year,value', got {raw!r}", lineno)
            names = ["year", "value"]
        else:
            if len(fields) != len(columns):
                raise ParseError(
                    f"expected {len(columns)} fields per '# columns:' header, got {len(fields)}",
                    lineno,
                )
            names = columns
        try:
            year = int(fields[0])
        except ValueError:
            raise ParseError(f"bad year {fields[0]!r}", lineno)
        try:
            idx = names.index(column if columns is not None or column == "value" else None, 1)
        except ValueError:
            raise ParseError(f"file has no column {column!r}", lineno)
        cell = fields[idx]
        if cell == "":
            if columns is None:
                raise ParseError("empty value", lineno)
            continue
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"bad value {cell!r}", lineno)
        if year in points:
            raise ThermoeconError(f"{path.name}: duplicate year {year}")
        points[year] = value

    if columns is not None:
        token = column_units.get(column, unit_token)
        if token is None:
            raise ThermoeconError(f"{path.name}: no '# unit.{column}:' header")
    else:
        token = unit_token
        if token is None:
            raise ThermoeconError(f"{path.name}: missing mandatory '# unit:' header")
    unit, scale = parse_unit_token(token)
    if unit is not expected_unit:
        raise ThermoeconError(
            f"{path.name}: declared unit {token!r} is {unit.token}, expected {expected_unit.token}"
        )

    if not has_rows and (columns is None or column not in columns[1:]):
        raise ThermoeconError(f"{path.name}: no data rows")

    years = sorted(points)
    values = [points[y] * scale for y in years]
    if expected_unit.requires_positive and any(v <= 0.0 for v in values):
        bad = next(y for y, v in zip(years, values) if v <= 0.0)
        raise ThermoeconError(
            f"{path.name}: non-positive value at year {bad} for unit {expected_unit.token}"
        )
    label = column if column != "value" else path.stem
    return AnnualSeries(np.array(years), np.array(values), expected_unit, label)


def _format_column_reference(values, precision):
    floats = values.tolist()
    if precision is None:
        return list(map(repr, floats))
    return list(map(format, floats, repeat(f".{precision}g")))


def _column_cells_reference(grid, column, precision):
    if isinstance(column, AnnualSeries):
        years, values = column.years, column.values
    else:
        years = np.fromiter(column.keys(), dtype=np.int64, count=len(column))
        values = np.fromiter(column.values(), dtype=float, count=len(column))
        order = np.argsort(years)
        years, values = years[order], values[order]
    idx = np.searchsorted(years, grid)
    hit = idx < years.size
    hit[hit] = years[idx[hit]] == grid[hit]
    formatted = _format_column_reference(values[idx[hit]], precision)
    if hit.all():
        return formatted
    cells = np.full(grid.size, "", dtype=object)
    cells[hit] = formatted
    return cells.tolist()


def write_table_reference(path, year_grid, columns, units, fmt="csv", precision=12, comments=()):
    path = Path(path)
    delim = "\t" if fmt == "tsv" else ","
    names = list(columns)
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: year," + ",".join(names))
    for name in names:
        unit = units[name]
        token = unit.token if isinstance(unit, Unit) else unit
        if token not in FILE_TOKENS:
            raise ThermoeconError(f"unknown unit token {token!r} for column {name!r}")
        lines.append(f"# unit.{name}: {token}")
    grid = np.asarray(year_grid, dtype=np.int64)
    cells = [list(map(str, grid.tolist()))]
    cells.extend(_column_cells_reference(grid, columns[name], precision) for name in names)
    lines.extend(map(delim.join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_columns(columns):
    """The oracle's (columns, units) arguments for a write_table `columns` map."""
    return columns, {n: c.unit for n, c in columns.items()}


def write_series_reference(series, path, fmt="csv", precision=None, comments=()):
    """The two-column file load_series reads; the suite's fixture writer.

    With precision=None every value is written in full (repr), so a
    write -> load round trip is bit-exact.
    """
    path = Path(path)
    delim = "\t" if fmt == "tsv" else ","
    lines = [f"# {c}" for c in comments]
    lines.append(f"# unit: {series.unit.token}")
    lines.append("# columns: year,value")
    years = map(str, series.years.tolist())
    lines.extend(
        map(delim.join, zip(years, _format_column_reference(series.values, precision)))
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        with pytest.raises(
            ThermoeconError, match=exactly("input.csv: missing mandatory '# unit:' header")
        ):
            load_series(p, Unit.POWER_TERAWATT)

    def test_wrong_unit_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: years\n1970,7.2\n")
        with pytest.raises(
            ThermoeconError,
            match=exactly("input.csv: declared unit 'years' is years, expected power_terawatt"),
        ):
            load_series(p, Unit.POWER_TERAWATT)

    def test_unknown_token_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: megaparsecs\n1970,7.2\n")
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "input.csv: unknown unit token 'megaparsecs'; known tokens: dimensionless, "
                "gdp_trillion_usd2005_per_year, per_year_fraction, percent_per_year, "
                "power_terawatt, usd2005_per_joule, watts_per_thousand_usd2005, "
                "wealth_trillion_usd2005, years"
            ),
        ):
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
        with pytest.raises(ThermoeconError, match=exactly("input.csv: duplicate year 2000")):
            load_series(p, Unit.YEARS)

    def test_no_data_rows(self, tmp_path):
        p = write(tmp_path, "# unit: years\n# nothing else\n")
        with pytest.raises(ThermoeconError, match=exactly("input.csv: no data rows")):
            load_series(p, Unit.YEARS)

    def test_non_positive_physical_value_rejected(self, tmp_path):
        p = write(tmp_path, "# unit: power_terawatt\n1970,7.2\n1971,-1.0\n")
        with pytest.raises(
            ThermoeconError,
            match=exactly("input.csv: non-positive value at year 1971 for unit power_terawatt"),
        ):
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
        path = write_series_reference(s, tmp / "s.csv")
        back = load_series(path, s.unit)
        assert np.array_equal(back.years, s.years)
        assert np.array_equal(back.values, s.values)

    def test_tsv_round_trip(self, tmp_path, table1):
        path = write_series_reference(table1.power, tmp_path / "p.tsv", fmt="tsv")
        back = load_series(path, Unit.POWER_TERAWATT)
        assert np.array_equal(back.values, table1.power.values)

    def test_precision_truncates(self, tmp_path):
        s = AnnualSeries(
            np.array([2000]), np.array([1.23456789012345]), Unit.DIMENSIONLESS
        )
        path = write_series_reference(s, tmp_path / "s.csv", precision=4)
        assert "1.235" in path.read_text()


class TestMultiColumn:
    def test_sparse_column_round_trips(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv",
            [2000, 2001, 2002],
            {
                "full": AnnualSeries([2000, 2001, 2002], [1.0, 2.0, 3.0], Unit.YEARS),
                "holey": AnnualSeries([2000, 2002], [10.0, 30.0], Unit.YEARS),
            },
        )
        full = load_series(path, Unit.YEARS, column="full")
        holey = load_series(path, Unit.YEARS, column="holey")
        assert len(full) == 3
        assert list(holey.years) == [2000, 2002]

    def test_column_with_no_value_round_trips_empty(self, tmp_path):
        empty = AnnualSeries([], [], Unit.YEARS)
        path = write_table(tmp_path / "t.csv", [2000, 2001], {"a": empty})
        assert len(load_series(path, Unit.YEARS, column="a")) == 0

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_header_only_report_round_trips_empty(self, tmp_path, fmt):
        none = np.array([], dtype=np.int64)
        empty = AnnualSeries(none, np.array([]), Unit.YEARS)
        path = write_table(tmp_path / f"t.{fmt}", none, {"a": empty}, fmt=fmt)
        assert path.read_text(encoding="utf-8") == "# columns: year,a\n# unit.a: years\n"
        back = load_series(path, Unit.YEARS, column="a")
        assert (len(back), back.unit, back.label) == (0, Unit.YEARS, "a")

    def test_unknown_column_requested(self, tmp_path):
        path = write_table(tmp_path / "t.csv", [2000], {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
        with pytest.raises(ParseError, match="no column 'b'"):
            load_series(path, Unit.YEARS, column="b")

    def test_year_is_no_value_column(self, tmp_path):
        path = write_table(tmp_path / "t.csv", [2000], {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
        with pytest.raises(ParseError, match=exactly("t.csv: line 3: file has no column 'year'")):
            load_series(path, Unit.YEARS, column="year")

    def test_plain_file_has_only_the_value_column(self, tmp_path):
        gdp = DATA_DIR / "world_gdp.csv"
        unit = Unit.GDP_TRILLION_USD2005_PER_YEAR
        message = "world_gdp.csv: line 3: file has no column 'wealth'"
        with pytest.raises(ParseError, match=exactly(message)):
            load_series(gdp, unit, column="wealth")
        p = write(tmp_path, "# unit: years\n")
        with pytest.raises(ThermoeconError, match=exactly("input.csv: no data rows")):
            load_series(p, Unit.YEARS, column="wealth")

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
        # a percent column is written at presentation scale, read as a fraction
        r = AnnualSeries(2000, 2.14, Unit.PERCENT_PER_YEAR)
        path = write_table(tmp_path / "t.csv", [2000], {"r": r})
        assert "# unit.r: percent_per_year" in path.read_text().splitlines()
        s = load_series(path, Unit.PER_YEAR_FRACTION, column="r")
        assert s.values[0] == pytest.approx(0.0214)

    def test_series_column_drops_off_grid_years(self, tmp_path):
        # the series runs past both ends of the grid; off-grid years are dropped
        s = AnnualSeries(
            np.arange(1995, 2011), np.linspace(0.1, 3.7, 16) ** 3, Unit.YEARS
        )
        grid = np.arange(2000, 2006)
        a = write_table(tmp_path / "a.csv", grid, {"x": s})
        on_grid = AnnualSeries(grid, s.values[5:11], Unit.YEARS)
        b = write_table(tmp_path / "b.csv", list(grid), {"x": on_grid})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[-1].startswith("2005,")

    def test_series_column_is_headed_by_its_own_unit(self, tmp_path):
        grid = np.arange(2000, 2003)
        columns = {
            "a": AnnualSeries(grid, [1.0, 2.0, 3.0], Unit.POWER_TERAWATT),
            "b": AnnualSeries(grid, [0.01, 0.02, 0.03], Unit.PER_YEAR_FRACTION),
        }
        header = write_table(tmp_path / "t.csv", grid, columns).read_text().splitlines()
        assert header[1:3] == ["# unit.a: power_terawatt", "# unit.b: per_year_fraction"]

    def test_cells_hold_twelve_significant_digits(self, tmp_path):
        s = AnnualSeries([2000, 2001], [1 / 3, 2.0**60], Unit.DIMENSIONLESS)
        rows = write_table(tmp_path / "t.csv", s.years, {"v": s}).read_text().splitlines()
        assert rows[-2:] == ["2000,0.333333333333", "2001,1.15292150461e+18"]

    def test_sparse_series_column_round_trips(self, tmp_path):
        years = np.arange(2000, 2008)
        dense = AnnualSeries(years, np.linspace(1.0, 8.0, 8), Unit.YEARS)
        keep = np.array([True, False, False, True, True, False, True, False])
        sparse = AnnualSeries(years[keep], dense.values[keep] * 10.0, Unit.YEARS)
        path = write_table(
            tmp_path / "t.tsv",
            years,
            {"dense": dense, "sparse": sparse},
            fmt="tsv",
        )
        rows = path.read_text().splitlines()[-8:]
        assert rows[1] == "2001\t2\t" and rows[7] == "2007\t8\t"
        back = load_series(path, Unit.YEARS, column="sparse")
        assert np.array_equal(back.years, sparse.years)
        assert np.array_equal(back.values, sparse.values)

    @pytest.mark.parametrize("grid", [[2000.5], [np.nan], [2**70], [2000, 2001.5]])
    def test_non_integer_grid_year_refused_before_writing(self, tmp_path, grid):
        path = tmp_path / "t.csv"
        with pytest.raises(ThermoeconError, match=exactly("years must be integers")):
            write_table(path, grid, {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
        assert not path.exists()

    @pytest.mark.parametrize("grid", [[2001, 2000, 2000], [2000, 2000], [2001, 2000]])
    def test_grid_that_would_not_load_back_refused_before_writing(self, tmp_path, grid):
        # load_series refuses a duplicate year, and rows out of order are no report
        path = tmp_path / "t.csv"
        with pytest.raises(ThermoeconError, match=exactly("year_grid must be strictly increasing")):
            write_table(path, grid, {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
        assert not path.exists()

    def test_scalar_grid_is_one_year(self, tmp_path):
        # a scalar year is a one-year grid, as interpolate takes it
        path = write_table(tmp_path / "t.csv", 2000, {"a": AnnualSeries(2000, 1.5, Unit.YEARS)})
        assert path.read_text().splitlines()[-1] == "2000,1.5"

    def test_tuple_column_is_refused(self, tmp_path):
        # an (array, unit) pair is no column: its values were never checked
        path = tmp_path / "t.csv"
        message = "column 'r' must be an AnnualSeries, got tuple"
        with pytest.raises(ThermoeconError, match=exactly(message)):
            write_table(path, [2000], {"r": (np.array([1.0]), Unit.YEARS)})
        assert not path.exists()


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
            ("world_power.csv", Unit.POWER_TERAWATT, table1.power, "power production"),
            (
                "world_gdp.csv",
                Unit.GDP_TRILLION_USD2005_PER_YEAR,
                table1.gdp,
                "world GDP",
            ),
            (
                "power_wealth_ratio.csv",
                Unit.WATTS_PER_THOUSAND_USD2005,
                table1.power_over_wealth,
                "power/wealth ratio",
            ),
            (
                "rate_of_return.csv",
                Unit.PER_YEAR_FRACTION,
                table1.rate_of_return,
                "rate of return",
            ),
        ]
        for name, unit, expected, label in pairs:
            s = load_series(DATA_DIR / name, unit)
            assert s.years.tobytes() == expected.years.tobytes()
            assert s.values.tobytes() == expected.values.tobytes()
            # error messages name the series by these labels, not file stems
            assert expected.label == label

    def test_printed_rows(self, table1):
        # the published table, an oracle independent of the bundled files;
        # percent rows scale by 0.01 exactly as np.array(...) * 0.01 does
        printed = [
            (7.2, 8.3, 9.6, 10.2, 11.6, 12.1, 13.1, 15.2, 16.1),
            (15.3, 18.4, 22.2, 25.3, 30.2, 33.5, 39.7, 45.7, 49.1),
            (6.4, 6.9, 7.3, 7.2, 7.5, 7.1, 6.9, 7.2, 7.0),
        ]
        ror_pct = (1.37, 1.53, 1.70, 1.78, 1.94, 1.96, 2.10, 2.18, 2.14)
        years = np.array([1970, 1975, 1980, 1985, 1990, 1995, 2000, 2005, 2009])
        expected = [*map(np.array, printed), np.array(ror_pct) * 0.01]
        for s, values in zip(table1, expected):
            assert s.years.tobytes() == years.tobytes()
            assert s.values.tobytes() == values.tobytes()

    def test_loads_from_any_working_directory(self, table1, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for s, expected in zip(builtin_table1(), table1):
            assert s.years.tobytes() == expected.years.tobytes()
            assert s.values.tobytes() == expected.values.tobytes()
            assert (s.unit, s.label) == (expected.unit, expected.label)

    def test_state_at_reads_the_printed_digits(self, table1):
        # raw arithmetic gives 2300.0000000000005 and 0.021400000000000002
        state = table1.state_at(2009)
        assert state == (2300.0, 0.0214, 7.0)
        assert [type(v) for v in state] == [float] * 3
        # 1990: 11.6 TW at 7.5 W/k$ and 1.94 %/yr
        assert table1.state_at(1990) == (1546.66666667, 0.0194, 7.5)

    def test_wealth_is_implied_by_each_printed_row(self, table1):
        wealth = table1.wealth
        assert wealth.years is table1.power.years
        assert (wealth.unit, wealth.label) == (Unit.WEALTH_TRILLION_USD2005, "implied wealth")
        assert table1.state_at(2009)[0] == float(f"{wealth.value_at(2009):.12g}")

    def test_state_at_needs_a_printed_year(self, table1):
        with pytest.raises(
            ThermoeconError, match=exactly("year 2008 not in series 'power production'")
        ):
            table1.state_at(2008)

    def test_bundled_files_ship_as_package_data(self):
        # an installed package holds only what a package-data glob names
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        globs = config["tool"]["setuptools"]["package-data"]["thermoecon"]
        shipped = {path for glob in globs for path in PACKAGE_DIR.glob(glob)}
        files = {path for path in DATA_DIR.rglob("*") if path.is_file()}
        assert len(files) == 4
        assert files - shipped == set()


class TestLoadSeriesErrors:
    """Every failure is a ThermoeconError that names the file."""

    UNIT = "# unit: gdp_trillion_usd2005_per_year\n"

    def load_bytes(self, tmp_path, data, unit=Unit.GDP_TRILLION_USD2005_PER_YEAR, **kw):
        p = tmp_path / "input.csv"
        p.write_bytes(data)
        return load_series(p, unit, **kw)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"# unit: years\n2000,1.0\n2001,\xff\n", 3),
            (b"\xef\xbb\xbf# unit: years\r\n2000,1.0\r\n2001,1\xff\r\n", 3),
            (b"\xff# unit: years\n", 1),
            (b"# unit: years\n# caf\xc3\n2000,1.0\n", 2),  # cut multi-byte sequence
            (b"# unit: years\r2000,1.0\r\x802001,2.0\r", 3),
        ],
    )
    def test_non_utf8_byte_reports_its_line(self, tmp_path, data, line):
        with pytest.raises(ParseError) as err:
            self.load_bytes(tmp_path, data, unit=Unit.YEARS)
        assert err.value.line_number == line
        assert err.value.source == "input.csv"
        assert str(err.value).startswith(f"input.csv: line {line}: invalid UTF-8 byte 0x")

    @pytest.mark.parametrize("row", ["x,4\n", "2000,2\n"], ids=["bad_year", "repeated_year"])
    def test_bad_byte_past_the_first_buffer_beats_an_earlier_fault(self, tmp_path, row):
        # the fault at line 3 is read in the first 8 KiB buffer, the 0xff
        # byte at line 2504 some buffers later; the bad byte still wins
        filler = "".join(f"{y},1\n" for y in range(3000, 5500)).encode()
        data = f"# unit: years\n2000,1\n{row}".encode() + filler + b"5500,1\xff\n"
        message = "input.csv: line 2504: invalid UTF-8 byte 0xff"
        with pytest.raises(ParseError, match=exactly(message)):
            self.load_bytes(tmp_path, data, unit=Unit.YEARS)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"# unit: years\n2000,1\n2001,x\n", "line 3: bad value 'x'"),
            # a pipe is read once, so the line of its bad byte is not counted
            (b"# unit: years\n2000,1\n2001,1\xff\n", "invalid UTF-8 byte 0xff"),
        ],
        ids=["bad_value", "non_utf8"],
    )
    def test_pipe_fault_is_one_parse_error(self, data, message):
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd to name a pipe by")
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            with pytest.raises(ParseError, match=exactly(f"{r}: {message}")):
                load_series(f"/dev/fd/{r}", Unit.YEARS)
        finally:
            os.close(r)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        s = self.load_bytes(tmp_path, b"\xef\xbb\xbf" + (self.UNIT + "1970,15.3\n").encode())
        assert list(s.years) == [1970] and list(s.values) == [15.3]

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"])
    def test_non_finite_cell_rejected_at_its_line(self, tmp_path, cell):
        data = f"{self.UNIT}1970,15.3\n1971,{cell}\n1972,16.0\n".encode()
        with pytest.raises(ParseError) as err:
            self.load_bytes(tmp_path, data)
        assert str(err.value) == f"input.csv: line 3: non-finite value {cell!r}"

    def test_non_finite_cell_in_report_column(self, tmp_path):
        data = b"# columns: year,a,b\n# unit.a: years\n# unit.b: years\n2000,1.0,nan\n"
        assert list(self.load_bytes(tmp_path, data, unit=Unit.YEARS, column="a").values) == [1.0]
        with pytest.raises(ParseError, match="^input.csv: line 4: non-finite value 'nan'$"):
            self.load_bytes(tmp_path, data, unit=Unit.YEARS, column="b")

    @pytest.mark.parametrize("year", [2**63, -(2**63) - 1, 10**20])
    def test_year_outside_int64_rejected_at_its_line(self, tmp_path, year):
        data = f"{self.UNIT}1970,15.3\n{year},1.0\n".encode()
        with pytest.raises(ParseError) as err:
            self.load_bytes(tmp_path, data)
        assert str(err.value) == (
            f"input.csv: line 3: year '{year}' is outside the int64 range"
        )

    def test_int64_extreme_years_load(self, tmp_path):
        data = f"{self.UNIT}{-(2**63)},1.0\n{2**63 - 1},2.0\n".encode()
        assert list(self.load_bytes(tmp_path, data).years) == [-(2**63), 2**63 - 1]

    def test_parse_errors_name_the_file(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self.load_bytes(tmp_path, (self.UNIT + "1970,abc\n").encode())
        assert str(err.value) == "input.csv: line 2: bad value 'abc'"
        assert err.value.line_number == 2

    def test_unknown_unit_token_names_the_file(self, tmp_path):
        with pytest.raises(
            ThermoeconError,
            match=exactly(
                "input.csv: unknown unit token 'parsecs'; known tokens: dimensionless, "
                "gdp_trillion_usd2005_per_year, per_year_fraction, percent_per_year, "
                "power_terawatt, usd2005_per_joule, watts_per_thousand_usd2005, "
                "wealth_trillion_usd2005, years"
            ),
        ):
            self.load_bytes(tmp_path, b"# unit: parsecs\n1970,1.0\n")


# ---------------------------------------------------------------------------
# the reader against its oracle, on UTF-8 texts with finite cells and years
# inside int64 (the cases the original reader got right)

_TOKENS = ["years", "power_terawatt", "per_year_fraction", "percent_per_year", "parsecs"]
_UNITS = [Unit.YEARS, Unit.POWER_TERAWATT, Unit.PER_YEAR_FRACTION]
_NAME_SETS = [None, ["value"], ["a"], ["a", "b"], ["b", "a"], ["a", "year"]]
_YEAR_CELLS = st.one_of(
    st.integers(1990, 2010).map(str),
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(["", "x", "2000.5", "+7", "1_999", "1_970", "-0", "1__970", "0x10"]),
)
_VALUE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "abc", "1e-3", "-0.0", "1_0.5", "+2.5", "_1.5", "0x1p3"]),
)
_NOISE_LINES = st.sampled_from(
    [
        "",
        "   ",
        "# a comment",
        " # indented comment",
        "# unit: years",
        "# unit: parsecs",
        "# columns: a,year",
        "# columns: year,a",
        "# unit.a: power_terawatt",
        "#unit:years",
        "# unit : years",
        "# unit: years extra",
        "#columns:year,a",
        "# unit.a:power_terawatt",
        "1999",
        "1999,1,2,3,4",
        "\t",
    ]
)


_TOKEN_OF = {
    Unit.YEARS: "years",
    Unit.POWER_TERAWATT: "power_terawatt",
    Unit.PER_YEAR_FRACTION: "percent_per_year",
}


def _one_in(draw, n):
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def _rows(draw, width):
    """A data row, well formed four times in five."""
    if _one_in(draw, 5):
        cells = [draw(_YEAR_CELLS)]
        cells += [draw(_VALUE_CELLS) for _ in range(width - 1 + draw(st.sampled_from([0, -1, 1])))]
    else:
        year = st.integers(-(10**4), 10**4)
        cells = [draw(st.one_of(year.map(str), year.map("{:+_}".format)))]
        finite = st.floats(1e-300, 1e300)
        value = st.one_of(finite.map(repr), finite.map("{:+_}".format), st.just(""))
        cells += [draw(value) for _ in range(width - 1)]
    # U+001F is whitespace to str.strip but not to int or float
    pad = draw(st.sampled_from(["", " ", "  ", "\u00a0", "\u2009", "\u3000", "\x1f", " \u3000"]))
    delim = draw(st.sampled_from([",", ",", "\t", f"{pad},{pad}"]))
    return pad + delim.join(cells) + draw(st.sampled_from(["", "", pad]))


@st.composite
def load_cases(draw):
    """(text, unit, column): mostly well-formed plain or report files with
    the right unit header, with noise lines mixed in."""
    unit = draw(st.sampled_from(_UNITS))
    names = draw(st.sampled_from(_NAME_SETS))
    column = draw(st.sampled_from(["value", "a", "b", "year", *(names or [])]))

    def token():
        return draw(st.sampled_from(_TOKENS)) if _one_in(draw, 4) else _TOKEN_OF[unit]

    if names is None:
        header = [f"# unit: {token()}"] if not _one_in(draw, 8) else []
        width = 2
    else:
        header = ["# columns: year," + ",".join(names)]
        header += [f"# unit.{n}: {token()}" for n in names if not _one_in(draw, 4)]
        if _one_in(draw, 3):
            header.append(f"# unit: {token()}")
        width = 1 + len(names)
    lines = header + draw(st.lists(_rows(width), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE_LINES))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, unit, column


def _named(path, message):
    # every load_series error names the file; the oracle's parse errors and
    # unknown-token errors did not
    prefix = f"{path.name}: "
    return message if message.startswith(prefix) else prefix + message


def _outcome(path, exc):
    """The kind of a load_series failure: parse, unit header or token, or data."""
    if isinstance(exc, ParseError):
        return "parse"
    message = str(exc).removeprefix(f"{path.name}: ")
    if message.startswith(("duplicate year ", "non-positive value ")):
        return "data"
    if message.startswith(
        ("no '# unit.", "missing mandatory '# unit:'", "unknown unit token ", "declared unit ")
    ):
        return "unit"
    return message


def assert_loads_like_reference(path, unit, column):
    try:
        want = load_series_reference(path, unit, column)
    except ThermoeconError as exc:
        with pytest.raises(type(exc)) as err:
            load_series(path, unit, column)
        assert type(err.value) is type(exc)
        assert str(err.value) == _named(path, str(exc))
        return
    got = load_series(path, unit, column)
    assert got.unit is want.unit and got.label == want.label
    assert got.years.dtype == want.years.dtype and np.array_equal(got.years, want.years)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


class TestLoadSeriesOracle:
    @given(case=load_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, tmp_path_factory, case):
        text, unit, column = case
        path = tmp_path_factory.mktemp("load") / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(path, unit, column)

    def test_generated_cases_reach_every_outcome(self, tmp_path_factory):
        # a property that only ever saw parse errors would prove little; a
        # fixed seed and no example database give every run the same 300 cases
        outcomes = set()

        @given(case=load_cases())
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def collect(case):
            text, unit, column = case
            path = tmp_path_factory.mktemp("reach") / "input.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                load_series(path, unit, column)
                outcomes.add("loaded")
            except ThermoeconError as exc:
                outcomes.add(_outcome(path, exc))

        collect()
        assert {"loaded", "parse", "unit", "data"} <= outcomes

    @pytest.mark.parametrize(
        "text",
        [
            "# unit: years\n2000,1.0\n",
            "# unit: years\r\n 2001 , 2.5 \r\n2000,1\r\n",
            "# unit: years\n2000,1.0\n2000,2.0\n",
            "# unit: years\n2000,\n",
            "# unit: power_terawatt\n2000,1.0\n2001,-0.0\n",
            "# columns: year,a,b\n# unit.a: years\n2000,,1\n2001,2,\n",
            "# columns: year,a\n# unit.a: years\n2000,1\n# columns: year,b,a\n2001,9,2\n",
            "# columns: year,b\n# unit.b: years\n2000,1\n",
            "# columns: year,b\n# unit.b: years\nx,1\n",
            "# columns: a,year\n2000,1\n",
            "# unit: percent_per_year\n2000\t1.5\n2001\t2.5\t\n",
            "# unit: years\n\u30002000\u00a0,\u2009+1_0.5\u3000\n\x1f2001\x1f,\x1f2\x1f\n",
            "# unit: years\n2000,\x1f\u3000\n",
            "# unit: years\n2000,\x1fx\u3000\n",
            "# columns: year,a\n# unit.a: years\n2000,\u3000\x1f\n2001,+2.5\n",
            # the header grammar: spaces after "#" and the colon only, one
            # token, a known name; any other "#" line is a comment
            "#unit:years\n2000,1\n",
            "#\tunit:\tyears\n2000,1\n",
            "# unit : years\n2000,1\n",
            "# Unit: years\n2000,1\n",
            "# unit: years extra\n2000,1\n",
            "# unit:\n2000,1\n",
            "# unitx: years\n2000,1\n",
            "# unit: power_terawatt\n# unit : years\n2000,1\n",
            "# columns: year,a\n# unit.a:years\n2000,1\n",
            "# columns: year,a\n# unit.: years\n2000,1\n",
            "# columns: year,a\n# unit.a.b: years\n2000,1\n",
            "#columns:year,a\n# unit.a: years\n2000,1\n",
            "# columns : year,a\n# unit: years\n2000,1\n",
            # a column's own header beats "# unit:", and a later "# unit:"
            # replaces an earlier one
            "# columns: year,a,b\n# unit: power_terawatt\n# unit.a: years\n"
            "# unit: percent_per_year\n2000,1,2\n",
        ],
    )
    def test_matches_reference_on_edge_cases(self, tmp_path, text):
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        for unit in (Unit.YEARS, Unit.POWER_TERAWATT, Unit.PER_YEAR_FRACTION):
            for column in ("value", "a", "b"):
                assert_loads_like_reference(path, unit, column)


def _spliced(draw_bytes):
    """Well-formed table bytes with a run of arbitrary bytes spliced in."""
    return st.tuples(load_cases(), st.integers(0, 400), draw_bytes).map(
        lambda t: t[0][0].encode("utf-8")[: t[1]] + t[2] + t[0][0].encode("utf-8")[t[1] :]
    )


class TestLoadSeriesFuzz:
    @given(
        data=st.one_of(st.binary(max_size=300), _spliced(st.binary(min_size=1, max_size=8))),
        unit=st.sampled_from(_UNITS),
        column=st.sampled_from(["value", "a"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes_load_or_raise_thermoecon_error(
        self, tmp_path_factory, data, unit, column
    ):
        path = tmp_path_factory.mktemp("fuzz") / "input.csv"
        path.write_bytes(data)
        try:
            s = load_series(path, unit, column)
        except ThermoeconError as exc:
            assert str(exc).startswith("input.csv: ")
            return
        # only a report file's column may hold no value at all
        assert (len(s) or b"columns:" in data) and np.isfinite(s.values).all()


# ---------------------------------------------------------------------------
# the writers against their oracles

_GRIDS = st.lists(st.integers(-5000, 5000), unique=True, max_size=25).map(sorted)
_CELL_VALUES = st.floats(width=64, allow_nan=False, allow_infinity=False)  # -0.0 included


@st.composite
def _table_column(draw, grid):
    kind = draw(st.sampled_from(["dense series", "sparse series", "grid series"]))
    if kind == "grid series":  # on the grid's own years
        values = draw(st.lists(_CELL_VALUES, min_size=len(grid), max_size=len(grid)))
        unit = draw(st.sampled_from([Unit.DIMENSIONLESS, Unit.YEARS, Unit.PERCENT_PER_YEAR]))
        return AnnualSeries(np.array(grid, dtype=np.int64), np.array(values), unit)
    keep = [y for y in grid if kind == "dense series" or draw(st.booleans())]
    extra = draw(st.lists(st.integers(-6000, 6000), max_size=4))
    years = sorted(set(keep) | set(extra))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(years), max_size=len(years)))
    unit = draw(st.sampled_from([Unit.DIMENSIONLESS, Unit.YEARS]))
    return AnnualSeries(np.array(years, dtype=np.int64), np.array(values), unit)


@st.composite
def table_calls(draw):
    grid = draw(_GRIDS)
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "wealth"]), unique=True, max_size=4))
    grid_arg = np.array(grid, dtype=np.int64) if draw(st.booleans()) else grid
    return dict(
        year_grid=grid_arg,
        columns={name: draw(_table_column(grid)) for name in names},
        fmt=draw(st.sampled_from(["csv", "tsv"])),
        comments=draw(st.lists(st.sampled_from(["thermoecon 0.1.0", "note, with comma"]),
                               max_size=2)),
    )


class TestWritersMatchReference:
    @given(call=table_calls())
    @settings(max_examples=400, deadline=None)
    def test_write_table_bytes(self, tmp_path_factory, call):
        tmp = tmp_path_factory.mktemp("write")
        got = write_table(tmp / "got.csv", **call).read_bytes()
        columns, units = reference_columns(call.pop("columns"))
        want = write_table_reference(tmp / "want.csv", columns=columns, units=units, **call)
        assert got == want.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_write_table_edge_shapes(self, tmp_path, fmt):
        grid = np.arange(2000, 2004)
        none = np.array([], dtype=np.int64)
        sparse = AnnualSeries(np.array([1999, 2001]), np.array([0.1, -0.0]), Unit.YEARS)
        single = AnnualSeries(np.array([2001]), np.array([1.0]), Unit.YEARS)
        empty = AnnualSeries(none, np.array([]), Unit.YEARS)
        cases = [
            (grid, {}),  # year-only table
            (none, {}),
            (none, {"s": sparse, "m": single}),
            (grid, {"s": sparse}),  # sparse column first
            (grid, {"s": sparse, "m": empty}),  # an all-empty series column
            (grid, {"x": AnnualSeries(grid, [5e-324, -5e-324, -1e-308, 1.5], Unit.YEARS)}),
            (grid, {"z": AnnualSeries(grid, [-0.0, 0.0, 1e308, -1e-308], Unit.PERCENT_PER_YEAR)}),
        ]
        for i, (g, columns) in enumerate(cases):
            got = write_table(tmp_path / f"got{i}", g, columns, fmt=fmt).read_bytes()
            want = write_table_reference(tmp_path / f"want{i}", g, *reference_columns(columns),
                                         fmt=fmt)
            assert got == want.read_bytes(), columns


# ---------------------------------------------------------------------------
# the writer across its row chunks, and what it refuses before opening a file

# a write_table peak may exceed twice its file, and a load_series peak its
# file, by this much: one chunk of rows as Python objects, or one read buffer
_CHUNK_BYTES = 256 * 1024
_EDGES = [k * _CHUNK_ROWS + d for k in range(1, 4) for d in (-1, 0, 1)]
# a valid column for the calls that are refused for something else
_FILLER = AnnualSeries([2000, 2001, 2002], [1.0, 2.0, 3.0], Unit.POWER_TERAWATT)


@st.composite
def chunked_table_calls(draw):
    """A write_table call on up to 3 chunks and one row, with the holes of
    its sparse columns drawn on and next to the chunk edges."""
    n = draw(st.integers(0, 3 * _CHUNK_ROWS + 1))
    grid = np.arange(n, dtype=np.int64) * draw(st.integers(1, 3)) + draw(st.integers(-5000, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = st.one_of(st.sampled_from(_EDGES), st.integers(0, max(n - 1, 0)))

    def column():
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        kind = draw(st.sampled_from(["dense", "overhanging", "holes", "islands", "unit"]))
        if kind == "unit":  # on the grid, in a unit of its own
            unit = draw(st.sampled_from([Unit.YEARS, Unit.PERCENT_PER_YEAR]))
            return AnnualSeries(grid, values, unit)
        keep = np.full(n, kind != "islands")
        picked = [i for i in draw(st.lists(rows, max_size=12)) if i < n]
        keep[picked] = kind == "islands"
        years, values = grid[keep], values[keep]
        if kind == "overhanging":  # years off the grid at both ends
            years = np.concatenate([[grid[0] - 7], years, [grid[-1] + 7]]) if n else years
            values = np.concatenate([[1.0], values, [2.0]]) if n else values
        return AnnualSeries(years, values, Unit.DIMENSIONLESS)

    names = draw(st.lists(st.sampled_from(["a", "b", "c", "wealth"]), unique=True, max_size=4))
    return dict(year_grid=grid, columns={name: column() for name in names},
                fmt=draw(st.sampled_from(["csv", "tsv"])))


def _peak_bytes(call):
    """The tracemalloc peak of `call()`, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedWriterAndReader:
    @given(call=chunked_table_calls())
    @settings(max_examples=60, deadline=None)
    def test_chunked_rows_match_reference(self, tmp_path_factory, call):
        tmp = tmp_path_factory.mktemp("chunks")
        got = write_table(tmp / "got.csv", **call).read_bytes()
        columns, units = reference_columns(call.pop("columns"))
        want = write_table_reference(tmp / "want.csv", columns=columns, units=units, **call)
        assert got == want.read_bytes()

    @pytest.mark.parametrize(
        "comments, columns, message",
        [
            (["note\n1999,5"], {"a": _FILLER}, "comment 'note\\n1999,5' is not one line"),
            (["a\rb"], {"a": _FILLER}, "comment 'a\\rb' is not one line"),
            (["x\r\n"], {"a": _FILLER}, "comment 'x\\r\\n' is not one line"),
            (["x\udc80"], {"a": _FILLER}, "comment 'x\\udc80' is not UTF-8 text"),
            ([], {"delta-c": _FILLER}, "column name 'delta-c' would not load back"),
            ([], {"a b": _FILLER}, "column name 'a b' would not load back"),
            ([], {"x,y": _FILLER}, "column name 'x,y' would not load back"),
            ([], {"": _FILLER}, "column name '' would not load back"),
            ([], {"year": _FILLER}, "column name 'year' would not load back"),
            ([], {"a": _FILLER, "b": {2000: 1.0}}, "column 'b' must be an AnnualSeries, got dict"),
            ([], {"a": np.ones(3)}, "column 'a' must be an AnnualSeries, got ndarray"),
            ([], {"a": [1.0, 2.0, 3.0]}, "column 'a' must be an AnnualSeries, got list"),
            ([], {"a": None}, "column 'a' must be an AnnualSeries, got NoneType"),
            ("ab", {"a": _FILLER}, "comments must be a sequence of lines, got the string 'ab'"),
        ],
    )
    def test_refused_before_the_file_is_opened(self, tmp_path, comments, columns, message):
        # each call would write a file that does not load back as written,
        # or holds what is no column; an existing file is left alone
        path = tmp_path / "t.csv"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ThermoeconError) as err:
            write_table(path, [2000, 2001, 2002], columns, comments=comments)
        assert str(err.value).startswith(message)
        assert path.read_text(encoding="utf-8") == "kept\n"

    def test_unknown_format_is_refused(self, tmp_path):
        path = tmp_path / "t.tsv"
        message = "unknown format 'TSV'; use 'csv' or 'tsv'"
        with pytest.raises(ThermoeconError, match=exactly(message)):
            write_table(path, [2000], {"a": AnnualSeries(2000, 1.5, Unit.YEARS)}, fmt="TSV")
        assert not path.exists()

    def test_hard_link_is_written_in_place(self, tmp_path):
        # the output is opened for writing on its path: no unlink, no rename
        path, link = tmp_path / "t.csv", tmp_path / "link.csv"
        path.write_text("old\n", encoding="utf-8")
        os.link(path, link)
        write_table(path, [2000], {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
        assert link.read_bytes() == path.read_bytes() != b"old\n"

    def test_shrinking_rewrite_gives_the_bytes_of_a_fresh_write(self, tmp_path):
        long_grid, short_grid = np.arange(-3000, 2000), np.arange(1990, 1993)
        path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        write_table(path, long_grid, {"a": AnnualSeries(long_grid, long_grid * 0.5, Unit.YEARS)})
        short = {"a": AnnualSeries(short_grid, [1.0, 2.0, 3.0], Unit.YEARS)}
        write_table(path, short_grid, short, comments=["short"])
        write_table(fresh, short_grid, short, comments=["short"])
        assert path.read_bytes() == fresh.read_bytes()

    def test_devnull_is_written_and_not_cut(self):
        column = {"a": AnnualSeries(2000, 1.0, Unit.YEARS)}
        assert write_table(os.devnull, [2000], column) == Path(os.devnull)

    @pytest.mark.parametrize("umask", [None, 0o077, 0o002])
    def test_new_file_mode_is_that_of_open_for_writing(self, tmp_path, umask):
        old = None if umask is None else os.umask(umask)
        try:
            write_table(tmp_path / "t.csv", [2000], {"a": AnnualSeries(2000, 1.0, Unit.YEARS)})
            open(tmp_path / "opened.csv", "w").close()
        finally:
            if old is not None:
                os.umask(old)
        modes = [stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("t.csv", "opened.csv")]
        assert modes[0] == modes[1]

    def test_failed_rewrite_leaves_no_old_tail(self, tmp_path):
        pytest.importorskip("resource")  # RLIMIT_FSIZE and SIGXFSZ are POSIX
        # a child process that may write only 64 KiB into a file rewrites
        # t.csv, a longer table with later years, with fresh.csv's table
        old_grid, new_grid = np.arange(-20000, 30000), np.arange(-20000, 0)
        path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        write_table(path, old_grid, {"a": AnnualSeries(old_grid, old_grid * 1.5, Unit.YEARS)})
        write_table(fresh, new_grid, {"a": AnnualSeries(new_grid, new_grid * 2.5, Unit.YEARS)})
        child = """
import errno, resource, signal, sys
from thermoecon import Unit, load_series, write_table
a = load_series(sys.argv[2], Unit.YEARS, "a")
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16))
try:
    write_table(sys.argv[1], a.years, {"a": a})
except OSError as exc:
    sys.exit(0 if exc.errno == errno.EFBIG else 3)
sys.exit(4)
"""
        src = Path(sys.modules["thermoecon"].__file__).parents[1]  # the package under test
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", child, str(path), str(fresh)], env=env)
        assert done.returncode == 0
        assert fresh.read_bytes().startswith(path.read_bytes())

    def test_write_table_peak_is_bounded_by_its_file(self, tmp_path):
        grid = np.arange(-18000, 2000)
        rng = np.random.default_rng(5)
        columns = {
            name: AnnualSeries(grid, rng.uniform(1.0, 2.0, grid.size) * 10.0**k, Unit.YEARS)
            for k, name in enumerate(["a", "b", "c", "d"])
        }
        path = tmp_path / "t.csv"
        peak = _peak_bytes(lambda: write_table(path, grid, columns))
        assert peak < 2 * path.stat().st_size + _CHUNK_BYTES

    def test_load_series_peak_is_bounded_by_its_file(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.uniform(1.0, 2.0, 20000) * 1e3
        path = tmp_path / "gdp.csv"
        path.write_text(
            "# unit: gdp_trillion_usd2005_per_year\n"
            + "".join(f"{y},{v!r}\n" for y, v in enumerate(values.tolist(), start=-18000)),
            encoding="utf-8",
        )
        peak = _peak_bytes(lambda: load_series(path, Unit.GDP_TRILLION_USD2005_PER_YEAR))
        assert peak < path.stat().st_size + _CHUNK_BYTES

    @pytest.mark.parametrize(
        "rows",
        [
            "2000,1\n2001,2\n2000,3\nx,4\n2001,5\n",  # the repeat comes first
            "2000,1\n2001,2\nx,4\n2000,3\n",  # the bad row comes first
            "2001,1\n2000,2\n2002,3\n2000,4\n2001,5\n",  # 2000 repeats before 2001 does
            "2000,1\n# columns: a,year\n2000,2\n",
            "2000,1\n2000,2\n# columns: a,year\n",
            "2000,1\n2000,2\n2001,abc\n",
            "2000,1\n2001,abc\n2000,2\n",
            "2000,1\n2001,2,3\n2000,2\n",
        ],
    )
    def test_first_fault_matches_reference(self, tmp_path, rows):
        # a repeated year is reported at the row that repeats it, before any
        # later row's fault and before the unit headers are checked
        for header in ("# unit: years\n", "", "# unit: parsecs\n"):
            path = tmp_path / "input.csv"
            path.write_text(header + rows, encoding="utf-8")
            assert_loads_like_reference(path, Unit.YEARS, "value")

    @pytest.mark.parametrize("only", ["\n", "\r\n", "\r", None])
    def test_line_breaks_match_reference(self, tmp_path, only):
        # LF, CRLF and CR alone, or all three in turn; the first comment's
        # break starts on the last byte of the first 8 KiB read buffer
        breaks = [only] if only else ["\r\n", "\r", "\n"]
        head = "# unit: years" + breaks[0]
        lines = ["# " + "x" * (io.DEFAULT_BUFFER_SIZE - 3 - len(head))]
        lines += [f"{i},{i * 0.37:.6f}" for i in range(3 * io.DEFAULT_BUFFER_SIZE // 12)]
        text = head + "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
        assert text[io.DEFAULT_BUFFER_SIZE - 1 :].startswith(breaks[0])
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        assert len(load_series(path, Unit.YEARS)) == len(lines) - 1
        assert_loads_like_reference(path, Unit.YEARS, "value")

    @pytest.mark.parametrize(
        "brk",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_other_breaks_stay_inside_a_comment(self, tmp_path, brk):
        # only LF, CRLF and CR end a line: a unit line, then "# note<FF>page
        # two", then "1970,15.3" is one comment and one row
        path = write(tmp_path, f"# unit: years\n# note{brk}page two\n1970,15.3\n")
        assert list(load_series(path, Unit.YEARS).values) == [15.3]
        assert_loads_like_reference(path, Unit.YEARS, "value")
        # and write_table writes such a comment, which loads back
        a = AnnualSeries(2000, 1.5, Unit.YEARS)
        out = write_table(tmp_path / "t.csv", [2000], {"a": a}, comments=[f"note{brk}page two"])
        assert out.read_bytes().startswith(f"# note{brk}page two\n".encode("utf-8"))
        back = load_series(out, Unit.YEARS, column="a")
        assert (list(back.years), list(back.values)) == ([2000], [1.5])
