"""Dataset loading, validation, writing, and the built-in benchmark table.

File format (UTF-8 with or without a byte order mark, LF or CRLF):

    # free comment lines
    # unit: gdp_trillion_usd2005_per_year
    1970,15.3
    1971,15.8

Two columns ``year,value`` separated by a comma (or a tab in .tsv output).
Report files with several value columns declare them explicitly:

    # columns: year,wealth,eta
    # unit.wealth: wealth_trillion_usd2005
    # unit.eta: per_year_fraction
    2009,2300,0.0214

An empty cell in a multi-column file means "no value that year" and the
point is skipped, which is how sparse columns round-trip. Years must fit
in int64 and values must be finite (no nan, inf or 1e400).
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InsufficientDataError, ParseError, UnitError, ValidationError
from .series import AnnualSeries
from .units import FILE_TOKENS, Unit, parse_unit_token

_UNIT_RE = re.compile(r"^#\s*unit:\s*(\S+)\s*$")
_COLUMNS_RE = re.compile(r"^#\s*columns:\s*(\S+)\s*$")
_COLUMN_UNIT_RE = re.compile(r"^#\s*unit\.([A-Za-z0-9_]+):\s*(\S+)\s*$")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def load_series(
    path: str | Path,
    expected_unit: Unit,
    column: str = "value",
) -> AnnualSeries:
    """Read one series from a CSV/TSV file and validate it.

    `column` selects the value column in multi-column report files; plain
    two-column files always expose their data as column "value". Rows may
    appear in any order; the result is sorted by year. Every error names
    the file, and a malformed row its line.
    """
    path = Path(path)
    name = path.name
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # everything before the bad byte decoded, so it splits into lines
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}", line, name
        ) from None

    unit_token: str | None = None
    columns: list[str] | None = None
    column_units: dict[str, str] = {}
    points: dict[int, float] = {}
    n_fields, idx = 2, 1  # plain files: year,value; idx None = no such column

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            m = _UNIT_RE.match(line)
            if m:
                unit_token = m.group(1)
                continue
            m = _COLUMNS_RE.match(line)
            if m:
                columns = m.group(1).split(",")
                if columns[0] != "year":
                    raise ParseError("first declared column must be 'year'", lineno, name)
                n_fields = len(columns)
                idx = columns.index(column) if column in columns else None
                continue
            m = _COLUMN_UNIT_RE.match(line)
            if m:
                column_units[m.group(1)] = m.group(2)
            continue

        # split the unstripped row: a sparse last column in TSV ends in a tab
        fields = raw.split("\t" if "\t" in raw else ",")
        if len(fields) != n_fields:
            if columns is None:
                raise ParseError(f"expected 'year,value', got {raw!r}", lineno, name)
            raise ParseError(
                f"expected {n_fields} fields per '# columns:' header, got {len(fields)}",
                lineno,
                name,
            )
        year_cell = fields[0].strip()
        try:
            year = int(year_cell)
        except ValueError:
            raise ParseError(f"bad year {year_cell!r}", lineno, name)
        if idx is None:
            raise ParseError(f"file has no column {column!r}", lineno, name)
        cell = fields[idx].strip()
        if not cell:
            if columns is None:
                raise ParseError("empty value", lineno, name)
            continue  # sparse column: absent point
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"bad value {cell!r}", lineno, name)
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {cell!r}", lineno, name)
        if not _INT64_MIN <= year <= _INT64_MAX:
            raise ParseError(f"year {year_cell!r} is outside the int64 range", lineno, name)
        if year in points:
            raise ValidationError(f"{name}: duplicate year {year}")
        points[year] = value

    if columns is not None:
        token = column_units.get(column, unit_token)
        if token is None:
            raise UnitError(f"{name}: no '# unit.{column}:' header")
    else:
        token = unit_token
        if token is None:
            raise UnitError(f"{name}: missing mandatory '# unit:' header")
    try:
        unit, scale = parse_unit_token(token)
    except UnitError as exc:
        raise UnitError(f"{name}: {exc}") from None
    if unit is not expected_unit:
        raise UnitError(
            f"{name}: declared unit {token!r} is {unit.token}, expected {expected_unit.token}"
        )

    if not points:
        raise InsufficientDataError(f"{name}: no data rows")

    years = np.fromiter(points, dtype=np.int64, count=len(points))
    values = np.fromiter(points.values(), dtype=float, count=len(points)) * scale
    if (years[1:] < years[:-1]).any():  # rows out of order; files usually are not
        order = np.argsort(years)
        years, values = years[order], values[order]
    if expected_unit.requires_positive:
        bad = values <= 0.0
        if bad.any():
            raise ValidationError(
                f"{name}: non-positive value at year {years[bad.argmax()]} "
                f"for unit {expected_unit.token}"
            )
    label = column if column != "value" else path.stem
    return AnnualSeries(years, values, expected_unit, label)


def _float_spec(precision: int | None) -> str:
    """%-format of one value: round-trip repr, or `precision` significant digits."""
    return "%r" if precision is None else f"%.{precision}g"


def write_series(
    series: AnnualSeries,
    path: str | Path,
    fmt: str = "csv",
    precision: int | None = None,
    comments: Sequence[str] = (),
) -> Path:
    """Write a series in the two-column format; load_series inverts this.

    With precision=None values are written at full round-trip precision,
    making write -> load bit-exact.
    """
    path = Path(path)
    delim = "\t" if fmt == "tsv" else ","
    lines = [f"# {c}" for c in comments]
    lines.append(f"# unit: {series.unit.token}")
    lines.append("# columns: year,value")
    row = f"%d{delim}{_float_spec(precision)}"
    lines.extend(map(row.__mod__, zip(series.years.tolist(), series.values.tolist())))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _column_cells(
    grid: np.ndarray,
    column: AnnualSeries | np.ndarray | Mapping[int, float],
    precision: int | None,
) -> tuple[list, str]:
    """One cell per grid year and the %-spec that formats it.

    Dense columns give their values with the float spec; a column missing
    some grid years gives ready-made strings, "" where it has no value,
    with spec "%s".
    """
    spec = _float_spec(precision)
    if isinstance(column, np.ndarray):
        if column.shape != grid.shape:
            raise ValidationError(f"{column.size} values for {grid.size} grid years")
        return column.tolist(), spec
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
    present = values[idx[hit]].tolist()
    if hit.all():
        return present, spec
    cells = [""] * grid.size
    for i, text in zip(np.flatnonzero(hit).tolist(), map(spec.__mod__, present)):
        cells[i] = text
    return cells, "%s"


def write_table(
    path: str | Path,
    year_grid: Sequence[int] | np.ndarray,
    columns: Mapping[str, AnnualSeries | np.ndarray | Mapping[int, float]],
    units: Mapping[str, Unit | str],
    fmt: str = "csv",
    precision: int | None = 12,
    comments: Sequence[str] = (),
) -> Path:
    """Write a multi-column report, one row per year of `year_grid`.

    Each column is an AnnualSeries, an array with one value per grid year,
    or a {year: value} mapping. Grid years missing from a column become
    empty cells (sparse columns such as doubling times that are undefined
    in non-innovating stretches); values at years off the grid are not
    written. Units may be given as raw file tokens, e.g. "percent_per_year"
    for columns stored at presentation scale.
    """
    path = Path(path)
    delim = "\t" if fmt == "tsv" else ","
    names = list(columns)
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: year," + ",".join(names))
    for name in names:
        unit = units[name]
        token = unit.token if isinstance(unit, Unit) else unit
        if token not in FILE_TOKENS:
            raise UnitError(f"unknown unit token {token!r} for column {name!r}")
        lines.append(f"# unit.{name}: {token}")
    grid = np.asarray(year_grid, dtype=np.int64)
    cells = [_column_cells(grid, columns[name], precision) for name in names]
    row = delim.join(["%d", *(spec for _, spec in cells)])
    lines.extend(map(row.__mod__, zip(grid.tolist(), *(values for values, _ in cells))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# built-in benchmark data: world primary power, GDP, their ratio to wealth and
# the rate of return on wealth at nine reference years, 1970-2009, all in
# inflation-adjusted 2005 MER US dollar units.

TABLE1_YEARS = (1970, 1975, 1980, 1985, 1990, 1995, 2000, 2005, 2009)
TABLE1_POWER_TW = (7.2, 8.3, 9.6, 10.2, 11.6, 12.1, 13.1, 15.2, 16.1)
TABLE1_POWER_OVER_WEALTH = (6.4, 6.9, 7.3, 7.2, 7.5, 7.1, 6.9, 7.2, 7.0)
TABLE1_GDP = (15.3, 18.4, 22.2, 25.3, 30.2, 33.5, 39.7, 45.7, 49.1)
TABLE1_RATE_OF_RETURN_PCT = (1.37, 1.53, 1.70, 1.78, 1.94, 1.96, 2.10, 2.18, 2.14)


class Table1(NamedTuple):
    power: AnnualSeries
    gdp: AnnualSeries
    power_over_wealth: AnnualSeries
    rate_of_return: AnnualSeries


def builtin_table1() -> Table1:
    """The built-in nine-year benchmark dataset, exactly as published.

    Percent rows are converted to per-year fractions here; everything else
    keeps its printed unit (TW, T$/yr, W per thousand $).
    """
    years = np.array(TABLE1_YEARS)
    return Table1(
        power=AnnualSeries(
            years, np.array(TABLE1_POWER_TW), Unit.POWER_TERAWATT, "power production"
        ),
        gdp=AnnualSeries(
            years, np.array(TABLE1_GDP), Unit.GDP_TRILLION_USD2005_PER_YEAR, "world GDP"
        ),
        power_over_wealth=AnnualSeries(
            years,
            np.array(TABLE1_POWER_OVER_WEALTH),
            Unit.WATTS_PER_THOUSAND_USD2005,
            "power/wealth ratio",
        ),
        rate_of_return=AnnualSeries(
            years,
            np.array(TABLE1_RATE_OF_RETURN_PCT) * 0.01,
            Unit.PER_YEAR_FRACTION,
            "rate of return",
        ),
    )

