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

from .errors import ParseError, ThermoeconError
from .series import AnnualSeries, _int64_years
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
            raise ParseError(f"bad year {year_cell!r}", lineno, name) from None
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
            raise ParseError(f"bad value {cell!r}", lineno, name) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {cell!r}", lineno, name)
        if not _INT64_MIN <= year <= _INT64_MAX:
            raise ParseError(f"year {year_cell!r} is outside the int64 range", lineno, name)
        if year in points:
            raise ThermoeconError(f"{name}: duplicate year {year}")
        points[year] = value

    if columns is not None:
        token = column_units.get(column, unit_token)
        if token is None:
            raise ThermoeconError(f"{name}: no '# unit.{column}:' header")
    else:
        token = unit_token
        if token is None:
            raise ThermoeconError(f"{name}: missing mandatory '# unit:' header")
    try:
        unit, scale = parse_unit_token(token)
    except ThermoeconError as exc:
        raise ThermoeconError(f"{name}: {exc}") from None
    if unit is not expected_unit:
        raise ThermoeconError(
            f"{name}: declared unit {token!r} is {unit.token}, expected {expected_unit.token}"
        )

    if not points:
        raise ThermoeconError(f"{name}: no data rows")

    years = np.fromiter(points, dtype=np.int64, count=len(points))
    values = np.fromiter(points.values(), dtype=float, count=len(points)) * scale
    if (years[1:] < years[:-1]).any():  # rows out of order; files usually are not
        order = np.argsort(years)
        years, values = years[order], values[order]
    if expected_unit.requires_positive:
        bad = values <= 0.0
        if bad.any():
            raise ThermoeconError(
                f"{name}: non-positive value at year {years[bad.argmax()]} "
                f"for unit {expected_unit.token}"
            )
    label = column if column != "value" else path.stem
    return AnnualSeries(years, values, expected_unit, label)


# every value cell is written with this spec: 12 significant digits
_CELL_SPEC = "%.12g"


def _column_cells(
    grid: np.ndarray, name: str, column: AnnualSeries | tuple[np.ndarray, Unit | str]
) -> tuple[str, list, str]:
    """The unit token of one column, one cell per grid year, and their %-spec.

    A column holding every grid year gives its values with the float spec;
    one missing some gives ready-made strings, "" where it has no value,
    with spec "%s".
    """
    if not isinstance(column, AnnualSeries):
        values, unit = column
        token = unit.token if isinstance(unit, Unit) else unit
        if token not in FILE_TOKENS:
            raise ThermoeconError(f"unknown unit token {token!r} for column {name!r}")
        if values.shape != grid.shape:
            raise ThermoeconError(f"{values.size} values for {grid.size} grid years")
        return token, values.tolist(), _CELL_SPEC
    years = column.years
    idx = np.searchsorted(years, grid)
    hit = idx < years.size
    hit[hit] = years[idx[hit]] == grid[hit]
    present = column.values[idx[hit]].tolist()
    if hit.all():
        return column.unit.token, present, _CELL_SPEC
    cells = [""] * grid.size
    for i, text in zip(np.flatnonzero(hit).tolist(), map(_CELL_SPEC.__mod__, present)):
        cells[i] = text
    return column.unit.token, cells, "%s"


def write_table(
    path: str | Path,
    year_grid: Sequence[int] | np.ndarray,
    columns: Mapping[str, AnnualSeries | tuple[np.ndarray, Unit | str]],
    fmt: str = "csv",
    comments: Sequence[str] = (),
) -> Path:
    """Write a multi-column report, one row per year of `year_grid`.

    Each column is an AnnualSeries, headed by its own unit, or an
    (array, unit) pair with one value per grid year. A pair's unit may be
    a raw file token, e.g. "percent_per_year" for values stored at
    presentation scale. Grid years missing from a series become empty
    cells (sparse columns such as doubling times that are undefined in
    non-innovating stretches); values at years off the grid are not
    written, and a non-integer grid year is refused before writing.
    """
    path = Path(path)
    delim = "\t" if fmt == "tsv" else ","
    grid = _int64_years(np.atleast_1d(np.asarray(year_grid)))
    cols = [_column_cells(grid, name, column) for name, column in columns.items()]
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: year," + ",".join(columns))
    lines.extend(f"# unit.{name}: {col[0]}" for name, col in zip(columns, cols))
    row = delim.join(["%d", *(spec for _, _, spec in cols)])
    lines.extend(map(row.__mod__, zip(grid.tolist(), *(cells for _, cells, _ in cols))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# built-in benchmark data: world primary power, GDP, their ratio to wealth and
# the rate of return on wealth at nine reference years, 1970-2009, all in
# inflation-adjusted 2005 MER US dollar units. The files bundled in data/ are
# the one copy; each row here is (file, unit, label) in Table1 field order.

_DATA_DIR = Path(__file__).parent / "data"
_BUNDLED_FILES = (
    ("world_power.csv", Unit.POWER_TERAWATT, "power production"),
    ("world_gdp.csv", Unit.GDP_TRILLION_USD2005_PER_YEAR, "world GDP"),
    ("power_wealth_ratio.csv", Unit.WATTS_PER_THOUSAND_USD2005, "power/wealth ratio"),
    ("rate_of_return.csv", Unit.PER_YEAR_FRACTION, "rate of return"),
)


class Table1(NamedTuple):
    power: AnnualSeries
    gdp: AnnualSeries
    power_over_wealth: AnnualSeries
    rate_of_return: AnnualSeries

    @property
    def calibration(self) -> float:
        """The printed 1970 ratio anchoring wealth, as a float that prints 6.4."""
        return float(self.power_over_wealth.values[0])

    def state_at(self, year: int) -> tuple[float, float, float]:
        """(c0, eta0, lambda0) of the printed row at `year`.

        Wealth is 1000 * power / ratio. Each value is read at the 12
        significant digits a report cell carries, so the 2009 row gives
        exactly 2300.0 T$, 0.0214 /yr and 7.0 W/k$, not the
        2300.0000000000005 and 0.021400000000000002 of the raw arithmetic.
        """
        power, ratio = self.power.value_at(year), self.power_over_wealth.value_at(year)
        state = (1000.0 * power / ratio, self.rate_of_return.value_at(year), ratio)
        return tuple(float(_CELL_SPEC % v) for v in state)


def builtin_table1() -> Table1:
    """The built-in nine-year benchmark dataset, exactly as published.

    Loads the bundled files through `load_series`, so percent rows become
    per-year fractions and everything else keeps its printed unit (TW,
    T$/yr, W per thousand $).
    """
    return Table1(
        *(
            (s := load_series(_DATA_DIR / name, unit)).with_values(s.values, label=label)
            for name, unit, label in _BUNDLED_FILES
        )
    )
