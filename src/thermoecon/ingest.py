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
point is skipped, which is how sparse columns round-trip. A column with
no value in any row, or a header-only report whose `# columns:` names
it, loads as an empty series; any other file with no data rows is
refused. Years must fit in int64 and values must be finite (no nan, inf
or 1e400).
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ThermoeconError
from .series import AnnualSeries, _increasing, _int64_years, _stored
from .units import LAMBDA_SCALE, Unit, parse_unit_token

_UNIT_RE = re.compile(r"^#\s*unit:\s*(\S+)\s*$")
_COLUMNS_RE = re.compile(r"^#\s*columns:\s*(\S+)\s*$")
_COLUMN_UNIT_RE = re.compile(r"^#\s*unit\.([A-Za-z0-9_]+):\s*(\S+)\s*$")
_COLUMN_NAME_RE = re.compile(r"[A-Za-z0-9_]+")  # the names _COLUMN_UNIT_RE reads back

# load_series splits its text this many characters at a time; write_table
# formats this many rows at a time, and writes them all at the end
_SLICE_CHARS = 1 << 14
_CHUNK_ROWS = 512
_CUT_RE = re.compile(r"\r\n?|\n")


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
        # not "utf-8-sig": it copies the bytes of a file that has the mark
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # everything before the bad byte decoded, so it splits into lines
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}", line, name
        ) from None

    unit_token: str | None = None
    columns: list[str] | None = None
    column_units: dict[str, str] = {}
    years, values = array("q"), array("d")
    has_rows = False
    n_fields, idx = 2, 1  # plain files: year,value; idx None = no such column

    lines = chain.from_iterable(map(str.splitlines, _slices(text)))
    try:
        for lineno, raw in enumerate(lines, start=1):
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

            has_rows = True
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
            try:
                years.append(year)
            except OverflowError:
                raise ParseError(
                    f"year {year_cell!r} is outside the int64 range", lineno, name
                ) from None
            values.append(value)
    except ParseError:
        _row_order(np.frombuffer(years, dtype=np.int64), name)  # an earlier repeat wins
        raise
    del text  # every row is in the two arrays now

    years, values = np.frombuffer(years, dtype=np.int64), np.frombuffer(values)
    if not _increasing(years):  # rows out of order or a year repeated; files usually are neither
        order = _row_order(years, name)
        years, values = years[order], values[order]

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

    # a report whose header names the column loads back with no rows
    if not has_rows and (columns is None or idx is None):
        raise ThermoeconError(f"{name}: no data rows")

    if scale != 1.0:  # x * 1.0 is x, bit for bit
        values = values * scale
    if expected_unit.requires_positive:
        bad = values <= 0.0
        if bad.any():
            raise ThermoeconError(
                f"{name}: non-positive value at year {years[bad.argmax()]} "
                f"for unit {expected_unit.token}"
            )
    # the rows proved every invariant of a series, so it keeps these arrays
    years.flags.writeable = values.flags.writeable = False
    label = column if column != "value" else path.stem
    return _stored(years, values, expected_unit, label)


def _slices(text: str):
    """`text` in pieces of about _SLICE_CHARS, each cut just after a "\\n",
    a "\\r\\n" or a lone "\\r".

    No line break straddles a cut, so the pieces' splitlines() give the
    lines of text.splitlines(), without holding all of them at once.
    """
    start = 0
    while start < len(text):
        cut = _CUT_RE.search(text, start + _SLICE_CHARS)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _row_order(years: np.ndarray, name: str) -> np.ndarray:
    """The order that sorts the rows' `years`.

    A year that repeats raises ThermoeconError at the first row, in file
    order, that repeats an earlier one: the row at which a reader checking
    each row in turn would stop.
    """
    order = np.argsort(years, kind="stable")
    later = order[1:][years[order[1:]] == years[order[:-1]]]
    if later.size:
        raise ThermoeconError(f"{name}: duplicate year {years[later.min()]}")
    return order


# every value cell is written with this spec: 12 significant digits
_CELL_SPEC = "%.12g"


def _on_grid(grid: np.ndarray, column: AnnualSeries) -> tuple[np.ndarray, np.ndarray | None]:
    """The values of one column on the grid, and which grid years hold a
    value: None when all of them do."""
    years = column.years
    if np.array_equal(years, grid):
        return column.values, None
    idx = np.searchsorted(years, grid)
    hit = idx < years.size
    hit[hit] = years[idx[hit]] == grid[hit]
    values = np.zeros(grid.size)
    values[hit] = column.values[idx[hit]]
    return values, None if hit.all() else hit


def write_table(
    path: str | Path,
    year_grid: Sequence[int] | np.ndarray,
    columns: Mapping[str, AnnualSeries],
    fmt: str = "csv",
    comments: Sequence[str] = (),
) -> Path:
    """Write a multi-column report, one row per year of `year_grid`.

    Each column is an AnnualSeries, headed by its own unit, so no cell
    holds a value that load_series would refuse. Grid years missing from
    a series become empty cells (sparse columns such as doubling times
    that are undefined in non-innovating stretches); values at years off
    the grid are not written.

    Refused before the file is opened: a format other than "csv" or
    "tsv", a column that is not an AnnualSeries, a bare string as
    `comments`, and whatever would not load back through load_series: a
    grid year that is not an integer, a grid that is not strictly
    increasing, a comment of more than one line or not UTF-8 text, and a
    column name outside [A-Za-z0-9_]+ or named "year".

    Rows are formatted a fixed chunk at a time and written at the end, so
    memory holds the file's text and one chunk of rows as Python objects.
    """
    path = Path(path)
    if fmt not in ("csv", "tsv"):
        raise ThermoeconError(f"unknown format {fmt!r}; use 'csv' or 'tsv'")
    delim = "\t" if fmt == "tsv" else ","
    grid = _int64_years(np.atleast_1d(np.asarray(year_grid)))
    if not _increasing(grid):
        raise ThermoeconError("year_grid must be strictly increasing")
    if isinstance(comments, str):
        raise ThermoeconError(f"comments must be a sequence of lines, got the string {comments!r}")
    for comment in comments:
        line = f"# {comment}"
        if line.splitlines() != [line]:
            raise ThermoeconError(f"comment {comment!r} is not one line")
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise ThermoeconError(f"comment {comment!r} is not UTF-8 text") from None
    for name, column in columns.items():
        if name == "year" or not _COLUMN_NAME_RE.fullmatch(name):
            raise ThermoeconError(
                f"column name {name!r} would not load back: use [A-Za-z0-9_]+, not 'year'"
            )
        if not isinstance(column, AnnualSeries):
            raise ThermoeconError(
                f"column {name!r} must be an AnnualSeries, got {type(column).__name__}"
            )
    cols = [_on_grid(grid, column) for column in columns.values()]
    head = [f"# {c}\n" for c in comments]
    head.append("# columns: year," + ",".join(columns) + "\n")
    head.extend(f"# unit.{name}: {column.unit.token}\n" for name, column in columns.items())
    text = ["".join(head)]
    for start in range(0, grid.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        cells, specs = [grid[rows].tolist()], ["%d"]
        for values, hit in cols:
            chunk = values[rows].tolist()
            if hit is None or (held := hit[rows]).all():
                specs.append(_CELL_SPEC)
            else:  # ready-made strings, "" where the column has no value
                texts = [""] * len(chunk)
                for i in np.flatnonzero(held).tolist():
                    texts[i] = _CELL_SPEC % chunk[i]
                chunk = texts
                specs.append("%s")
            cells.append(chunk)
        row = delim.join(specs) + "\n"
        text.append("".join(map(row.__mod__, zip(*cells))))
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(text)
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

    @property
    def wealth(self) -> AnnualSeries:
        """The wealth each printed row implies, 1000 * power / ratio, in T$."""
        implied = LAMBDA_SCALE * self.power.values / self.power_over_wealth.values
        return self.power.with_values(implied, Unit.WEALTH_TRILLION_USD2005, "implied wealth")

    def state_at(self, year: int) -> tuple[float, float, float]:
        """(c0, eta0, lambda0) of the printed row at `year`, c0 read off `wealth`.

        Each value is read at the 12 significant digits a report cell
        carries, so the 2009 row gives exactly 2300.0 T$, 0.0214 /yr and
        7.0 W/k$, not the 2300.0000000000005 and 0.021400000000000002 of
        the raw arithmetic.
        """
        self.power.value_at(year)  # a year off the table is named by its first row
        state = (self.wealth, self.rate_of_return, self.power_over_wealth)
        return tuple(float(_CELL_SPEC % s.value_at(year)) for s in state)


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
