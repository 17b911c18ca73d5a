"""Dataset loading, validation, writing, and the built-in benchmark table.

File format (UTF-8 with or without a byte order mark):

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

Headers: "# unit: TOKEN", "# unit.NAME: TOKEN" (beats "# unit:"), "# columns: year,NAME,...";
no space before the colon, a later one wins, and any other "#" line is a comment. A NAME
is [A-Za-z0-9_]+ and not "year", and a "# columns:" header names each column once.

An empty cell in a multi-column file means "no value that year" and the
point is skipped, which is how sparse columns round-trip. A column with
no value in any row, or a header-only report whose `# columns:` names
it, loads as an empty series; any other file with no data rows is
refused. Years must fit in int64 and values must be finite (no nan, inf
or 1e400).

A line ends at LF, CRLF or CR and nowhere else, so a form feed or a
U+2028 inside a comment stays in the comment; write_table refuses a
comment that holds LF or CR.
"""

from __future__ import annotations

import math
import os
import re
import stat
from array import array
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ThermoeconError
from .series import AnnualSeries, _derived, _increasing, _int64_years, _stored
from .units import LAMBDA_SCALE, Unit, parse_unit_token

_COLUMN_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
# a whole stripped "#" line: header name, then its one token
_HEADER_RE = re.compile(rf"#\s*(unit|columns|unit\.{_COLUMN_NAME_RE.pattern}):\s*(\S+)")

# write_table formats this many rows at a time, and writes them all at the end
_CHUNK_ROWS = 512


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
    columns: list[str] | None = None
    units: dict[str, str] = {}  # "unit" and "unit.NAME" header tokens, the last of each
    years, values = array("q"), array("d")
    has_rows = False
    # plain files: year,value, whose one column is "value"; idx None = no such column
    n_fields, idx = 2, 1 if column == "value" else None

    try:
        # decoded a buffer at a time; every row ends in "\n", the last maybe not
        with open(path, encoding="utf-8-sig", newline=None) as lines:
            for lineno, raw in enumerate(lines, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line[0] == "#":
                    m = _HEADER_RE.fullmatch(line)
                    if m and m[1] == "columns":
                        columns = m[2].split(",")
                        if columns[0] != "year":
                            raise ParseError("first declared column must be 'year'", lineno, name)
                        for i, col in enumerate(columns[1:], start=1):
                            if col in columns[:i] or not _COLUMN_NAME_RE.fullmatch(col):
                                why = "repeated" if col in columns[:i] else "not [A-Za-z0-9_]+"
                                raise ParseError(f"column {col!r} is {why}", lineno, name)
                        n_fields = len(columns)
                        idx = columns.index(column) if column in columns[1:] else None
                    elif m:
                        units[m[1]] = m[2]
                    continue

                has_rows = True
                # split the unstripped row: a sparse last column in TSV ends in a tab
                fields = raw.split("\t" if "\t" in raw else ",")
                if len(fields) != n_fields:
                    if columns is None:
                        got = raw.rstrip("\n")
                        raise ParseError(f"expected 'year,value', got {got!r}", lineno, name)
                    raise ParseError(
                        f"expected {n_fields} fields per '# columns:' header, got {len(fields)}",
                        lineno,
                        name,
                    )
                try:
                    year = int(year_cell := fields[0].strip())
                except ValueError:
                    raise ParseError(f"bad year {year_cell!r}", lineno, name) from None
                if idx is None:
                    raise ParseError(f"file has no column {column!r}", lineno, name)
                if not (cell := fields[idx].strip()):
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
    except (ParseError, UnicodeDecodeError) as exc:
        _check_utf8(path, exc)  # a bad byte anywhere in the file wins
        _row_order(np.frombuffer(years, dtype=np.int64), name)  # then an earlier repeat
        raise

    years, values = np.frombuffer(years, dtype=np.int64), np.frombuffer(values)
    if not _increasing(years):  # rows out of order or a year repeated; files usually are neither
        order = _row_order(years, name)
        years, values = years[order], values[order]

    if columns is not None:
        token = units.get(f"unit.{column}", units.get("unit"))
        if token is None:
            raise ThermoeconError(f"{name}: no '# unit.{column}:' header")
    else:
        token = units.get("unit")
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


def _check_utf8(path: Path, exc: Exception) -> None:
    """Raise ParseError at the first non-UTF-8 byte of `path`, by line unless it is a pipe."""
    data, line = path.read_bytes() if path.is_file() else b"", None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as bad:  # bytes.splitlines breaks at LF, CRLF and CR only
        exc, line = bad, len((data[: bad.start] + b"x").splitlines())
    if isinstance(exc, UnicodeDecodeError):
        byte = exc.object[exc.start]
        raise ParseError(f"invalid UTF-8 byte 0x{byte:02x}", line, path.name) from None


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
    if years is grid or np.array_equal(years, grid):
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
    An existing file is rewritten in place: it is never unlinked, renamed
    or truncated to zero before the write, and a failed write leaves it
    empty.
    """
    path = Path(path)
    if fmt not in ("csv", "tsv"):
        raise ThermoeconError(f"unknown format {fmt!r}; use 'csv' or 'tsv'")
    delim = "\t" if fmt == "tsv" else ","
    grid = np.atleast_1d(np.asarray(year_grid))
    if grid.dtype != np.int64:  # an int64 grid is only read, so it need not be copied
        grid = _int64_years(grid)
    if not _increasing(grid):
        raise ThermoeconError("year_grid must be strictly increasing")
    if isinstance(comments, str):
        raise ThermoeconError(f"comments must be a sequence of lines, got the string {comments!r}")
    for comment in comments:
        line = f"# {comment}"
        if "\n" in line or "\r" in line:
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
        # one % over the chunk: its rows' specs, and its cells row by row
        spec = (delim.join(specs) + "\n") * len(cells[0])
        text.append(spec % tuple(chain.from_iterable(zip(*cells))))
    _rewrite(path, text)
    return path


def _rewrite(path: str | Path, pieces: Sequence[str]) -> None:
    """Write `pieces` to `path` as UTF-8 text, over the file's old bytes.

    The file is opened without O_TRUNC and cut back to the new end after
    the write: a file truncated to zero and then rewritten is flushed on
    close by ext4, xfs and btrfs, and one rewritten in place is not. A new
    file gets the mode open(path, "w") gives it. Only a regular file is
    cut: os.devnull cannot be. A failed write cuts the file to zero, so
    no old tail outlives a partial new text.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            # closing the stream flushes it, so nothing is written after a cut
            with open(fd, "w", encoding="utf-8", closefd=False) as f:
                f.writelines(pieces)
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


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
        return _derived(self.power.years, implied, Unit.WEALTH_TRILLION_USD2005, "implied wealth")

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
            _stored((s := load_series(_DATA_DIR / name, unit)).years, s.values, unit, label)
            for name, unit, label in _BUNDLED_FILES
        )
    )
