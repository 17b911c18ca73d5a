"""Exception hierarchy for the toolkit.

Every error raised by thermoecon is a ThermoeconError, so callers (notably
the CLI) catch one class and print its message. Subclasses exist only
where they carry data a caller reads: the line and file of a parse
error, the year and quantity at which a forecast leaves double range.
"""

from __future__ import annotations


class ThermoeconError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ThermoeconError):
    """Malformed input file. Carries the file name and 1-based line number when known."""

    def __init__(
        self, message: str, line_number: int | None = None, source: str | None = None
    ):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.source = source


class _HorizonRangeError(ThermoeconError):
    """Forecast left double range. Carries the first failing year and quantity."""

    _verb = ""

    def __init__(self, year: int, quantity: str):
        super().__init__(
            f"forecast {self._verb} double precision at year {year} ({quantity}); "
            f"shorten the horizon"
        )
        self.year = year
        self.quantity = quantity


class HorizonOverflowError(_HorizonRangeError):
    """Forecast passed the largest double."""

    _verb = "overflows"


class HorizonUnderflowError(_HorizonRangeError):
    """Forecast eta or gdp rounded to zero."""

    _verb = "underflows"
