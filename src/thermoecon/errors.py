"""Exception hierarchy for the toolkit.

Every error raised by thermoecon derives from ThermoeconError so callers
(notably the CLI) can catch one base class and turn it into a diagnostic.
"""

from __future__ import annotations


class ThermoeconError(Exception):
    """Base class for all toolkit errors."""


class UnitError(ThermoeconError):
    """Incompatible or undeclared units; never silently coerced."""


class SeriesRangeError(ThermoeconError):
    """Requested years fall outside a series' coverage (extrapolation, bad window)."""


class DomainError(ThermoeconError):
    """Value outside the mathematical domain of an operation (e.g. log of <= 0)."""


class GapError(ThermoeconError):
    """Operation requires a dense annual series but the input has gaps."""


class InsufficientDataError(ThermoeconError):
    """Too few points for the requested operation."""


class ValidationError(ThermoeconError):
    """Input data violates a structural invariant (duplicate year, bad sign, ...)."""


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


class ConfigurationError(ThermoeconError):
    """Inconsistent or incomplete run configuration."""


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
