"""Units for annual economic/energy series and the rules for combining them.

The unit set is deliberately tiny: the model works in trillions of
inflation-adjusted 2005 MER US dollars, terawatts, and per-year fractions.
Cross-unit arithmetic goes through an explicit rule table; anything not in
the table raises ThermoeconError, never a silent coercion.
"""

from __future__ import annotations

import enum

from .errors import ThermoeconError

#: Seconds in one Julian year. The single conversion constant used for every
#: W <-> $/yr crossing in the package; do not introduce a second convention.
SECONDS_PER_YEAR = 3.15569e7


class Unit(enum.Enum):
    POWER_TERAWATT = "power_terawatt"
    GDP_TRILLION_USD2005_PER_YEAR = "gdp_trillion_usd2005_per_year"
    WEALTH_TRILLION_USD2005 = "wealth_trillion_usd2005"
    WATTS_PER_THOUSAND_USD2005 = "watts_per_thousand_usd2005"
    USD2005_PER_JOULE = "usd2005_per_joule"
    PER_YEAR_FRACTION = "per_year_fraction"
    YEARS = "years"
    DIMENSIONLESS = "dimensionless"

    @property
    def token(self) -> str:
        """Canonical spelling used in file headers."""
        return self.value

    @property
    def requires_positive(self) -> bool:
        """GDP, power and wealth are physical stocks/flows: strictly positive."""
        # by token: a str hash is cached, Enum.__hash__ runs Python code
        return self._value_ in _POSITIVE_TOKENS

    @property
    def integral_unit(self) -> "Unit":
        """Unit of the cumulative integral over years of a series in this unit."""
        try:
            return _INTEGRAL_UNIT[self]
        except KeyError:
            raise ThermoeconError(
                f"cannot integrate a series in {self.token} over years"
            ) from None


_POSITIVE_TOKENS = frozenset(
    {
        Unit.POWER_TERAWATT.token,
        Unit.GDP_TRILLION_USD2005_PER_YEAR.token,
        Unit.WEALTH_TRILLION_USD2005.token,
    }
)

_INTEGRAL_UNIT = {
    Unit.GDP_TRILLION_USD2005_PER_YEAR: Unit.WEALTH_TRILLION_USD2005,
    Unit.PER_YEAR_FRACTION: Unit.DIMENSIONLESS,
}

# (numerator, denominator) -> (result unit, scale applied to the raw ratio).
# Scales carry the T$/TW/k$ bookkeeping:
#   TW / T$           = W/$        -> *1000 gives W per thousand $
#   (T$/yr) / TW      = $/(W yr)   -> /SECONDS_PER_YEAR gives $/J
_DIVISION_RULES: dict[tuple[Unit, Unit], tuple[Unit, float]] = {
    (Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.WEALTH_TRILLION_USD2005): (
        Unit.PER_YEAR_FRACTION,
        1.0,
    ),
    (Unit.POWER_TERAWATT, Unit.WEALTH_TRILLION_USD2005): (
        Unit.WATTS_PER_THOUSAND_USD2005,
        1000.0,
    ),
    (Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.POWER_TERAWATT): (
        Unit.USD2005_PER_JOULE,
        1.0 / SECONDS_PER_YEAR,
    ),
}

def division_rule(numerator: Unit, denominator: Unit) -> tuple[Unit, float]:
    """Result unit and scale factor for a pointwise series division."""
    if numerator is denominator:
        return Unit.DIMENSIONLESS, 1.0
    try:
        return _DIVISION_RULES[(numerator, denominator)]
    except KeyError:
        raise ThermoeconError(
            f"no division rule for {numerator.token} / {denominator.token}"
        ) from None


#: File-header unit tokens. `percent_per_year` exists so data transcribed in
#: printed percent form can be shipped as-is; it loads as a per-year fraction.
FILE_TOKENS: dict[str, tuple[Unit, float]] = {
    **{u.token: (u, 1.0) for u in Unit},
    "percent_per_year": (Unit.PER_YEAR_FRACTION, 0.01),
}


def parse_unit_token(token: str) -> tuple[Unit, float]:
    """Map a file-header token to (unit, value scale). Unknown token raises ThermoeconError."""
    try:
        return FILE_TOKENS[token]
    except KeyError:
        known = ", ".join(sorted(FILE_TOKENS))
        raise ThermoeconError(f"unknown unit token {token!r}; known tokens: {known}") from None
