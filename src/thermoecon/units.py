"""Units for annual economic/energy series and the rules for combining them.

The unit set is deliberately tiny: trillions of constant 2005 MER US dollars,
terawatts, per-year fractions. Each unit declares its file-header token and
whether its values must be positive. This module holds lambda's scale and
the three ratios the fit takes; the one integral is dC/dt = Y. Anything
else raises ThermoeconError, never a coercion.

`Unit.PERCENT_PER_YEAR` is a presentation unit: a report column in it
holds per-year rates in percent, and its token loads back as
`Unit.PER_YEAR_FRACTION` at 0.01, so no file is ever read in percent.
"""

from __future__ import annotations

import enum

from .errors import ThermoeconError

#: Seconds in one Julian year. The single conversion constant used for every
#: W <-> $/yr crossing in the package; do not introduce a second convention.
SECONDS_PER_YEAR = 3.15569e7
#: W per thousand $ in one TW per T$, so lambda = LAMBDA_SCALE * a / C.
LAMBDA_SCALE = 1000.0


class Unit(enum.Enum):
    """Each member declares (token, requires_positive): its file-header
    spelling, and whether its values must be strictly positive, as GDP,
    power and wealth, physical stocks and flows, must be."""

    POWER_TERAWATT = ("power_terawatt", True)
    GDP_TRILLION_USD2005_PER_YEAR = ("gdp_trillion_usd2005_per_year", True)
    WEALTH_TRILLION_USD2005 = ("wealth_trillion_usd2005", True)
    WATTS_PER_THOUSAND_USD2005 = ("watts_per_thousand_usd2005", False)
    USD2005_PER_JOULE = ("usd2005_per_joule", False)
    PER_YEAR_FRACTION = ("per_year_fraction", False)
    YEARS = ("years", False)
    DIMENSIONLESS = ("dimensionless", False)
    PERCENT_PER_YEAR = ("percent_per_year", False)

    def __init__(self, token: str, requires_positive: bool):
        self.token = token
        self.requires_positive = requires_positive


# (numerator, denominator) -> (result unit, scale applied to the raw ratio).
# Scales carry the T$/TW/k$ bookkeeping:
#   TW / T$           = W/$        -> *LAMBDA_SCALE gives W per thousand $
#   (T$/yr) / TW      = $/(W yr)   -> /SECONDS_PER_YEAR gives $/J
_DIVISION_RULES: dict[tuple[Unit, Unit], tuple[Unit, float]] = {
    (Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.WEALTH_TRILLION_USD2005): (
        Unit.PER_YEAR_FRACTION,
        1.0,
    ),
    (Unit.POWER_TERAWATT, Unit.WEALTH_TRILLION_USD2005): (
        Unit.WATTS_PER_THOUSAND_USD2005,
        LAMBDA_SCALE,
    ),
    (Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.POWER_TERAWATT): (
        Unit.USD2005_PER_JOULE,
        1.0 / SECONDS_PER_YEAR,
    ),
}

def division_rule(numerator: Unit, denominator: Unit) -> tuple[Unit, float]:
    """Result unit and scale factor for a pointwise series division. Only the
    model's three ratios, eta = Y/C, lambda = a/C and Y/a in $/J, have one."""
    try:
        return _DIVISION_RULES[(numerator, denominator)]
    except KeyError:
        raise ThermoeconError(
            f"no division rule for {numerator.token} / {denominator.token}"
        ) from None


#: File-header unit tokens. `percent_per_year` exists so data transcribed in
#: printed percent form can be shipped as-is; it loads as a per-year fraction.
FILE_TOKENS: dict[str, tuple[Unit, float]] = {
    **{u.token: (u, 1.0) for u in Unit if u is not Unit.PERCENT_PER_YEAR},
    Unit.PERCENT_PER_YEAR.token: (Unit.PER_YEAR_FRACTION, 0.01),
}


def parse_unit_token(token: str) -> tuple[Unit, float]:
    """Map a file-header token to (unit, value scale). Unknown token raises ThermoeconError."""
    try:
        return FILE_TOKENS[token]
    except KeyError:
        known = ", ".join(sorted(FILE_TOKENS))
        raise ThermoeconError(f"unknown unit token {token!r}; known tokens: {known}") from None
