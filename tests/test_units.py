import ast
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoecon import ThermoeconError, Unit, load_series
from thermoecon.units import (
    FILE_TOKENS,
    LAMBDA_SCALE,
    SECONDS_PER_YEAR,
    division_rule,
    parse_unit_token,
)

from test_series import exactly


def test_seconds_per_year_is_julian():
    assert SECONDS_PER_YEAR == 3.15569e7


def _constants_outside_units(keep):
    """`file:line` of every constant in the package outside units.py whose
    value `keep` accepts."""
    package = Path(__file__).resolve().parent.parent / "src" / "thermoecon"
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "units.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and keep(node.value)
    ]


def test_lambda_scale_is_declared_once():
    # W per thousand $ from TW per T$: every conversion names LAMBDA_SCALE,
    # so no number literal 1000 appears outside units.py
    assert LAMBDA_SCALE == 1000.0
    assert _constants_outside_units(lambda v: type(v) in (int, float) and v == 1000) == []


def test_unit_tokens_are_spelled_once():
    # every module names a unit by its Unit member, so no string literal
    # equal to a file token appears outside units.py; "years" is also the
    # field name that __setattr__ calls spell
    tokens = FILE_TOKENS.keys() - {"years"}
    assert _constants_outside_units(lambda v: type(v) is str and v in tokens) == []


def test_every_unit_has_a_file_token(tmp_path):
    for unit in Unit:
        if unit is Unit.PERCENT_PER_YEAR:
            continue
        parsed, scale = parse_unit_token(unit.token)
        assert parsed is unit
        assert scale == 1.0
    # the presentation unit is written, never read: its token loads as a fraction
    assert parse_unit_token(Unit.PERCENT_PER_YEAR.token) == (Unit.PER_YEAR_FRACTION, 0.01)
    p = tmp_path / "ror.csv"
    p.write_text("# unit: percent_per_year\n2009,2.14\n", encoding="utf-8")
    with pytest.raises(
        ThermoeconError,
        match=exactly(
            "ror.csv: declared unit 'percent_per_year' is per_year_fraction, "
            "expected percent_per_year"
        ),
    ):
        load_series(p, Unit.PERCENT_PER_YEAR)


def test_percent_token_scales_to_fraction():
    unit, scale = parse_unit_token("percent_per_year")
    assert unit is Unit.PER_YEAR_FRACTION
    assert scale == 0.01


def test_unknown_token_rejected():
    with pytest.raises(
        ThermoeconError,
        match=exactly(
            "unknown unit token 'furlongs_per_fortnight'; known tokens: dimensionless, "
            "gdp_trillion_usd2005_per_year, per_year_fraction, percent_per_year, power_terawatt, "
            "usd2005_per_joule, watts_per_thousand_usd2005, wealth_trillion_usd2005, years"
        ),
    ):
        parse_unit_token("furlongs_per_fortnight")


def test_positivity_marks_physical_quantities():
    positive = {u for u in Unit if u.requires_positive}
    assert positive == {
        Unit.POWER_TERAWATT,
        Unit.GDP_TRILLION_USD2005_PER_YEAR,
        Unit.WEALTH_TRILLION_USD2005,
    }


def test_division_rules_carry_scales():
    # gdp/wealth -> per-year rate, no scale
    unit, scale = division_rule(
        Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.WEALTH_TRILLION_USD2005
    )
    assert unit is Unit.PER_YEAR_FRACTION and scale == 1.0
    # TW over T$ needs the factor 1000 to land in W/k$
    unit, scale = division_rule(Unit.POWER_TERAWATT, Unit.WEALTH_TRILLION_USD2005)
    assert unit is Unit.WATTS_PER_THOUSAND_USD2005 and scale == 1000.0
    # (T$/yr)/TW = $/J after dividing by seconds per year
    unit, scale = division_rule(
        Unit.GDP_TRILLION_USD2005_PER_YEAR, Unit.POWER_TERAWATT
    )
    assert unit is Unit.USD2005_PER_JOULE
    assert math.isclose(scale, 1.0 / SECONDS_PER_YEAR)


@given(st.sampled_from(list(Unit)))
def test_self_division_is_refused(unit):
    # the model takes no ratio of a quantity to itself
    t = unit.token
    with pytest.raises(ThermoeconError, match=exactly(f"no division rule for {t} / {t}")):
        division_rule(unit, unit)


def test_unsupported_division_raises():
    with pytest.raises(
        ThermoeconError, match=exactly("no division rule for years / power_terawatt")
    ):
        division_rule(Unit.YEARS, Unit.POWER_TERAWATT)


def test_file_tokens_cover_only_known_units():
    for token, (unit, scale) in FILE_TOKENS.items():
        assert isinstance(unit, Unit)
        assert scale > 0
