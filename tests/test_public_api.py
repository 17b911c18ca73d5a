"""The package's public surface and the scripts that use it.

`thermoecon.__all__` is pinned to a literal list, and `write_table`'s
signature to its parameters, so changing either takes an edit here. The scripts under scripts/ are run in process,
since they are the only non-test callers of some exported names.
"""

import inspect
import runpy
import sys
from pathlib import Path

import pytest

import thermoecon

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

PUBLIC_NAMES = [
    "AnnualSeries",
    "ConfigurationError",
    "DomainError",
    "DoublingTimes",
    "FitResult",
    "ForecastPath",
    "GapError",
    "GrowthDecomposition",
    "HorizonOverflowError",
    "HorizonUnderflowError",
    "InnovationFit",
    "InsufficientDataError",
    "ModelFit",
    "ParseError",
    "SECONDS_PER_YEAR",
    "Scenario",
    "SeriesRangeError",
    "Table1",
    "ThermoeconError",
    "Unit",
    "UnitError",
    "ValidationError",
    "annual_grid",
    "build_wealth",
    "builtin_table1",
    "cumulative_integral",
    "doubling_time_series",
    "doubling_times",
    "eta_from_productivity",
    "eta_trajectory",
    "fit_innovation",
    "fit_lambda",
    "forecast",
    "gdp_growth_decomposition",
    "interpolate",
    "load_series",
    "log_derivative",
    "log_wealth_ratio",
    "parse_unit_token",
    "rolling_mean",
    "run_fit",
    "write_table",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert thermoecon.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(thermoecon, name)] == []


def test_write_table_signature_is_pinned():
    params = inspect.signature(thermoecon.write_table).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        ("path", empty),
        ("year_grid", empty),
        ("columns", empty),
        ("fmt", "csv"),
        ("comments", ()),
    ]


@pytest.mark.parametrize(
    "script, argv, headers",
    [
        (
            "reproduce_headline_numbers.py",
            [],
            ["annual-grid fit, 1970:2009, wealth calibrated at lambda0 = 6.4"],
        ),
        (
            "forecast_horizon_sweep.py",
            ["--horizon", "20"],
            [
                "tau sweep, horizon 20 yr (tau in years, none = frozen eta)",
                "energy productivity sweep at fixed lambda, horizon 20 yr",
            ],
        ),
    ],
    ids=["reproduce_headline_numbers", "forecast_horizon_sweep"],
)
def test_script_runs(script, argv, headers, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    for header in headers:
        assert header in out
