"""The package's public surface and the scripts that use it.

`thermoecon.__all__` is pinned to a literal list of the sixteen names a
user of the model calls, `write_table`'s signature to its parameters and
the error classes to the four that carry data, so changing any of them
takes an edit here. The toolkit behind them (series operations, fit
stages, result types) is imported from its own module. The scripts under
scripts/ are run in process, since they are the only non-test callers of
some exported names, the README's model notes must state the numbers
the package computes, and every source file must parse as the declared
minimum Python. CI runs this file again against the installed wheel.
"""

import ast
import inspect
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoecon
from thermoecon.cli import _parse_window
from thermoecon.units import division_rule, parse_unit_token

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

PUBLIC_NAMES = [
    "AnnualSeries",
    "HorizonOverflowError",
    "HorizonUnderflowError",
    "ParseError",
    "Scenario",
    "ThermoeconError",
    "Unit",
    "builtin_table1",
    "doubling_time_series",
    "doubling_times",
    "eta_from_productivity",
    "fit_innovation",
    "forecast",
    "load_series",
    "run_fit",
    "write_table",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert thermoecon.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(thermoecon, name)] == []


def test_version_is_the_one_pyproject_declares():
    # the CLI's --version and every report's first comment line print it
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((SCRIPTS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert thermoecon.__version__ == config["project"]["version"]


def test_error_subclasses_are_the_ones_carrying_data():
    # every other failure is a plain ThermoeconError with its message
    found, todo = set(), [thermoecon.ThermoeconError]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    assert found == {
        thermoecon.ParseError,
        thermoecon.errors._HorizonRangeError,
        thermoecon.HorizonOverflowError,
        thermoecon.HorizonUnderflowError,
    }


def _load_text(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text)
    return thermoecon.load_series(path, thermoecon.Unit.YEARS)


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp_path: division_rule(thermoecon.Unit.YEARS, thermoecon.Unit.POWER_TERAWATT),
        lambda tmp_path: parse_unit_token("bogus"),
        lambda tmp_path: _load_text(tmp_path, b"# unit: years\nx,1.0\n"),
        lambda tmp_path: _load_text(tmp_path, b"# unit: years\n1970,x\n"),
        lambda tmp_path: _load_text(tmp_path, b"# unit: bogus\n1970,1.0\n"),
        lambda tmp_path: _load_text(tmp_path, b"# unit: years\n1970,\xff\n"),
        lambda tmp_path: _parse_window("1970-2009"),
    ],
    ids=[
        "division_rule",
        "parse_unit_token",
        "load_bad_year",
        "load_bad_value",
        "load_unknown_token",
        "load_non_utf8",
        "parse_window",
    ],
)
def test_reraised_errors_drop_the_internal_cause(call, tmp_path):
    # a library caller's traceback shows the toolkit error alone, not the
    # KeyError or ValueError it was raised while handling
    with pytest.raises(thermoecon.ThermoeconError) as err:
        call(tmp_path)
    assert err.value.__suppress_context__


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
    "script, argv, golden",
    [
        ("reproduce_headline_numbers.py", [], "reproduce_headline_numbers.txt"),
        (
            "forecast_horizon_sweep.py",
            ["--horizon", "20"],
            "forecast_horizon_sweep_horizon_20.txt",
        ),
    ],
    ids=["reproduce_headline_numbers", "forecast_horizon_sweep"],
)
def test_script_stdout_matches_golden(script, argv, golden, monkeypatch, capsys):
    """The whole stdout, so no printed number changes unseen."""
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    expected = SCRIPTS.parent / "tests" / "golden" / "scripts" / golden
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def test_scale_probe_prints_one_row_per_size(monkeypatch, capsys):
    # timings vary by machine, so only the table's shape is checked
    path = SCRIPTS / "scale_probe.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--years", "1000", "1200"])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[0].startswith("| years | gdp.csv MiB | load_series x2 |")
    assert [line.split(" | ")[0] for line in lines[2:]] == ["| 1000", "| 1200"]
    assert all(line.count(" MiB") == 4 and line.count(" ms, ") == 4 for line in lines[2:])


def test_model_notes_state_the_numbers_the_package_computes(table1, benchmark_fit):
    # each figure, as the README rounds it, next to the words that name it;
    # the paper's own split and growth are quoted, not computed, so not here
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    notes = " ".join(readme[readme.index("## Model notes") : readme.index("## Tests")].split())
    m, inn = benchmark_fit.model, benchmark_fit.innovation
    printed = table1.power_over_wealth
    fitted = np.array([m.lambda_series.value_at(year) for year in printed.years])
    eta_2009 = table1.state_at(2009)[1]
    growth = np.log(table1.gdp.value_at(2009) / table1.gdp.value_at(1970)) / (2009 - 1970)

    def spread(values):
        return np.std(values) / np.mean(values) * 100

    phrases = [
        f"mean {m.lambda_mean:.2f} W per thousand 2005 $ with a "
        f"{m.lambda_rel_std * 100:.1f} % relative spread over 1970 to 2009",
        f"nine printed ratios have mean {np.mean(printed.values):.2f} and spread "
        f"{spread(printed.values):.2f} %",
        f"fitted ratio at those nine years has mean {np.mean(fitted):.2f} and spread "
        f"{spread(fitted):.1f} %",
        f"energy productivity over the window is about {m.f_mean * 1e8:.1f}e-8 $ per joule",
        f"roughly {m.f_mean * 1e6:.3f} $ per MJ",
        f"annual-grid fit here gives {m.eta_mean * 100:.2f} + {inn.slope * 100:.2f} %/yr",
        f"bundled table's GDP grows {growth * 100:.2f} %/yr from 1970 to 2009",
        f"2009 return of {eta_2009 * 100:.2f} %/yr wealth doubles in "
        f"{thermoecon.doubling_times(eta_2009).wealth_years:.1f} years",
        f"0.35 %/yr it takes about {thermoecon.doubling_times(0.0035).wealth_years:.0f} years",
    ]
    assert [phrase for phrase in phrases if phrase not in notes] == []


def test_sources_parse_as_the_minimum_python():
    # grammar only: requires-python is ">=3.10", and a newer construct
    # such as except* would break the package there before any test ran
    sources = [
        path
        for folder in ("src", "scripts", "tests", "perfbench")
        for path in sorted((SCRIPTS.parent / folder).rglob("*.py"))
    ]
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
