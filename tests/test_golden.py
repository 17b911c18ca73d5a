"""Byte-for-byte golden outputs of the command line front end.

Each case runs one subcommand, on the built-in benchmark data or on the
files under src/thermoecon/data/ and tests/golden/inputs/, and compares
every file it writes, plus its stdout, with the frozen copy under
tests/golden/<case>/.
The output directory in "wrote ..." lines is replaced by "<out>" so the
goldens do not depend on where the test runs; input paths never appear
in the outputs.
A deliberate change to the output format means regenerating these files
with `write_golden` below and reviewing the diff.
CI runs this file a second time against the installed wheel, from outside
the checkout: the built-in cases then read the data the wheel ships, and
the checkout's copies of those files serve only as the file-input cases'
inputs.
"""

from pathlib import Path

import pytest

from thermoecon.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATA_DIR = GOLDEN_DIR.parent.parent / "src" / "thermoecon" / "data"
HISTORICAL_GDP = str(GOLDEN_DIR / "inputs" / "historical_gdp.csv")
STDOUT_NAME = "stdout.txt"

DATA_FILES = [
    "--gdp", str(DATA_DIR / "world_gdp.csv"), "--power", str(DATA_DIR / "world_power.csv"),
]

CASES = {
    "fit": ["fit", "--builtin-table1"],
    "forecast_horizon_91": ["forecast", "--builtin-table1", "--horizon", "91"],
    "forecast_no_innovation": [
        "forecast", "--builtin-table1", "--tau-eta", "0", "--horizon", "50",
    ],
    "table1_index_1970": ["table1", "--index-1970"],
    "figure2": ["figure2", "--builtin-table1"],
    "figure2_tsv": ["figure2", "--builtin-table1", "--format", "tsv"],
    "fit_files_window": ["fit", *DATA_FILES, "--lambda0", "7.3", "--window", "1980:2000"],
    "fit_historical": ["fit", *DATA_FILES, "--historical-gdp", HISTORICAL_GDP],
    "forecast_historical_horizon_91": [
        "forecast", *DATA_FILES, "--historical-gdp", HISTORICAL_GDP, "--horizon", "91",
    ],
    "table1_lambda0_7_1": ["table1", "--lambda0", "7.1"],
    "forecast_window_2000_2009_horizon_10": [
        "forecast", "--builtin-table1", "--window", "2000:2009", "--horizon", "10",
    ],
}


def run_case(argv, out_dir, capsys) -> dict[str, bytes]:
    """Run one CLI case into `out_dir`; return {file name: bytes} incl. stdout."""
    assert main([*argv, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    outputs[STDOUT_NAME] = stdout.encode("utf-8")
    return outputs


def write_golden(name, outputs):
    case_dir = GOLDEN_DIR / name
    case_dir.mkdir(parents=True, exist_ok=True)
    for file_name, data in outputs.items():
        (case_dir / file_name).write_bytes(data)


def assert_matches_golden(name, outputs):
    case_dir = GOLDEN_DIR / name
    expected = {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())}
    assert sorted(outputs) == sorted(expected)
    for file_name, data in expected.items():
        assert outputs[file_name] == data, f"{name}/{file_name} differs from golden"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path, capsys):
    assert_matches_golden(name, run_case(CASES[name], tmp_path / "out", capsys))


# every case at least once, file-input and built-in runs of one subcommand
# interleaved, with a failing run and an argparse rejection in between
MIXED_ORDER = [
    "fit_files_window", "fit", "fit_files_window",
    "forecast_no_innovation", "forecast_horizon_91", "forecast_no_innovation",
    "figure2_tsv", "figure2", "figure2_tsv",
    "table1_lambda0_7_1", "table1_index_1970", "table1_lambda0_7_1",
    "fit_historical", "forecast_historical_horizon_91", "fit",
    "forecast_window_2000_2009_horizon_10", "forecast_horizon_91",
]


def test_back_to_back_runs_in_one_process(tmp_path, capsys):
    """main() reuses one parser per process; no run leaks state into the next."""
    assert set(MIXED_ORDER) == set(CASES)
    for i, name in enumerate(MIXED_ORDER):
        assert_matches_golden(name, run_case(CASES[name], tmp_path / str(i), capsys))
        if i == 4:
            assert main(["forecast", "--builtin-table1", "--horizon", "100000000000"]) == 2
        if i == 9:
            with pytest.raises(SystemExit):
                main(["table1", "--index-1970", "--no-such-flag"])
        capsys.readouterr()
