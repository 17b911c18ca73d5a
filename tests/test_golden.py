"""Byte-for-byte golden outputs of the command line front end.

Each case runs one subcommand on the built-in benchmark data and compares
every file it writes, plus its stdout, with the frozen copy under
tests/golden/<case>/. The output directory in "wrote ..." lines is
replaced by "<out>" so the goldens do not depend on where the test runs.
A deliberate change to the output format means regenerating these files
with `write_golden` below and reviewing the diff.
"""

from pathlib import Path

import pytest

from thermoecon.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
STDOUT_NAME = "stdout.txt"

CASES = {
    "fit": ["fit", "--builtin-table1"],
    "forecast_horizon_91": ["forecast", "--builtin-table1", "--horizon", "91"],
    "forecast_no_innovation": [
        "forecast", "--builtin-table1", "--tau-eta", "0", "--horizon", "50",
    ],
    "table1_index_1970": ["table1", "--index-1970"],
    "figure2": ["figure2", "--builtin-table1"],
    "figure2_tsv": ["figure2", "--builtin-table1", "--format", "tsv"],
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path, capsys):
    outputs = run_case(CASES[name], tmp_path / "out", capsys)
    case_dir = GOLDEN_DIR / name
    expected = {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())}
    assert sorted(outputs) == sorted(expected)
    for file_name, data in expected.items():
        assert outputs[file_name] == data, f"{name}/{file_name} differs from golden"
