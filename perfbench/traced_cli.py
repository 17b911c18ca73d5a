"""Run one thermoecon CLI command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS.json <command> [args...]

Behaves like `python -m thermoecon.cli <command> [args...]` (PYTHONPATH
must reach src/) and writes the recorded spans to SPANS.json on exit.
"""

import sys
from pathlib import Path

from tracing import Tracer

import thermoecon.cli


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return thermoecon.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
