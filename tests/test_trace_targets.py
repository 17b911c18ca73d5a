"""The benchmark's tracer wraps thermoecon functions by module and name.

perfbench/tracing.py lists them in TARGETS. A rename or removal in the
package would otherwise first show up as a crash of the traced benchmark
run, so every listed name must stay bound in its module. The list is read
from the source text; nothing under perfbench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def trace_targets() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


TARGETS = trace_targets()


@pytest.mark.parametrize("module,name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_target_is_bound(module, name):
    obj = getattr(importlib.import_module(f"thermoecon.{module}"), name, None)
    assert callable(obj), f"thermoecon.{module} no longer binds {name}"
