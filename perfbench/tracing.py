"""Span tracing of thermoecon from outside the package.

Nothing under src/ is changed. `install` swaps each traced function for a
timing wrapper at every module-level binding that holds it, so calls made
through `from .series import interpolate` in another module are caught as
well as the calls that look the name up inside a function body, such as
the `rolling_mean` import in `forecast.doubling_time_series`. Classes are
traced at their `__init__`, which keeps `isinstance` checks intact.

A span is `[name, start_ns, end_ns, parent_index, op]`. Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, name) pairs under the thermoecon package, one per layer boundary
# the benchmark reports on; README.md says which end-to-end metric each moves
TARGETS = (
    ("units", "parse_unit_token"),
    ("units", "division_rule"),
    ("errors", "ThermoeconError"),
    ("series", "AnnualSeries"),
    ("series", "interpolate"),
    ("series", "cumulative_integral"),
    ("series", "log_derivative"),
    ("series", "rolling_mean"),
    ("ingest", "load_series"),
    ("ingest", "write_table"),
    ("growth", "build_wealth"),
    ("growth", "fit_lambda"),
    ("growth", "fit_innovation"),
    ("growth", "run_fit"),
    ("forecast", "Scenario"),
    ("forecast", "forecast"),
    ("forecast", "doubling_time_series"),
    ("cli", "main"),
)

# exception constructions are counted; their time is noise around zero
COUNT_ONLY = frozenset({"errors.ThermoeconError"})


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, name in TARGETS]


def layer_metric_names() -> list[str]:
    names = []
    for span in span_names():
        names.append(f"{span}.calls")
        if span not in COUNT_ONLY:
            names.append(f"{span}.self_ms")
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target at every binding in the thermoecon package."""
        importlib.import_module("thermoecon.cli")  # imports every other module
        package = [
            m for n, m in sys.modules.items() if n == "thermoecon" or n.startswith("thermoecon.")
        ]
        for module, name in TARGETS:
            obj = getattr(sys.modules[f"thermoecon.{module}"], name)
            span = f"{module}.{name}"
            if isinstance(obj, type):
                own = obj.__dict__.get("__init__")
                setattr(obj, "__init__", self.wrap(span, obj.__init__))
                self._undo.append((obj, "__init__", own))
                continue
            wrapper = self.wrap(span, obj)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, obj))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def extend(self, spans: list[list], op: int):
        """Append spans recorded in another process as part of `op`."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])

    def write(self, path: Path):
        path.write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}),
            encoding="utf-8",
        )


def read_spans(path: Path) -> list[list]:
    return json.loads(path.read_text(encoding="utf-8"))["spans"]


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Calls and self milliseconds per op for every traced name."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    out = {}
    for span in span_names():
        out[f"{span}.calls"] = calls[span] / n_ops
        if span not in COUNT_ONLY:
            out[f"{span}.self_ms"] = self_ns[span] / n_ops / 1e6
    return out
