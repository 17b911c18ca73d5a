"""The benchmark's workloads: seeded inputs, one op, its output check, faults.

Each workload is a closed loop with one client. `setup` builds the inputs
from the seed and warms up, `run_op(i)` is the timed call into the
program, `check(i, result)` decides outside the timed region whether the
op succeeded, and `faults()` feeds deliberately wrong results to the
checks and yields `(label, rejected)`; every one must be rejected, which
proves the checks are live.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracing import read_spans

HERE = Path(__file__).resolve().parent


@dataclasses.dataclass
class Context:
    root: Path  # checkout root; the program is imported from root/src
    work: Path  # scratch directory of this run, removed at the end
    seed: int
    env: dict  # environment for child processes, PYTHONPATH set to root/src


def program(*names: str) -> list:
    """thermoecon submodules by name; the package re-exports `forecast` the function."""
    return [importlib.import_module(f"thermoecon.{n}") for n in names]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_value(text: str, key: str) -> float:
    """The number after `key:` on its line of a fit summary."""
    m = re.search(rf"^{re.escape(key)}: (\S+)", text, re.MULTILINE)
    if m is None:
        raise ValueError(f"no '{key}:' line")
    return float(m.group(1))


class InProcess:
    """Workload that calls the program inside the benchmark's own process."""

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# fit_long_record

RECORD_START, RECORD_END = 10, 2009  # 2000 annual grid years
ANNUAL_FROM = 1700  # knots are annual from here on, like long-run records
SPARSE_KNOTS = 60  # irregular knots per series before ANNUAL_FROM
NOISE_SIGMA = 0.01  # lognormal noise on every knot value
WEALTH_END = 2300.0  # T$ at RECORD_END, the 2009 benchmark state

# recovery tolerances; the fit sees sparse, noisy knots, not the closed form
LAMBDA_RTOL = 0.03
SLOPE_RTOL = 0.03
WEALTH_RTOL = 0.02


def write_long_record(directory: Path, seed: int) -> dict:
    """Write gdp.csv, power.csv and record.json for one seeded long record.

    Values follow the closed form C(t) = C0 exp(eta0 tau (exp(t/tau) - 1))
    from RECORD_START, with Y = eta C and a = (lambda/1000) C, times
    lognormal noise. record.json holds the true parameters and the sizes.
    """
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(5.0, 9.0))
    tau = float(rng.uniform(400.0, 900.0))
    eta_end = float(rng.uniform(0.015, 0.03))
    span = RECORD_END - RECORD_START
    eta0 = eta_end * math.exp(-span / tau)
    c0 = WEALTH_END * math.exp(-eta0 * tau * math.expm1(span / tau))

    directory.mkdir(parents=True, exist_ok=True)
    knots = {}
    for name, token in (("gdp", "gdp_trillion_usd2005_per_year"), ("power", "power_terawatt")):
        early = rng.choice(np.arange(RECORD_START + 1, ANNUAL_FROM), SPARSE_KNOTS, replace=False)
        years = np.concatenate(
            [[RECORD_START], np.sort(early), np.arange(ANNUAL_FROM, RECORD_END + 1)]
        )
        t = (years - RECORD_START).astype(float)
        wealth = c0 * np.exp(eta0 * tau * np.expm1(t / tau))
        clean = eta0 * np.exp(t / tau) * wealth if name == "gdp" else lam / 1000.0 * wealth
        values = clean * np.exp(rng.normal(0.0, NOISE_SIGMA, years.size))
        lines = [f"# synthetic long-run {name} record, seed {seed}", f"# unit: {token}"]
        lines += [f"{int(y)},{float(v)!r}" for y, v in zip(years, values)]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        knots[name] = int(years.size)

    record = {
        "seed": seed,
        "lambda": lam,
        "eta0": eta0,
        "tau": tau,
        "innovation_rate": 1.0 / tau,
        "wealth_start": c0,
        "wealth_end": WEALTH_END,
        "start_year": RECORD_START,
        "end_year": RECORD_END,
        "record_years": span + 1,
        "gdp_knots": knots["gdp"],
        "power_knots": knots["power"],
        "noise_sigma": NOISE_SIGMA,
    }
    (directory / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


class FitLongRecord(InProcess):
    """`fit` then `figure2` through cli.main on a 2000-year synthetic record."""

    name = "fit_long_record"
    warmup_ops = 3
    files = ("lambda_series.csv", "summary.txt", "figure2_data.csv")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.out = ctx.work / "out"

    def setup(self):
        self.cli, self.errors, self.ingest, self.units = program("cli", "errors", "ingest", "units")
        inputs = self.ctx.work / "inputs"
        self.truth = write_long_record(inputs, self.ctx.seed)
        common = [
            "--gdp", str(inputs / "gdp.csv"),
            "--power", str(inputs / "power.csv"),
            "--lambda0", repr(self.truth["lambda"]),
            "--out", str(self.out),
        ]
        self.argvs = (["fit", *common], ["figure2", *common])
        rc_fit, rc_fig, stdout = self.run_op(0)
        self.reference_ok = rc_fit == rc_fig == 0 and self.validate(self.out)
        self.reference = (stdout, self.digests(self.out))
        for i in range(1, self.warmup_ops):
            self.run_op(i)

    def run_op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_fit = self.cli.main(self.argvs[0])
            rc_fig = self.cli.main(self.argvs[1])
        return rc_fit, rc_fig, buf.getvalue()

    def digests(self, directory: Path) -> tuple[str, ...]:
        return tuple(digest(directory / f) for f in self.files)

    def validate(self, directory: Path) -> bool:
        """Outputs re-parse and recover the generator's parameters."""
        try:
            return self._validate(directory)
        except (ValueError, OSError, self.errors.ThermoeconError):
            return False

    def _validate(self, directory: Path) -> bool:
        t, load, unit = self.truth, self.ingest.load_series, self.units.Unit
        summary = (directory / "summary.txt").read_text(encoding="utf-8")
        lam = summary_value(summary, "lambda mean")
        slope = summary_value(summary, "innovation rate")
        table = directory / "lambda_series.csv"
        lam_col = load(table, unit.WATTS_PER_THOUSAND_USD2005, column="lambda")
        wealth = load(table, unit.WEALTH_TRILLION_USD2005, column="wealth")
        delta_c = load(directory / "figure2_data.csv", unit.YEARS, column="delta_c_years")
        return (
            rel_err(lam, t["lambda"]) < LAMBDA_RTOL
            and rel_err(slope, t["innovation_rate"]) < SLOPE_RTOL
            and len(lam_col) == len(wealth) == len(delta_c) == t["record_years"]
            and rel_err(float(np.mean(lam_col.values)), lam) < 1e-9
            and rel_err(wealth.values[-1], t["wealth_end"]) < WEALTH_RTOL
            and bool(np.all(delta_c.values > 0.0))
        )

    def check(self, i, result) -> bool:
        rc_fit, rc_fig, stdout = result
        return (
            self.reference_ok
            and rc_fit == rc_fig == 0
            and (stdout, self.digests(self.out)) == self.reference
        )

    def faults(self):
        yield "non-zero exit from fit", not self.check(0, (2, 0, self.reference[0]))
        result = self.run_op(0)
        table = self.out / "lambda_series.csv"
        table.write_bytes(table.read_bytes().replace(b"\n2009,", b"\n2008,"))
        yield "corrupted lambda_series.csv", not self.check(0, result)
        bad = self.ctx.work / "fault"
        bad.mkdir(exist_ok=True)
        self.run_op(0)
        for f in self.files:
            (bad / f).write_bytes((self.out / f).read_bytes())
        summary = (bad / "summary.txt").read_text(encoding="utf-8")
        lam = summary_value(summary, "lambda mean")
        summary = summary.replace(f"lambda mean: {lam:.12g}", f"lambda mean: {lam * 1.02:.12g}")
        (bad / "summary.txt").write_text(summary, encoding="utf-8")
        yield "lambda mean 2 % off in summary.txt", not self.validate(bad)

    def sizes(self) -> dict:
        keys = ("record_years", "gdp_knots", "power_knots", "lambda", "eta0", "tau")
        return {k: self.truth[k] for k in keys}


# ---------------------------------------------------------------------------
# scenario_sweep

SWEEP_POOL = 1000  # seeded scenarios, cycled through
SWEEP_START_YEAR = 2009
SWEEP_C0 = 2300.0  # T$, the 2009 benchmark state
FORECAST_RTOL = 1e-9


def closed_form_end(c0, eta0, lambda0, tau, horizon) -> tuple[float, float, float, float]:
    """(wealth, eta, gdp, power) at the end of the horizon, computed here."""
    if tau is None:
        log_c, eta = math.log(c0) + eta0 * horizon, eta0
    else:
        log_c = math.log(c0) + eta0 * tau * math.expm1(horizon / tau)
        eta = eta0 * math.exp(horizon / tau)
    wealth = math.exp(log_c)
    return wealth, eta, eta * wealth, lambda0 / 1000.0 * wealth


class ScenarioSweep(InProcess):
    """One forecast(Scenario(...)) per op from seeded 2009-state draws."""

    name = "scenario_sweep"
    warmup_ops = 500

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        (self.fc,) = program("forecast")
        rng = np.random.default_rng(self.ctx.seed)
        self.pool = []
        counts = {"none": 0, "positive": 0, "negative": 0}
        for _ in range(SWEEP_POOL):
            eta0 = float(rng.uniform(0.01, 0.03))
            lambda0 = float(rng.uniform(5.0, 9.0))
            horizon = int(rng.integers(10, 301))
            kind = ("none", "positive", "negative")[int(rng.integers(3))]
            # |tau| >= 50 keeps the worst case (eta0 = 3 %, 300 yr) near e^614
            magnitude = float(math.exp(rng.uniform(math.log(50.0), math.log(1000.0))))
            tau = None if kind == "none" else magnitude if kind == "positive" else -magnitude
            counts[kind] += 1
            kwargs = dict(
                c0=SWEEP_C0, eta0=eta0, lambda0=lambda0,
                start_year=SWEEP_START_YEAR, horizon_years=horizon, tau_eta=tau,
            )
            self.pool.append((kwargs, closed_form_end(SWEEP_C0, eta0, lambda0, tau, horizon)))
        self.tau_counts = counts
        for i in range(self.warmup_ops):
            self.run_op(i)

    def run_op(self, i):
        fc = self.fc
        return fc.forecast(fc.Scenario(**self.pool[i % SWEEP_POOL][0]))

    def check(self, i, path) -> bool:
        kwargs, want = self.pool[i % SWEEP_POOL]
        horizon = kwargs["horizon_years"]
        if len(path.wealth) != horizon + 1 or path.wealth.years[-1] != SWEEP_START_YEAR + horizon:
            return False
        got = (path.wealth.values[-1], path.eta.values[-1], path.gdp.values[-1], path.power.values[-1])
        return all(rel_err(g, w) < FORECAST_RTOL for g, w in zip(got, want))

    def faults(self):
        path = self.run_op(0)
        for column in ("wealth", "eta", "gdp", "power"):
            series = getattr(path, column)
            bad = series.with_values(series.values * (1.0 + 1e-6))
            yield f"{column} perturbed by 1e-6", not self.check(0, dataclasses.replace(path, **{column: bad}))

    def sizes(self) -> dict:
        horizons = [kw["horizon_years"] for kw, _ in self.pool]
        return {
            "pool": SWEEP_POOL,
            "horizon_min": min(horizons),
            "horizon_max": max(horizons),
            "horizon_mean": sum(horizons) / len(horizons),
            "tau": self.tau_counts,
        }


# ---------------------------------------------------------------------------
# cli_cold

CLI_COMMANDS = (
    ("fit", "--builtin-table1"),
    ("forecast", "--builtin-table1", "--horizon", "91"),
    ("table1", "--index-1970"),
    ("figure2", "--builtin-table1"),
)
CLI_OUTPUT = {
    "fit": "lambda_series.csv",
    "forecast": "forecast.csv",
    "table1": "table1_reconstruction.csv",
    "figure2": "figure2_data.csv",
}

# the published nine-year table, as printed in the source paper
TABLE1_YEARS = (1970, 1975, 1980, 1985, 1990, 1995, 2000, 2005, 2009)
TABLE1_RATIO = (6.4, 6.9, 7.3, 7.2, 7.5, 7.1, 6.9, 7.2, 7.0)
TABLE1_ROR_PCT = (1.37, 1.53, 1.70, 1.78, 1.94, 1.96, 2.10, 2.18, 2.14)


def builtin_forecast_end(horizon: int) -> tuple[float, float, float]:
    """(wealth, power, eta) of the built-in forecast, computed here.

    tau is the reciprocal OLS slope of ln(printed rate of return) on year;
    the seed is 2300 T$ at 2.14 %/yr and 7 W/k$.
    """
    slope = np.polyfit(np.array(TABLE1_YEARS, float), np.log(TABLE1_ROR_PCT), 1)[0]
    wealth, eta, _, power = closed_form_end(2300.0, 0.0214, 7.0, 1.0 / slope, horizon)
    return wealth, power, eta


@dataclasses.dataclass
class CliResult:
    command: str
    returncode: int


class CliCold:
    """One new `python -m thermoecon.cli` process per op, cycling commands."""

    name = "cli_cold"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.out = ctx.work / "out"
        self.stdout = ctx.work / "stdout.txt"
        self.stderr = ctx.work / "stderr.txt"
        self.spans = ctx.work / "spans.json"
        self.tracer = None
        self.maxrss_kb = 0

    def setup(self):
        self.errors, self.ingest, self.units = program("errors", "ingest", "units")
        self.reference = {}
        self.reference_ok = True
        for i, argv in enumerate(CLI_COMMANDS):
            result = self.run_op(i)
            stdout = self.stdout.read_text(encoding="utf-8")
            self.reference[argv[0]] = (stdout, digest(self.out / CLI_OUTPUT[argv[0]]))
            self.reference_ok &= result.returncode == 0 and self.validate(argv[0], stdout)
        self.maxrss_kb = 0

    def argv(self, i) -> list[str]:
        command = [*CLI_COMMANDS[i % len(CLI_COMMANDS)], "--out", str(self.out)]
        if self.tracer is None:
            return [sys.executable, "-m", "thermoecon.cli", *command]
        return [sys.executable, str(HERE / "traced_cli.py"), str(self.spans), *command]

    def run_op(self, i, argv=None) -> CliResult:
        argv = argv or self.argv(i)
        with open(self.stdout, "wb") as so, open(self.stderr, "wb") as se:
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.ctx.env, cwd=self.ctx.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.extend(read_spans(self.spans), i)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return CliResult(CLI_COMMANDS[i % len(CLI_COMMANDS)][0], proc.returncode)

    def validate(self, command: str, stdout: str) -> bool:
        """Headline numbers of each built-in command, checked independently."""
        try:
            return self._validate(command, stdout)
        except (ValueError, OSError, self.errors.ThermoeconError):
            return False

    def _validate(self, command: str, stdout: str) -> bool:
        load, unit = self.ingest.load_series, self.units.Unit
        path = self.out / CLI_OUTPUT[command]
        if command == "fit":
            lam = summary_value(stdout, "lambda mean")
            rate = summary_value(stdout, "innovation rate")
            return abs(lam - 7.05) < 0.005 and abs(rate * 100.0 - 1.13) < 0.005
        if command == "forecast":
            m = re.search(r"to 2100: wealth (\S+) T\$, power (\S+) TW, eta (\S+) %/yr", stdout)
            wealth, power, eta = builtin_forecast_end(91)
            return (
                m is not None
                and rel_err(float(m.group(1)), wealth) < 1e-5
                and rel_err(float(m.group(2)), power) < 1e-5
                and abs(float(m.group(3)) - eta * 100.0) < 0.006
                and len(load(path, unit.WEALTH_TRILLION_USD2005, column="wealth")) == 92
            )
        if command == "table1":
            ratio = load(path, unit.WATTS_PER_THOUSAND_USD2005, column="ratio_printed")
            return tuple(ratio.years) == TABLE1_YEARS and tuple(ratio.values) == TABLE1_RATIO
        delta_c = load(path, unit.YEARS, column="delta_c_years")
        m = re.search(r"wealth doubling time: (\S+) yr at 1970, (\S+) yr at 2009", stdout)
        return (
            m is not None
            and tuple(delta_c.years) == tuple(range(1970, 2010))
            and float(m.group(1)) == round(delta_c.values[0], 1)
            and float(m.group(2)) == round(delta_c.values[-1], 1)
        )

    def check(self, i, result: CliResult) -> bool:
        if not self.reference_ok or result.returncode != 0:
            return False
        got = (self.stdout.read_text(encoding="utf-8"), digest(self.out / CLI_OUTPUT[result.command]))
        return got == self.reference[result.command]

    def faults(self):
        no_input = [sys.executable, "-m", "thermoecon.cli", "fit", "--out", str(self.out)]
        yield "fit without inputs exits non-zero", not self.check(0, self.run_op(0, no_input))
        result = self.run_op(1)
        path = self.out / CLI_OUTPUT[result.command]
        path.write_bytes(path.read_bytes().replace(b"\n2100,", b"\n2101,"))
        yield "corrupted forecast.csv", not self.check(1, result)

    def start_trace(self, tracer):
        self.tracer = tracer

    def stop_trace(self, tracer):
        self.tracer = None

    def peak_rss_kb(self) -> int:
        return self.maxrss_kb

    def sizes(self) -> dict:
        return {"commands": [" ".join(c) for c in CLI_COMMANDS], "table1_years": len(TABLE1_YEARS)}


WORKLOADS = {w.name: w for w in (FitLongRecord, ScenarioSweep, CliCold)}
