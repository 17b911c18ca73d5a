"""Command line front end.

Four subcommands: `fit` runs the historical pipeline and writes the ratio
series plus a text summary, `forecast` integrates a scenario forward,
`table1` reconstructs the built-in benchmark table with deviation columns,
`figure2` writes the smoothed doubling-time series. Outputs are plain CSV
(or TSV) with unit headers, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ThermoeconError
from .forecast import Scenario, doubling_time_series, forecast
from .growth import FitResult, fit_innovation, run_fit
from .ingest import builtin_table1, load_series, write_table
from .series import AnnualSeries
from .units import Unit

_VERSION_COMMENT = f"thermoecon {__version__}"

_SMOOTHING_WINDOW_YEARS = 10


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, end = text.split(":")
        window = (int(start), int(end))
    except ValueError:
        raise ThermoeconError(f"--window wants START:END, got {text!r}") from None
    if window[1] < window[0]:
        raise ThermoeconError(f"--window {text!r} ends before it starts")
    return window


def _figure(value: float, decimals: int) -> str:
    """`value` to `decimals` places, in exponent form from 1e6 in magnitude up."""
    return f"{value:.{decimals}{'e' if abs(value) >= 1e6 else 'f'}}"


def _reject_with_builtin(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ThermoeconError(f"{flag} cannot be combined with --builtin-table1")


def _load_input(path: str, unit: Unit) -> AnnualSeries:
    series = load_series(path, unit)
    if not len(series):
        raise ThermoeconError(f"{Path(path).name}: no values in column 'value'")
    return series


def _resolve_fit(args: argparse.Namespace) -> FitResult:
    window = None if args.window is None else _parse_window(args.window)
    if args.builtin_table1:
        _reject_with_builtin(args, "gdp", "power", "historical_gdp")
        t1 = builtin_table1()
        gdp, power, historical = t1.gdp, t1.power, None
        lambda0 = t1.calibration if args.lambda0 is None else args.lambda0
    else:
        if args.gdp is None or args.power is None:
            raise ThermoeconError("provide --gdp and --power, or --builtin-table1")
        gdp = _load_input(args.gdp, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = _load_input(args.power, Unit.POWER_TERAWATT)
        historical = None
        if args.historical_gdp is not None:
            historical = _load_input(args.historical_gdp, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        lambda0 = args.lambda0
    return run_fit(gdp, power, window=window, lambda0=lambda0, historical_gdp=historical)


def _write(args: argparse.Namespace, stem: str, grid, columns, *comments: str) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.{args.format}"
    return write_table(
        path, grid, columns, fmt=args.format, comments=[_VERSION_COMMENT, *comments]
    )


def cmd_fit(args: argparse.Namespace) -> int:
    res = _resolve_fit(args)
    m, wealth = res.model, res.wealth
    grid = m.lambda_series.years
    anchor = f"{res.init_mode}, C({wealth.first_year}) = {wealth.values[0]:.12g}"
    path = _write(
        args,
        "lambda_series",
        grid,
        {"lambda": m.lambda_series, "eta": m.eta_series, "f": m.f_series, "wealth": wealth},
        f"fit window {m.window[0]}:{m.window[1]}",
        f"wealth init {anchor}",
    )
    inn = res.innovation
    tau_text = "none (trend not positive)" if inn.tau_eta is None else f"{inn.tau_eta:.6g} yr"
    lines = [
        "fit summary",
        f"window: {m.window[0]}:{m.window[1]} ({len(grid)} annual points)",
        f"wealth init: {anchor} T$",
        f"lambda mean: {m.lambda_mean:.12g} W per thousand 2005 USD",
        f"lambda relative spread: {m.lambda_rel_std:.12g} "
        f"({_figure(m.lambda_rel_std * 100, 2)} %)",
        f"eta mean: {m.eta_mean:.12g} /yr ({_figure(m.eta_mean * 100, 2)} %/yr)",
        f"energy productivity mean: {m.f_mean:.12g} $/J",
        f"innovation rate: {inn.slope:.12g} /yr ({_figure(inn.slope * 100, 2)} %/yr)",
        f"ln(eta) fit residual rms: {inn.residual_rms:.12g}",
        f"eta e-folding time: {tau_text}",
        f"decomposition: {m.eta_mean!r} + {inn.slope!r} = {res.predicted_growth!r}",
        f"predicted gdp growth: {_figure(res.predicted_growth * 100, 2)} %/yr",
    ]
    summary_path = Path(args.out) / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"wrote {path} and {summary_path}")
    return 0


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin_table1:
        # the last printed row (2009) seeds the run; the window only picks
        # the years of the rate-of-return trend that sets the default tau
        _reject_with_builtin(args, "gdp", "power", "historical_gdp", "lambda0")
        window = None if args.window is None else _parse_window(args.window)
        source = builtin_table1()
        start = source.power.last_year
        default_tau = fit_innovation(source.rate_of_return, window).tau_eta
    else:
        source = _resolve_fit(args)
        start = source.model.window[1]
        default_tau = source.innovation.tau_eta
    c0, eta0, lambda0 = source.state_at(start)
    if args.eta0 is not None:
        eta0 = args.eta0
    if args.tau_eta is None:
        tau = default_tau
    elif args.tau_eta == 0.0:
        tau = None  # 0 is the no-innovation sentinel on the command line
    else:
        tau = args.tau_eta
    return Scenario(
        c0=c0,
        eta0=eta0,
        lambda0=lambda0,
        start_year=start,
        horizon_years=args.horizon,
        tau_eta=tau,
    )


def cmd_forecast(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    path_obj = forecast(scenario)
    tau_text = "none" if scenario.tau_eta is None else repr(scenario.tau_eta)
    out = _write(
        args,
        "forecast",
        path_obj.wealth.years,
        {
            "wealth": path_obj.wealth,
            "eta": path_obj.eta,
            "gdp": path_obj.gdp,
            "power": path_obj.power,
        },
        f"scenario: c0 = {scenario.c0!r} T$, eta0 = {scenario.eta0!r} /yr, "
        f"lambda0 = {scenario.lambda0!r} W/k$",
        f"tau_eta = {tau_text} yr, start {scenario.start_year}, "
        f"horizon {scenario.horizon_years} yr",
    )
    end = path_obj.wealth.last_year
    print(
        f"forecast {scenario.start_year} to {end}: "
        f"wealth {path_obj.wealth.value_at(end):.6g} T$, "
        f"power {path_obj.power.value_at(end):.6g} TW, "
        f"eta {_figure(path_obj.eta.value_at(end) * 100, 2)} %/yr"
    )
    print(f"wrote {out}")
    return 0


def _round4(values: np.ndarray) -> np.ndarray:
    # round() is correctly rounded; np.round scales by 1e4 first and can
    # land on the other side of a near-tie
    return np.array([round(v, 4) for v in values.tolist()])


def cmd_table1(args: argparse.Namespace) -> int:
    t1 = builtin_table1()
    lambda0 = t1.calibration if args.lambda0 is None else args.lambda0
    res = run_fit(t1.gdp, t1.power, lambda0=lambda0)
    years = t1.power.years
    lam = res.model.lambda_series
    ratio_computed = lam.values[years - lam.first_year]
    ratio_printed = t1.power_over_wealth.values
    # the printed ratio row defines its own implied wealth; reconstructing
    # the return column through it reproduces the printed rounding, the
    # trapezoid wealth does not quite
    ror_computed = 100.0 * t1.gdp.values / t1.wealth.values
    ror_printed = 100.0 * t1.rate_of_return.values
    ratio_deviation = ratio_computed - ratio_printed
    ror_deviation = ror_computed - ror_printed
    ror, percent = t1.rate_of_return, Unit.PERCENT_PER_YEAR
    columns = {
        "power": t1.power,
        "gdp": t1.gdp,
        "wealth": res.wealth,
        "ratio_computed": lam,
        "ratio_printed": t1.power_over_wealth,
        "ratio_deviation": t1.power_over_wealth.with_values(_round4(ratio_deviation)),
        "ror_computed": ror.with_values(ror_computed, percent),
        "ror_printed": ror.with_values(ror_printed, percent),
        "ror_deviation": ror.with_values(_round4(ror_deviation), percent),
    }
    if args.index_1970:
        columns["wealth_indexed"] = res.wealth.with_values(
            res.wealth.values / res.wealth.value_at(1970), Unit.DIMENSIONLESS
        )
    out = _write(
        args,
        "table1_reconstruction",
        years,
        columns,
        "benchmark reconstruction on the nine reference years",
        f"wealth calibrated with lambda0 = {lambda0!r} W/k$ at 1970",
        "ror columns are percent per year; see the unit.* headers for scaling",
    )
    print(f"max |ratio deviation| = {_figure(np.max(np.abs(ratio_deviation)), 4)} W/k$")
    print(f"max |ror deviation| = {_figure(np.max(np.abs(ror_deviation)), 4)} %/yr")
    print(f"wrote {out}")
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    res = _resolve_fit(args)
    delta_c, delta_eta = doubling_time_series(res.model.eta_series, _SMOOTHING_WINDOW_YEARS)
    years = delta_c.years
    out = _write(
        args,
        "figure2_data",
        years,
        {"delta_c_years": delta_c, "delta_eta_years": delta_eta},
        f"doubling times smoothed over {_SMOOTHING_WINDOW_YEARS} years",
        "empty delta_eta cells: smoothed eta trend not positive there",
    )
    print(
        f"wealth doubling time: {_figure(delta_c.values[0], 1)} yr at {years[0]}, "
        f"{_figure(delta_c.values[-1], 1)} yr at {years[-1]}"
    )
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoecon",
        description="wealth as integrated GDP, tied to primary power by a constant ratio",
    )
    parser.add_argument("--version", action="version", version=_VERSION_COMMENT)
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", default=".", help="output directory (default: current)")
    io.add_argument("--format", choices=("csv", "tsv"), default="csv")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument(
        "--builtin-table1",
        action="store_true",
        help="use the bundled nine-year benchmark dataset",
    )
    data.add_argument("--gdp", metavar="PATH", help="GDP series, T$/yr (2005 USD)")
    data.add_argument("--power", metavar="PATH", help="primary power series, TW")
    data.add_argument(
        "--historical-gdp",
        metavar="PATH",
        help="sparse long-run GDP record; switches wealth to integrated mode",
    )
    data.add_argument("--window", metavar="START:END", help="fit window in years")
    data.add_argument(
        "--lambda0",
        type=float,
        metavar="F",
        help="power/wealth ratio anchoring wealth at the window start",
    )

    p_fit = sub.add_parser("fit", parents=[io, data], help="fit the historical record")
    p_fit.set_defaults(func=cmd_fit)

    p_fc = sub.add_parser(
        "forecast", parents=[io, data], help="run a deterministic scenario forward"
    )
    p_fc.add_argument(
        "--eta0",
        type=float,
        metavar="F",
        help="initial rate of return, /yr; write a negative exponent form as --eta0=-1e-3",
    )
    p_fc.add_argument(
        "--tau-eta",
        type=float,
        metavar="YEARS",
        help="innovation e-folding time; 0 switches innovation off; "
        "write a negative exponent form as --tau-eta=-1e3",
    )
    p_fc.add_argument("--horizon", type=int, default=50, metavar="YEARS")
    p_fc.set_defaults(func=cmd_forecast)

    p_t1 = sub.add_parser(
        "table1", parents=[io], help="reconstruct the benchmark table with deviations"
    )
    p_t1.add_argument("--lambda0", type=float, metavar="F")
    p_t1.add_argument(
        "--index-1970",
        action="store_true",
        help="add a wealth column indexed to 1970 = 1",
    )
    p_t1.set_defaults(func=cmd_table1)

    p_f2 = sub.add_parser(
        "figure2", parents=[io, data], help="write smoothed doubling-time series"
    )
    p_f2.set_defaults(func=cmd_figure2)
    return parser


# parse_args leaves the parser unchanged, so one per process serves every call
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ThermoeconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
