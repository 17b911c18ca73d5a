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
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigurationError, ThermoeconError
from .forecast import Scenario, doubling_time_series, forecast
from .growth import FitResult, fit_innovation, run_fit
from .ingest import builtin_table1, load_series, write_table
from .series import AnnualSeries
from .units import Unit

_VERSION_COMMENT = f"thermoecon {__version__}"

# printed end state of the built-in benchmark: 16.1 TW at 7.0 W per
# thousand dollars gives 2300 T$ of wealth returning 2.14 %/yr in 2009
_BUILTIN_SEED_YEAR = 2009
_BUILTIN_SEED_C0 = 2300.0  # 1000 * 16.1 / 7.0 at printed precision
_BUILTIN_SEED_ETA0 = 0.0214
_BUILTIN_SEED_LAMBDA0 = 7.0
_BUILTIN_LAMBDA0_CALIBRATION = 6.4  # printed ratio at 1970, anchors wealth

_SMOOTHING_WINDOW_YEARS = 10


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from argv."""

    out_dir: Path
    fmt: str = "csv"
    builtin: bool = False
    gdp_path: Path | None = None
    power_path: Path | None = None
    historical_gdp_path: Path | None = None
    window: tuple[int, int] | None = None
    lambda0: float | None = None
    eta0: float | None = None
    tau_eta: float | None = None
    horizon_years: int = 50
    index_1970: bool = False


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, end = text.split(":")
        window = (int(start), int(end))
    except ValueError:
        raise ConfigurationError(f"--window wants START:END, got {text!r}")
    if window[1] < window[0]:
        raise ConfigurationError(f"--window {text!r} ends before it starts")
    return window


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(out_dir=Path(args.out), fmt=args.format)
    cfg.builtin = getattr(args, "builtin_table1", False)
    for name in ("gdp", "power", "historical_gdp"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, f"{name}_path", Path(value))
    if getattr(args, "window", None) is not None:
        cfg.window = _parse_window(args.window)
    for name in ("lambda0", "eta0", "tau_eta"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, float(getattr(args, name)))
    if getattr(args, "horizon", None) is not None:
        cfg.horizon_years = int(args.horizon)
    cfg.index_1970 = getattr(args, "index_1970", False)
    return cfg


def _resolve_fit(cfg: RunConfig) -> FitResult:
    if cfg.builtin:
        t1 = builtin_table1()
        gdp, power = t1.gdp, t1.power
        lambda0 = cfg.lambda0 if cfg.lambda0 is not None else _BUILTIN_LAMBDA0_CALIBRATION
        historical = None
    else:
        if cfg.gdp_path is None or cfg.power_path is None:
            raise ConfigurationError(
                "provide --gdp and --power, or --builtin-table1"
            )
        gdp = load_series(cfg.gdp_path, Unit.GDP_TRILLION_USD2005_PER_YEAR)
        power = load_series(cfg.power_path, Unit.POWER_TERAWATT)
        historical = None
        if cfg.historical_gdp_path is not None:
            historical = load_series(
                cfg.historical_gdp_path, Unit.GDP_TRILLION_USD2005_PER_YEAR
            )
        lambda0 = cfg.lambda0
    return run_fit(
        gdp, power, window=cfg.window, lambda0=lambda0, historical_gdp=historical
    )


def _out_path(cfg: RunConfig, stem: str) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / f"{stem}.{cfg.fmt}"


def _series_columns(series: AnnualSeries) -> dict[int, float]:
    return {int(y): float(v) for y, v in zip(series.years, series.values)}


def cmd_fit(cfg: RunConfig) -> int:
    res = _resolve_fit(cfg)
    m = res.model
    grid = m.lambda_series.years
    path = write_table(
        _out_path(cfg, "lambda_series"),
        grid,
        {
            "lambda": m.lambda_series,
            "eta": m.eta_series,
            "f": m.f_series,
            "wealth": res.wealth.series,
        },
        {
            "lambda": Unit.WATTS_PER_THOUSAND_USD2005,
            "eta": Unit.PER_YEAR_FRACTION,
            "f": Unit.USD2005_PER_JOULE,
            "wealth": Unit.WEALTH_TRILLION_USD2005,
        },
        fmt=cfg.fmt,
        comments=[
            _VERSION_COMMENT,
            f"fit window {m.window[0]}:{m.window[1]}",
            f"wealth init {res.wealth.init_mode}, "
            f"C({res.wealth.init_year}) = {res.wealth.init_value:.12g}",
        ],
    )
    inn, dec = res.innovation, res.decomposition
    tau_text = "none (trend not positive)" if inn.tau_eta is None else f"{inn.tau_eta:.6g} yr"
    lines = [
        "fit summary",
        f"window: {m.window[0]}:{m.window[1]} ({len(grid)} annual points)",
        f"wealth init: {res.wealth.init_mode}, C({res.wealth.init_year}) = "
        f"{res.wealth.init_value:.12g} T$",
        f"lambda mean: {m.lambda_mean:.12g} W per thousand 2005 USD",
        f"lambda relative spread: {m.lambda_rel_std:.12g} ({m.lambda_rel_std * 100:.2f} %)",
        f"eta mean: {m.eta_mean:.12g} /yr ({m.eta_mean * 100:.2f} %/yr)",
        f"energy productivity mean: {m.f_mean:.12g} $/J",
        f"innovation rate: {inn.slope:.12g} /yr ({inn.slope * 100:.2f} %/yr)",
        f"ln(eta) fit residual rms: {inn.residual_rms:.12g}",
        f"eta e-folding time: {tau_text}",
        f"decomposition: {dec.eta_mean!r} + {dec.innovation_rate!r} = "
        f"{dec.predicted_growth!r}",
        f"predicted gdp growth: {dec.predicted_growth * 100:.2f} %/yr",
    ]
    summary_path = cfg.out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"wrote {path} and {summary_path}")
    return 0


def _resolve_scenario(cfg: RunConfig) -> Scenario:
    if cfg.builtin and cfg.gdp_path is None:
        start = _BUILTIN_SEED_YEAR
        c0 = _BUILTIN_SEED_C0
        eta0 = _BUILTIN_SEED_ETA0
        lambda0 = _BUILTIN_SEED_LAMBDA0
        default_tau = fit_innovation(builtin_table1().rate_of_return).tau_eta
    else:
        res = _resolve_fit(cfg)
        end = res.model.window[1]
        start = end
        c0 = float(res.wealth.value_at(end))
        eta0 = float(res.model.eta_series.value_at(end))
        lambda0 = float(res.model.lambda_series.value_at(end))
        default_tau = res.innovation.tau_eta
    if cfg.eta0 is not None:
        eta0 = cfg.eta0
    if cfg.tau_eta is None:
        tau = default_tau
    elif cfg.tau_eta == 0.0:
        tau = None  # 0 is the no-innovation sentinel on the command line
    else:
        tau = cfg.tau_eta
    return Scenario(
        c0=c0,
        eta0=eta0,
        lambda0=lambda0,
        start_year=start,
        horizon_years=cfg.horizon_years,
        tau_eta=tau,
    )


def cmd_forecast(cfg: RunConfig) -> int:
    scenario = _resolve_scenario(cfg)
    path_obj = forecast(scenario)
    tau_text = "none" if scenario.tau_eta is None else repr(scenario.tau_eta)
    out = write_table(
        _out_path(cfg, "forecast"),
        scenario.years,
        {
            "wealth": path_obj.wealth,
            "eta": path_obj.eta,
            "gdp": path_obj.gdp,
            "power": path_obj.power,
        },
        {
            "wealth": Unit.WEALTH_TRILLION_USD2005,
            "eta": Unit.PER_YEAR_FRACTION,
            "gdp": Unit.GDP_TRILLION_USD2005_PER_YEAR,
            "power": Unit.POWER_TERAWATT,
        },
        fmt=cfg.fmt,
        comments=[
            _VERSION_COMMENT,
            f"scenario: c0 = {scenario.c0!r} T$, eta0 = {scenario.eta0!r} /yr, "
            f"lambda0 = {scenario.lambda0!r} W/k$",
            f"tau_eta = {tau_text} yr, start {scenario.start_year}, "
            f"horizon {scenario.horizon_years} yr",
        ],
    )
    end = int(scenario.years[-1])
    print(
        f"forecast {scenario.start_year} to {end}: "
        f"wealth {path_obj.wealth.value_at(end):.6g} T$, "
        f"power {path_obj.power.value_at(end):.6g} TW, "
        f"eta {path_obj.eta.value_at(end) * 100:.2f} %/yr"
    )
    print(f"wrote {out}")
    return 0


def cmd_table1(cfg: RunConfig) -> int:
    t1 = builtin_table1()
    lambda0 = cfg.lambda0 if cfg.lambda0 is not None else _BUILTIN_LAMBDA0_CALIBRATION
    res = run_fit(t1.gdp, t1.power, lambda0=lambda0)
    years = [int(y) for y in t1.power.years]
    wealth = {y: float(res.wealth.value_at(y)) for y in years}
    ratio_computed = {y: 1000.0 * t1.power.value_at(y) / wealth[y] for y in years}
    ratio_printed = _series_columns(t1.power_over_wealth)
    # the printed ratio row defines its own implied wealth; reconstructing
    # the return column through it reproduces the printed rounding, the
    # trapezoid wealth does not quite
    implied_wealth = {
        y: 1000.0 * t1.power.value_at(y) / ratio_printed[y] for y in years
    }
    ror_computed = {y: 100.0 * t1.gdp.value_at(y) / implied_wealth[y] for y in years}
    ror_printed = {y: 100.0 * v for y, v in _series_columns(t1.rate_of_return).items()}
    columns = {
        "power": t1.power,
        "gdp": t1.gdp,
        "wealth": wealth,
        "ratio_computed": ratio_computed,
        "ratio_printed": ratio_printed,
        "ratio_deviation": {y: round(ratio_computed[y] - ratio_printed[y], 4) for y in years},
        "ror_computed": ror_computed,
        "ror_printed": ror_printed,
        "ror_deviation": {y: round(ror_computed[y] - ror_printed[y], 4) for y in years},
    }
    units = {
        "power": Unit.POWER_TERAWATT,
        "gdp": Unit.GDP_TRILLION_USD2005_PER_YEAR,
        "wealth": Unit.WEALTH_TRILLION_USD2005,
        "ratio_computed": Unit.WATTS_PER_THOUSAND_USD2005,
        "ratio_printed": Unit.WATTS_PER_THOUSAND_USD2005,
        "ratio_deviation": Unit.WATTS_PER_THOUSAND_USD2005,
        "ror_computed": "percent_per_year",
        "ror_printed": "percent_per_year",
        "ror_deviation": "percent_per_year",
    }
    if cfg.index_1970:
        base = wealth[1970]
        columns["wealth_indexed"] = {y: wealth[y] / base for y in years}
        units["wealth_indexed"] = Unit.DIMENSIONLESS
    comments = [
        _VERSION_COMMENT,
        "benchmark reconstruction on the nine reference years",
        f"wealth calibrated with lambda0 = {lambda0!r} W/k$ at 1970",
        "ror columns are percent per year; see the unit.* headers for scaling",
    ]
    out = write_table(
        _out_path(cfg, "table1_reconstruction"),
        years,
        columns,
        units,
        fmt=cfg.fmt,
        comments=comments,
    )
    max_ratio_dev = max(abs(ratio_computed[y] - ratio_printed[y]) for y in years)
    max_ror_dev = max(abs(ror_computed[y] - ror_printed[y]) for y in years)
    print(f"max |ratio deviation| = {max_ratio_dev:.4f} W/k$")
    print(f"max |ror deviation| = {max_ror_dev:.4f} %/yr")
    print(f"wrote {out}")
    return 0


def cmd_figure2(cfg: RunConfig) -> int:
    res = _resolve_fit(cfg)
    delta_c, delta_eta = doubling_time_series(
        res.model.eta_series, window_years=_SMOOTHING_WINDOW_YEARS
    )
    years = delta_c.years
    out = write_table(
        _out_path(cfg, "figure2_data"),
        years,
        {"delta_c_years": delta_c, "delta_eta_years": delta_eta},
        {"delta_c_years": Unit.YEARS, "delta_eta_years": Unit.YEARS},
        fmt=cfg.fmt,
        comments=[
            _VERSION_COMMENT,
            f"doubling times smoothed over {_SMOOTHING_WINDOW_YEARS} years",
            "empty delta_eta cells: smoothed eta trend not positive there",
        ],
    )
    print(
        f"wealth doubling time: {delta_c.values[0]:.1f} yr at {years[0]}, "
        f"{delta_c.values[-1]:.1f} yr at {years[-1]}"
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
    p_fc.add_argument("--eta0", type=float, metavar="F", help="initial rate of return, /yr")
    p_fc.add_argument(
        "--tau-eta",
        type=float,
        metavar="YEARS",
        help="innovation e-folding time; 0 switches innovation off",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return args.func(cfg)
    except (ThermoeconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
