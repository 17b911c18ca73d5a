"""Sensitivity of the forward trajectory to innovation and efficiency.

Two sweeps from the 2009 benchmark state (2300 T$ at 2.14 %/yr, 7 W/k$):
the innovation e-folding time tau, and the energy productivity f with the
power/wealth ratio held fixed. The second sweep is the backfire result in
miniature: every efficiency gain raises the power trajectory.
"""

import argparse

from thermoecon import Scenario, builtin_table1, eta_from_productivity, forecast

# the last printed row of the built-in table seeds both sweeps
TABLE1 = builtin_table1()
START = TABLE1.power.last_year
C0, ETA0, LAMBDA0 = TABLE1.state_at(START)


def sweep_tau(horizon):
    print(f"tau sweep, horizon {horizon} yr (tau in years, none = frozen eta)")
    print("  tau      wealth/TW at end        eta at end")
    for tau in (None, 500.0, 200.0, 107.5, 87.6, 50.0):
        s = Scenario(
            c0=C0, eta0=ETA0, lambda0=LAMBDA0, start_year=START,
            horizon_years=horizon, tau_eta=tau,
        )
        p = forecast(s)
        end = START + horizon
        label = "none" if tau is None else f"{tau:.1f}"
        print(
            f"  {label:>6}  {p.wealth.value_at(end):10.1f} T$ "
            f"{p.power.value_at(end):8.2f} TW  {p.eta.value_at(end) * 100:6.2f} %/yr"
        )


def sweep_productivity(horizon):
    print(f"\nenergy productivity sweep at fixed lambda, horizon {horizon} yr")
    print("  f ($/J)      implied eta0    power at end")
    for scale in (0.6, 0.8, 1.0, 1.2, 1.5, 2.0):
        f = 8.3e-8 * scale
        eta0 = eta_from_productivity(LAMBDA0, f)
        s = Scenario(
            c0=C0, eta0=eta0, lambda0=LAMBDA0, start_year=START,
            horizon_years=horizon, tau_eta=100.0,
        )
        p = forecast(s)
        print(
            f"  {f:10.2e}  {eta0 * 100:8.2f} %/yr "
            f"{p.power.value_at(START + horizon):10.2f} TW"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=50)
    args = ap.parse_args()
    sweep_tau(args.horizon)
    sweep_productivity(args.horizon)


if __name__ == "__main__":
    main()
