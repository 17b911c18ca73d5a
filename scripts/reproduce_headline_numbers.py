"""Print the headline statistics of the built-in benchmark fit.

Run from anywhere after installing the package:

    python3 scripts/reproduce_headline_numbers.py
"""

import numpy as np

from thermoecon import builtin_table1, doubling_times, fit_innovation, run_fit


def main():
    t1 = builtin_table1()
    res = run_fit(t1.gdp, t1.power, lambda0=t1.calibration)
    m, inn = res.model, res.innovation

    print(f"annual-grid fit, 1970:2009, wealth calibrated at lambda0 = {t1.calibration}")
    print(f"  lambda mean            {m.lambda_mean:10.4f} W/k$")
    print(f"  lambda relative spread {m.lambda_rel_std * 100:10.2f} %")
    print(f"  eta mean               {m.eta_mean * 100:10.2f} %/yr")
    print(f"  energy productivity    {m.f_mean:10.3e} $/J")
    print(f"  innovation rate        {inn.slope * 100:10.2f} %/yr")
    print(f"  predicted gdp growth   {res.predicted_growth * 100:10.2f} %/yr")

    # the nine printed return values carry their own trend
    printed = fit_innovation(t1.rate_of_return)
    print(f"  printed-return trend   {printed.slope * 100:10.2f} %/yr "
          f"(rms {printed.residual_rms:.3f})")

    eta_now = t1.state_at(2009)[1]
    d_now = doubling_times(eta_now)
    d_slow = doubling_times(0.0035)
    print(f"  wealth doubling at {eta_now * 100:.2f} %/yr: {d_now.wealth_years:6.1f} yr")
    print(f"  wealth doubling at 0.35 %/yr: {d_slow.wealth_years:6.1f} yr")

    c = res.wealth
    print(f"  wealth 2005 -> 2009: {c.value_at(2005):8.1f} -> {c.value_at(2009):8.1f} T$ "
          f"(+{c.value_at(2009) - c.value_at(2005):.1f})")
    growth = np.log(t1.gdp.value_at(2009) / t1.gdp.value_at(1970)) / 39.0
    print(f"  table-endpoint gdp growth 1970:2009 {growth * 100:6.2f} %/yr")


if __name__ == "__main__":
    main()
