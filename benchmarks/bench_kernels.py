"""Best-of-N timings of the numpy kernels and of one quantile regression fan.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Sizes mirror backtest days.  The domination counts run on pool +
observation of 4 variables at 1,261 points (the 1,260 member pool of the
``paper_ensembles`` benchmark workload) and at 3,661 points (the paper's
20 splits x 183 days).  The pinball batch scores two years of hourly fans,
the profit pools price 3,660 members on the 101 point bid grid, and the fan
is the 99 tau quantile regression of one (variable, hour) on a 365 day
window with the 21 price regressors.
"""

import time

import numpy as np

from splitcast import _kernels as K
from splitcast.quantreg import qr_fit_fan


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _report(name, size, fn, repeats=7):
    t = _best_of(fn, repeats)
    print(f"{name:15s} {size:28s} {t * 1e3:9.3f} ms")


def main():
    rng = np.random.default_rng(0)
    for m1 in (1261, 3661):
        points = rng.normal(size=(m1, 4))
        _report("preranks", f"{m1} x 4 points", lambda: K.preranks(points))

    fans = np.sort(rng.normal(size=(730 * 24, 99)), axis=1)
    ys = rng.normal(size=730 * 24)
    taus = np.round(np.arange(1, 100) / 100.0, 2)
    _report("crps_fan_batch", f"{730 * 24} fans x 99 taus",
            lambda: K.crps_fan_batch(fans, ys, taus))

    da = rng.normal(40.0, 15.0, size=3660)
    idp = rng.normal(40.0, 18.0, size=3660)
    w = np.abs(rng.normal(8.0, 3.0, size=3660))
    q_grid = np.round(np.arange(101) / 100.0, 2)
    _report("profit_pools", "3660 members x 101 q",
            lambda: K.profit_pools(da, idp, w, 8.0, q_grid, 10.0))

    X = rng.normal(size=(365, 21))
    X[:, 0] = 1.0
    y = X @ rng.normal(size=21) + 5.0 * rng.standard_t(3, size=365)
    _report("qr_fit_fan", "99 taus, n=365, p=21", lambda: qr_fit_fan(X, y), repeats=3)


if __name__ == "__main__":
    main()
