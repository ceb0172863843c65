"""Timing comparison of the jit compiled kernels against the numpy fallbacks,
plus the time of one quantile regression fan.

Run from the repository root after installing the package::

    python3 benchmarks/bench_kernels.py

Sizes mirror a realistic backtest day: a 3660 member pool of 4 variables
for the domination counts, two years of hourly fans for the pinball batch,
and the 101 point bid grid for the profit pools.  The fan is the 99 tau
quantile regression of one (variable, hour) on a 365 day window with the 21
price regressors.
"""

import time

import numpy as np

from splitcast import _kernels as K
from splitcast.quantreg import qr_fit_fan


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench(name, numba_fn, numpy_fn, args, repeats=5):
    if numba_fn is not None:
        numba_fn(*args)  # trigger compilation outside the timed region
        t_nb = _best_of(lambda: numba_fn(*args), repeats)
    else:
        t_nb = float("nan")
    t_np = _best_of(lambda: numpy_fn(*args), repeats)
    ratio = t_np / t_nb if t_nb == t_nb else float("nan")
    print(f"{name:18s}  numba {t_nb * 1e3:9.3f} ms   numpy {t_np * 1e3:9.3f} ms   "
          f"speedup x{ratio:.1f}")
    return t_nb, t_np


def main():
    rng = np.random.default_rng(0)
    print(f"numba available: {K.HAS_NUMBA}, active path: "
          f"{'numba' if K.USE_NUMBA else 'numpy'}")

    points = rng.normal(size=(3661, 4))
    _bench("preranks", K.preranks_numba, K.preranks_numpy,
           (np.ascontiguousarray(points),))

    fans = np.sort(rng.normal(size=(730 * 24, 99)), axis=1)
    ys = rng.normal(size=730 * 24)
    taus = np.round(np.arange(1, 100) / 100.0, 2)
    _bench("crps_fan_batch", K.crps_fan_batch_numba, K.crps_fan_batch_numpy,
           (fans, ys, taus))

    da = rng.normal(40.0, 15.0, size=3660)
    idp = rng.normal(40.0, 18.0, size=3660)
    w = np.abs(rng.normal(8.0, 3.0, size=3660))
    q_grid = np.round(np.arange(101) / 100.0, 2)
    _bench("profit_pools", K.profit_pools_numba, K.profit_pools_numpy,
           (da, idp, w, 8.0, q_grid, 10.0))

    X = rng.normal(size=(365, 21))
    X[:, 0] = 1.0
    y = X @ rng.normal(size=21) + 5.0 * rng.standard_t(3, size=365)
    t_qr = _best_of(lambda: qr_fit_fan(X, y), repeats=3)
    print(f"{'qr_fit_fan':18s}  one 99 tau fan, n=365, p=21: {t_qr * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
