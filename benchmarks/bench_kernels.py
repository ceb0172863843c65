"""Best-of-N timings of the numpy kernels and of quantile regression fans.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Sizes mirror backtest days.  The domination counts (``scores.preranks``,
packed prefix bitsets) run on pool + observation of 4 variables at 184
points (a historical simulation pool), at 1,261 points (the 1,260 member
pool of the ``paper_ensembles`` benchmark workload), the same rounded to
one decimal (ties in every component) and at 3,661 points (the paper's 20
splits x 183 days).  ``scores.crps_fan_matrix`` scores two years of hourly
fans, ``trading.profit_pools`` prices 3,660 members on the 101 point bid
grid, and the fan is the 99 tau quantile regression of one (variable,
hour) on a 365 day window with the 21 price regressors, alone and in a
stack of 24 such designs (one day's 24 hours, solved in one call) with its
time per fan.
The point set is the 168 point fits of a default day (7 kinds x 24 hours
on a 365 day window of a synthetic panel), one ``np.linalg.lstsq`` per
(kind, hour) as the per-fit reference, against one ``ols_fit`` per stack of
hours that share a row length, as ``backtest.forecast_day`` makes them.
The historical simulation set is the 184 least squares fits of one
(variable, hour) on a default day: 183 inner windows of 182 days and the
final window, in a 365 day sample with 21 regressors, fitted one by one
with ``np.linalg.lstsq`` and batched with ``window_fits``; the stacked set
is those fits for one variable's 24 hours, at 21 and at 5 regressors, taken
in the hour blocks that the ensemble builders use, with its time per hour.  The
multiple split set is the 20 split fits of each of those 24 hours, each on
182 random estimation days of the 365 (``ols_fits``), in the builders' hour
blocks, with its time per hour.  The trading hour prices 3,660 members
and picks the ``epi``, ``var`` and ``sr`` bids with 5 stopping taus each,
as the backtest does for one hour: one sort of the pools serves every
quantile.  The panel load reads a 381
day synthetic panel CSV, written by ``write_panel`` with its RES columns,
and builds its ``MarketData``.  The cold imports are the median of 7 fresh
interpreters importing ``splitcast`` alone and the modules each command
loads, timed inside the interpreter from the import statement on; unless
the bytecode is cached (``__pycache__``), this includes compiling the
sources, so run with ``PYTHONDONTWRITEBYTECODE=1`` and no cache for the
uncached times.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time

import datetime as dt

import numpy as np

from splitcast.ensembles import ForecastEnsemble, _hours_per_block, design_blocks
from splitcast.features import KINDS, MarketData
from splitcast.models import ols_fit, ols_fits, window_fits
from splitcast.panel import SyntheticConfig, generate_synthetic_panel, load_panel, write_panel
from splitcast.quantreg import qr_fit_fan
from splitcast.scores import crps_fan_matrix, preranks
from splitcast.trading import STRATEGIES, choose_q, profit_pools, stopping_rule


# what each command imports: ``splitcast.cli`` and the modules its handler loads
COMMAND_IMPORTS = {
    "import splitcast": "splitcast",
    "report": "splitcast.cli, splitcast.tables",
    "validate": "splitcast.cli, splitcast.panel",
    "evaluate": "splitcast.cli, splitcast.config, splitcast.features, splitcast.panel, "
                "splitcast.quantreg, splitcast.scores, splitcast.tables",
    "backtest, forecast": "splitcast.cli, splitcast.backtest, splitcast.config",
}


def _cold_import(modules, repeats=7):
    """Median seconds of ``import modules`` in a fresh interpreter."""
    code = f"import time; t0 = time.perf_counter(); import {modules}; print(time.perf_counter() - t0)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(repeats))


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _report(name, size, fn, repeats=7, fans=None, unit="fan"):
    t = _best_of(fn, repeats)
    per_fan = "" if fans is None else f"  {t * 1e3 / fans:7.3f} ms per {unit}"
    print(f"{name:15s} {size:28s} {t * 1e3:9.3f} ms{per_fan}")


def _stacked_fits(X, y, inner):
    """The window fits of every hour of ``X`` (hours, n, p), in the ensembles' hour blocks."""
    size = _hours_per_block(X.shape[1], X.shape[2], X.shape[1] - inner + 1)
    return [window_fits(X[s:s + size], y[s:s + size], inner) for s in range(0, len(X), size)]


def _split_fits(X, y, rows):
    """The split fits of every hour of ``X`` (hours, n, p) on the estimation
    rows ``rows`` (splits, k), in the ensembles' hour blocks."""
    size = _hours_per_block(X.shape[1], X.shape[2], len(rows), rows.shape[1])
    return [ols_fits(X[s:s + size], y[s:s + size], rows) for s in range(0, len(X), size)]


def _trading_hour(ens, w_hat, q_grid, taus):
    """One hour's bids as the backtest makes them: the pools sorted once."""
    pools = profit_pools(ens, w_hat, q_grid, 10.0)
    ordered = np.sort(pools, axis=1)
    for strategy in STRATEGIES:
        base = choose_q(strategy, pools, q_grid, 0.05, ordered)
        j = int(round(base.q * (q_grid.size - 1)))
        for tau in taus:
            stopping_rule(base, ordered[j], tau, presorted=True)


def main():
    for command, modules in COMMAND_IMPORTS.items():
        t = _cold_import(modules)
        print(f"{'cold import':15s} {command:28s} {t * 1e3:9.3f} ms  median of 7")

    rng = np.random.default_rng(0)
    for m1, decimals in ((184, None), (1261, None), (1261, 1), (3661, None)):
        points = rng.normal(size=(m1, 4))
        size = f"{m1} x 4 points"
        if decimals is not None:
            points = np.round(points, decimals)
            size += f", {decimals} decimal"
        _report("preranks", size, lambda: preranks(points), repeats=30)

    fans = np.sort(rng.normal(size=(730 * 24, 99)), axis=1)
    ys = rng.normal(size=730 * 24)
    taus = np.round(np.arange(1, 100) / 100.0, 2)
    _report("crps_fan_matrix", f"{730 * 24} fans x 99 taus",
            lambda: crps_fan_matrix(fans, ys, taus))

    da = rng.normal(40.0, 15.0, size=3660)
    idp = rng.normal(40.0, 18.0, size=3660)
    w = np.abs(rng.normal(8.0, 3.0, size=3660))
    q_grid = np.round(np.arange(101) / 100.0, 2)
    ens = ForecastEnsemble(variables=("DA", "ID", "W"), members=np.column_stack([da, idp, w]),
                           target_date=dt.date(2021, 1, 1), hour=12, meta={})
    _report("profit_pools", "3660 members x 101 q",
            lambda: profit_pools(ens, 8.0, q_grid, 10.0))
    taus = (0.05, 0.3, 0.5, 0.7, 0.95)
    _report("trading hour", "3660 members, 3 x 5 taus",
            lambda: _trading_hour(ens, 8.0, q_grid, taus))

    X = rng.normal(size=(365, 21))
    X[:, 0] = 1.0
    y = X @ rng.normal(size=21) + 5.0 * rng.standard_t(3, size=365)
    _report("qr_fit_fan", "99 taus, n=365, p=21", lambda: qr_fit_fan(X, y), repeats=3, fans=1)
    Xs = rng.normal(size=(24, 365, 21))
    Xs[:, :, 0] = 1.0
    ys = np.einsum("fnp,fp->fn", Xs, rng.normal(size=(24, 21))) + 5.0 * rng.standard_t(3, (24, 365))
    _report("qr_fit_fan", "24 x 99 taus, n=365, p=21", lambda: qr_fit_fan(Xs, ys), repeats=3,
            fans=24)

    data = MarketData.from_panel(generate_synthetic_panel(SyntheticConfig(days=381), seed=1))
    window = np.arange(380 - 365, 380)
    stacks = [(Xb[:, :-1], yb[:, :-1]) for _, _, Xb, yb in
              design_blocks(data, KINDS, window, 380, range(1, 25), window.size)]
    _report("point lstsq", "168 fits, n=365",
            lambda: [np.linalg.lstsq(Xh, yh, rcond=None)[0] for Xs, ys in stacks
                     for Xh, yh in zip(Xs, ys)])
    _report("point ols_fit", f"{len(stacks)} stacks of 168 fits, n=365",
            lambda: [ols_fit(Xs, ys) for Xs, ys in stacks])

    inner = 182
    _report("hist lstsq", "184 windows, n=365, p=21",
            lambda: [np.linalg.lstsq(X[j:j + inner], y[j:j + inner], rcond=None)[0]
                     for j in range(365 - inner + 1)])
    _report("hist windows", "184 windows, n=365, p=21",
            lambda: window_fits(X[None], y[None], inner))
    for p in (21, 5):
        Xs = rng.normal(size=(24, 365, p))
        Xs[:, :, 0] = 1.0
        ys = np.einsum("hnp,hp->hn", Xs, rng.normal(size=(24, p))) + rng.normal(size=(24, 365))
        _report("hist windows", f"24 x 184 windows, n=365, p={p}",
                lambda: _stacked_fits(Xs, ys, inner), repeats=5, fans=24, unit="hour")
        rows = np.sort([rng.permutation(365)[:182] for _ in range(20)], axis=1)
        _report("ms splits", f"24 x 20 splits, n=365, p={p}",
                lambda: _split_fits(Xs, ys, rows), repeats=5, fans=24, unit="hour")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_panel(generate_synthetic_panel(SyntheticConfig(days=381), seed=1), path)
        _report("load_panel", "381 days, + from_panel",
                lambda: MarketData.from_panel(load_panel(path)), repeats=5)


if __name__ == "__main__":
    main()
