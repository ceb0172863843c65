"""Rolling backtest over an hourly panel, producing deterministic reports.

For every evaluation day the preceding ``calibration_window_days`` days
form the training sample.  Per target day and hour the engine produces
point forecasts for all model kinds, quantile regression fans, historical
simulation ensembles and multiple split ensembles (jointly and per
variable), derives spread and residual load ensembles, scores everything
(coverage, Kupiec, CRPS, rank histograms) and simulates the bidding
strategies.  All randomness flows from one master seed through named
SeedSequence streams keyed by (seed, purpose, day, index), so results do
not depend on execution order and parallel runs reproduce serial ones.

Report files (CSV plus a text summary) are written with 6 significant
digits in a fixed order, making a rerun with the same seed byte identical.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from .config import config_echo_lines
from .ensembles import (
    derived_ensemble,
    historical_ensembles_for_day,
    interpolated_quantiles,
    ms_ensembles_for_day,
)
from .errors import ConfigError, SplitcastError
from .features import KINDS, MAX_LAG, MarketData, ModelSpec, design_rows, targets
from .models import expert_design, ols_fit
from .panel import DAILY_SERIES, FORECASTS, READ_SERIES, MarketPanel, load_panel
from .quantreg import TAU_GRID, qr_fan, qr_fit_fan, tail_column
from .scores import (
    crps_fan_matrix,
    interval_hits,
    multivariate_rank,
    reliability_index,
    score_fans,
    univariate_rank,
)
from .tables import COVERAGE_HEADER, CRPS_HEADER, format_cell, write_csv
from .trading import (
    Q_GRID_DEFAULT,
    choose_q,
    evaluate_strategy,
    naive_decision,
    profit_pools,
    relative_pct,
    stopping_rule,
)

# purpose tags for derived rng streams
_STREAM_MS_CORR = 1
_STREAM_MS_UNCORR = 2
_STREAM_MV_RANK = 3


def _stream(master_seed, purpose, *key):
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(purpose)) + tuple(int(k) for k in key)))


@dataclass(frozen=True)
class RunPlan:
    """Every output key of a validated configuration, named once, in report order."""

    point: tuple  # point forecast kinds
    methods: tuple  # fan methods as configured: qr, hist, ms_corr, ms_uncorr
    ensemble_methods: tuple  # the fan methods that draw members
    ensemble_variables: tuple  # the ensemble variables, then the derived series
    fans: tuple  # (method, variable): QR's own variables, the ensemble ones otherwise
    intervals: dict  # (method, variable, level) -> QR's lower tail column, None for members
    ranks: dict  # (method, variable) -> rank mode; variable ALL is the multivariate rank
    decisions: tuple  # (strategy, tau), then naive and limited; empty without trading
    trading_ensemble: str  # the method whose members the trading reads, or None

    def variables_of(self, method):
        """The variables of ``method``'s fans, in report order."""
        return tuple(v for m, v in self.fans if m == method)


def run_plan(cfg):
    """The :class:`RunPlan` of a validated configuration."""
    methods = tuple(label for m in cfg.methods if m != "point"
                    for label in ([f"ms_{mode}" for mode in cfg.ms_modes] if m == "ms" else [m]))
    ensemble_methods = tuple(m for m in methods if m != "qr")
    ensemble_variables = (*cfg.variables, *cfg.derived)
    fans = tuple((m, v) for m in methods
                 for v in (cfg.qr_variables if m == "qr" else ensemble_variables))
    # QR serves only the levels whose tails lie on its fan's 1% grid
    intervals = {(m, v, level): tail_column(level) if m == "qr" else None
                 for m, v in fans for level in cfg.interval_levels
                 if m != "qr" or tail_column(level) is not None}
    modes = {**dict.fromkeys(ensemble_variables, "univariate"),
             **({"ALL": "multivariate"} if cfg.mv_variables else {})}
    ranks = {(m, v): mode for m in ensemble_methods for v, mode in modes.items()}
    decisions, trading_ensemble = (), None
    if cfg.trading:
        decisions = (*((s, tau) for s in cfg.strategies for tau in cfg.stopping_taus),
                     ("naive", None), ("limited", None))
        trading_ensemble = "ms_corr" if cfg.trading_method == "ms" else "hist"
    return RunPlan(point=KINDS if "point" in cfg.methods else ("W",) if cfg.trading else (),
                   methods=methods, ensemble_methods=ensemble_methods,
                   ensemble_variables=ensemble_variables, fans=fans, intervals=intervals,
                   ranks=ranks, decisions=decisions, trading_ensemble=trading_ensemble)


def forecast_day(data, cfg, day_idx):
    """Every forecast of one target day, from the information set of its day
    ahead auction.

    Returns a dict of ``point`` (kind -> 24 values), ``fans`` ((method, variable) -> (24, 99)),
    ``intervals`` ((method, variable, level) -> (2, 24) lower and upper bounds),
    ``decisions`` ((strategy, tau) -> 24 TradeDecisions, empty without trading)
    and ``ensembles`` (method -> hour -> ForecastEnsemble), with the keys of
    :func:`run_plan` in its order.  It reads no realized value of the target
    day: :func:`score_day` does.
    """
    plan = run_plan(cfg)
    t0 = day_idx - cfg.calibration_window_days
    window = np.arange(t0, day_idx, dtype=np.intp)
    all_days = np.append(window, day_idx)
    hours = range(1, 25)
    # the limited benchmark, last, settles on the realized price: score_day adds it
    out = {"point": {}, "fans": dict.fromkeys(plan.fans),
           "intervals": dict.fromkeys(plan.intervals),
           "decisions": {key: [] for key in plan.decisions[:-1]}}

    for kind in plan.point:
        values = np.empty(24)
        for h in hours:
            X, y = expert_design(ModelSpec(kind, h), data, all_days)
            values[h - 1] = X[-1] @ ols_fit(X[:-1], y[:-1])
        out["point"][kind] = values

    for variable in plan.variables_of("qr"):
        # one stack of hours per regressor count: the edge hours of W have one fewer
        by_p = {}
        for h in hours:
            # the spread regression borrows the day ahead price regressor list
            X, _ = design_rows(ModelSpec("DA" if variable == "SP" else variable, h), data, all_days)
            by_p.setdefault(X.shape[1], []).append((h, X))
        fan_matrix = np.empty((24, 99))
        for group in by_p.values():
            hs = [h for h, _ in group]
            # stacked transposed, (hours, p, days): the solver works on these
            # rows and reads the window's view of them without a copy
            XT = np.array([X.T for _, X in group])
            group.clear()
            y = np.stack([targets(ModelSpec(variable, h), data, all_days) for h in hs])
            thetas = qr_fit_fan(XT[:, :, :-1].transpose(0, 2, 1), y[:, :-1])
            for h, th, row in zip(hs, thetas, XT[:, :, -1]):
                fan_matrix[h - 1] = qr_fan(th, row).values
        out["fans"][("qr", variable)] = fan_matrix

    ens_by_method = {}
    if "hist" in plan.ensemble_methods:
        ens_by_method["hist"] = historical_ensembles_for_day(
            data, cfg.variables, window, day_idx, hours, cfg.inner_window)
    # every ms mode from one pass over the designs
    modes = tuple(m[3:] for m in plan.ensemble_methods if m.startswith("ms_"))
    if modes:
        streams = [_stream(cfg.master_seed, _STREAM_MS_CORR, day_idx) if mode == "corr" else
                   [_stream(cfg.master_seed, _STREAM_MS_UNCORR, day_idx, vi)
                    for vi in range(len(cfg.variables))] for mode in modes]
        by_mode = ms_ensembles_for_day(data, cfg.variables, window, day_idx, hours,
                                       cfg.n_splits, cfg.split_ratio, streams, mode=modes)
        ens_by_method.update((f"ms_{mode}", by_mode[mode]) for mode in modes)
    ens_by_method = {method: ens_by_method[method] for method in plan.ensemble_methods}

    # the fan, then each interval level's (lo, 1 - lo), from one sort per member column
    tails = [(1.0 - level) / 2.0 for level in cfg.interval_levels]
    taus = np.concatenate([TAU_GRID, *([lo, 1.0 - lo] for lo in tails)])
    for method, by_hour in ens_by_method.items():
        quantiles = np.empty((24, len(plan.ensemble_variables), taus.size))
        for h in hours:
            quantiles[h - 1] = interpolated_quantiles(np.stack(_singles(plan, by_hour[h])), taus)
        for k, v in enumerate(plan.ensemble_variables):
            out["fans"][(method, v)] = quantiles[:, k, :99]
            for j, level in enumerate(cfg.interval_levels):
                out["intervals"][(method, v, level)] = quantiles[:, k, 99 + 2 * j:101 + 2 * j].T
    for key, i in plan.intervals.items():
        if i is not None:  # a QR interval: two columns of its fan
            fan = out["fans"][key[:2]]
            out["intervals"][key] = np.stack([fan[:, i], fan[:, 98 - i]])

    if plan.trading_ensemble:
        by_hour = ens_by_method[plan.trading_ensemble]
        w_hat = out["point"]["W"]
        q_grid = Q_GRID_DEFAULT
        decisions = out["decisions"]
        for h in hours:
            pools = profit_pools(by_hour[h], w_hat[h - 1], q_grid, cfg.c_om)
            # one sort per hour: every quantile of every strategy and tau reads it
            ordered = np.sort(pools, axis=1)
            for strategy in cfg.strategies:
                base = choose_q(strategy, pools, q_grid, cfg.var_level, ordered)
                j = int(round(base.q * (q_grid.size - 1)))
                for tau in cfg.stopping_taus:
                    decisions[(strategy, tau)].append(
                        stopping_rule(base, ordered[j], tau, presorted=True))
            decisions[("naive", None)].append(naive_decision("naive"))
    out["ensembles"] = ens_by_method
    return out


def _singles(plan, ens):
    """One hour's member column of each of the plan's ensemble variables."""
    return [ens.column(v) if v in ens.variables else derived_ensemble(ens, v).members[:, 0]
            for v in plan.ensemble_variables]


def score_day(data, cfg, day_idx, forecast):
    """Score :func:`forecast_day`'s ``forecast`` of ``day_idx`` against the
    day's realized values: the one place a backtest reads them.

    Returns a dict of ``realized`` (kind -> 24 values), ``point`` (the
    forecast's), ``crps`` ((method, variable) -> 24 CRPS values), ``hits``
    ((method, variable, level) -> 24 closed interval hits), ``ranks``
    ((method, variable) -> 24 ranks, ``ALL`` the multivariate ones) and
    ``decisions`` (the forecast's, with the ``limited`` benchmark last when
    trading), with the keys of :func:`run_plan` in its order.  It holds no
    fan and no member.
    """
    plan = run_plan(cfg)
    realized = {kind: data.hourly[kind][day_idx] for kind in KINDS}
    fans, intervals = forecast["fans"], forecast["intervals"]
    record = {"realized": realized, "point": forecast["point"],
              "crps": {key: crps_fan_matrix(fans[key], realized[key[1]]) for key in plan.fans},
              "hits": {key: interval_hits(*intervals[key], realized[key[1]])
                       for key in plan.intervals}}
    mv_idx = [cfg.variables.index(v) for v in cfg.mv_variables]
    mv_obs = np.array([realized[v] for v in cfg.mv_variables]).T  # (24, len(mv_idx))
    ranks = []
    for method in plan.ensemble_methods:
        by_hour = forecast["ensembles"][method]
        # a method's multivariate rank stream is numbered by its place in sorted order
        mv_rng = _stream(cfg.master_seed, _STREAM_MV_RANK, day_idx,
                         sorted(plan.ensemble_methods).index(method))
        by_key = np.empty((24, len(plan.ensemble_variables) + bool(mv_idx)))
        for h in range(1, 25):
            ens = by_hour[h]
            for k, (v, members) in enumerate(zip(plan.ensemble_variables, _singles(plan, ens))):
                by_key[h - 1, k] = univariate_rank(members, realized[v][h - 1])
            if mv_idx:
                by_key[h - 1, -1] = multivariate_rank(ens.members[:, mv_idx], mv_obs[h - 1], mv_rng)
        ranks.extend(by_key.T)  # the method's rank keys, in the plan's order
    record["ranks"] = dict(zip(plan.ranks, ranks, strict=True))
    record["decisions"] = dict(forecast["decisions"])
    if plan.decisions:
        record["decisions"][("limited", None)] = [naive_decision("limited", da)
                                                  for da in realized["DA"]]
    return record


# --------------------------------------------------------------------------
# the day driver

def _scored_day(data, cfg, day_idx):
    """The backtest's day task: the day's :func:`score_day` record, so that
    fans and members never leave the process that built them and at most one
    day's are held at a time."""
    return score_day(data, cfg, day_idx, forecast_day(data, cfg, day_idx))


# the (data, cfg, task) of a worker process, installed once by the pool
# initializer, so that it reaches workers under every start method (fork,
# spawn, forkserver)
_worker_inputs = None


def _init_worker(data, cfg, task):
    global _worker_inputs
    _worker_inputs = (data, cfg, task)


def _dated_day(data, cfg, task, day_idx):
    """``task(data, cfg, day_idx)``.  A package error raised in it is raised
    again, of the same class, with the day's date first: here, in the process
    that ran the day, so that the date survives a pool's pickling."""
    try:
        return task(data, cfg, day_idx)
    except SplitcastError as exc:
        raise type(exc)(f"{data.panel.dates[day_idx].isoformat()}: {exc}") from exc


def _pooled_day(day_idx):
    """A pool worker's day, on the inputs its initializer installed."""
    return _dated_day(*_worker_inputs, day_idx)


def _run_days(data, cfg, day_indices, task):
    """The one day driver: yields ``task(data, cfg, day)`` for each of
    ``day_indices``, in day order, over a pool of ``cfg.workers`` processes
    when both the workers and the days number more than one.  ``task`` must
    be a module level function (or a partial of one) so that it pickles."""
    if cfg.workers <= 1 or len(day_indices) < 2:
        for day_idx in day_indices:
            yield _dated_day(data, cfg, task, day_idx)
        return
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                             initargs=(data, cfg, task)) as pool:
        chunk = max(1, len(day_indices) // (4 * cfg.workers))
        yield from pool.map(_pooled_day, day_indices, chunksize=chunk)


# --------------------------------------------------------------------------
# aggregation and reports


@dataclass
class BacktestResult:
    output_dir: str
    files: dict
    coverage: dict
    crps: dict
    reliability: dict
    strategy: dict
    elapsed_seconds: float
    n_days: int


def evaluation_day_indices(panel, cfg):
    """The panel days from ``evaluation_start`` (default: the last
    ``evaluation_days``), each with a full calibration window of history."""
    n = panel.n_days
    if cfg.evaluation_start is not None:
        try:
            start = panel.day_index(cfg.evaluation_start)
        except KeyError:
            raise ConfigError(f"evaluation_start {cfg.evaluation_start} is not a day of the "
                              f"panel") from None
    else:
        start = n - cfg.evaluation_days
        if start < 0:
            raise ConfigError(f"evaluation_days = {cfg.evaluation_days} is more than the {n} "
                              f"days of the panel")
    end = start + cfg.evaluation_days
    if end > n:
        raise ConfigError(f"evaluation window [{start}, {end}) leaves the {n} day panel")
    need = cfg.calibration_window_days + MAX_LAG + 1
    if start < need:
        raise ConfigError(
            f"need calibration_window_days + {MAX_LAG + 1} = {need} days of "
            f"history before the first evaluation day, have {start}")
    return list(range(start, end))


def run_backtest(cfg, panel=None):
    """Run the full experiment and write the report bundle.

    ``panel`` may be passed directly; otherwise ``cfg.input_path`` is
    loaded.  Returns a :class:`BacktestResult` with every table in memory
    and the written file paths.
    """
    started = time.monotonic()
    cfg.validate()
    if panel is None:
        if not cfg.input_path:
            raise ConfigError("no panel given and no input_path configured")
        panel = load_panel(cfg.input_path, cfg.schema or None)
    plan = run_plan(cfg)
    data = MarketData.from_panel(panel)
    day_indices = evaluation_day_indices(data.panel, cfg)
    records = list(_run_days(data, cfg, day_indices, _scored_day))
    dates = [data.panel.dates[d].isoformat() for d in day_indices]

    def stacked(field, key):
        return np.stack([r[field][key] for r in records])

    os.makedirs(cfg.output_dir, exist_ok=True)
    files = {}

    # coverage and crps
    coverage, crps, coverage_rows, crps_rows = {}, {}, [], []
    for key in plan.fans:
        hits = {level: stacked("hits", (*key, level)) for level in cfg.interval_levels
                if (*key, level) in plan.intervals}
        reports, crps[key], cov_rows, fan_rows = score_fans(*key, stacked("crps", key), hits)
        coverage.update(((*key, level), rep) for level, rep in reports.items())
        coverage_rows += cov_rows
        crps_rows += fan_rows
    files["coverage"] = os.path.join(cfg.output_dir, "coverage.csv")
    write_csv(files["coverage"], COVERAGE_HEADER, coverage_rows)
    files["crps"] = os.path.join(cfg.output_dir, "crps.csv")
    write_csv(files["crps"], CRPS_HEADER, crps_rows)

    # reliability
    reliability = {}
    rows = []
    for (method, variable), mode in plan.ranks.items():
        report = reliability_index(stacked("ranks", (method, variable)), cfg.m_bins, mode=mode)
        reliability[(method, variable)] = report
        rows += [(method, variable, str(h + 1), report.delta_by_hour[h]) for h in range(24)]
        rows.append((method, variable, "all", report.delta))
    files["reliability"] = os.path.join(cfg.output_dir, "reliability.csv")
    write_csv(files["reliability"], ["method", "variable", "hour", "delta"], rows)

    # point forecasts
    if "point" in cfg.methods:
        rows = [(date, str(h + 1), kind, r["point"][kind][h], r["realized"][kind][h])
                for date, r in zip(dates, records) for kind in plan.point for h in range(24)]
        files["point_forecasts"] = os.path.join(cfg.output_dir, "point_forecasts.csv")
        write_csv(files["point_forecasts"],
                  ["date", "hour", "kind", "forecast", "realized"], rows)

    # trading
    strategy_tables = {}
    if plan.decisions:
        da, idp, w = (stacked("realized", v).reshape(-1) for v in ("DA", "ID", "W"))
        w_hat = stacked("point", "W").reshape(-1)
        streams = {key: [dec for r in records for dec in r["decisions"][key]]
                   for key in plan.decisions}
        strategy_tables = {key: evaluate_strategy(stream, da, idp, w, w_hat, cfg.c_om)
                           for key, stream in streams.items()}
        naive = strategy_tables[("naive", None)]
        slots = [(date, str(h + 1)) for date in dates for h in range(24)]
        rows, dec_rows = [], []
        for (strategy, tau), outcome in strategy_tables.items():
            rows.append((strategy, tau, outcome.trade_frequency, outcome.avg_profit,
                         outcome.profit_per_trade, outcome.var5,
                         relative_pct(outcome.avg_profit, naive.avg_profit),
                         relative_pct(outcome.profit_per_trade, naive.profit_per_trade)))
            dec_rows += [(*slot, strategy, tau, dec.q, dec.curtail, profit) for slot, dec, profit
                         in zip(slots, streams[(strategy, tau)], outcome.profits)]
        files["strategy"] = os.path.join(cfg.output_dir, "strategy.csv")
        write_csv(files["strategy"],
                  ["strategy", "tau", "trade_frequency", "avg_profit", "profit_per_trade",
                   "var5", "rel_avg_profit_pct", "rel_profit_per_trade_pct"],
                  rows)
        files["decisions"] = os.path.join(cfg.output_dir, "decisions.csv")
        write_csv(files["decisions"],
                  ["date", "hour", "strategy", "tau", "q", "curtail", "profit"], dec_rows)

    # config echo and summary
    files["run_config"] = os.path.join(cfg.output_dir, "run_config.cfg")
    with open(files["run_config"], "w") as fh:
        fh.write("# resolved configuration (paths omitted)\n")
        for line in config_echo_lines(cfg):
            fh.write(line + "\n")

    files["summary"] = os.path.join(cfg.output_dir, "summary.txt")
    _write_summary(files["summary"], cfg, plan, dates, coverage, crps, reliability,
                   strategy_tables)

    elapsed = time.monotonic() - started
    return BacktestResult(output_dir=cfg.output_dir, files=files, coverage=coverage,
                          crps=crps, reliability=reliability, strategy=strategy_tables,
                          elapsed_seconds=elapsed, n_days=len(records))


def _write_summary(path, cfg, plan, dates, coverage, crps, reliability, strategy_tables):
    lines = []
    lines.append(f"evaluation days: {len(dates)}  ({dates[0]} .. {dates[-1]})")
    lines.append(f"calibration window: {cfg.calibration_window_days} days, "
                 f"splits: {cfg.n_splits}, ratio: {format_cell(cfg.split_ratio)}")
    lines.append("")
    width = 10

    def row(cells):
        return "  ".join(str(c).rjust(width) for c in cells)

    def cells(table, keys, value):
        """The formatted ``value`` of each key's entry, "-" where there is none."""
        return ["-" if table.get(key) is None else format_cell(value(table[key])) for key in keys]

    lines.append("interval coverage, mean over hours (PICP, percent)")
    for method in plan.methods:
        supported = plan.variables_of(method)
        lines.append(f"[{method}]")
        lines.append(row(["level"] + list(supported)))
        for level in cfg.interval_levels:
            lines.append(row([f"{level * 100:.0f}%", *cells(
                coverage, [(method, v, level) for v in supported], lambda r: r.picp * 100.0)]))
        kupiec = []
        for v in supported:
            rates = [coverage[(method, v, level)].pass_rate
                     for level in cfg.interval_levels if (method, v, level) in coverage]
            kupiec.append(format_cell(100.0 * np.mean(rates)) if rates else "-")
        lines.append(row(["kupiec%"] + kupiec))
        lines.append("")

    lines.append("CRPS, mean over evaluation period")
    lines.append(row(["method"] + list(plan.ensemble_variables)))
    for method in plan.methods:
        lines.append(row([method, *cells(crps, [(method, v) for v in plan.ensemble_variables],
                                         lambda entry: entry["overall"])]))
    lines.append("")

    if plan.ensemble_methods:
        lines.append(f"reliability index (m_bins = {cfg.m_bins})")
        lines.append(row(["method"] + list(plan.ensemble_variables) + ["ALL"]))
        for method in plan.ensemble_methods:
            keys = [(method, v) for v in (*plan.ensemble_variables, "ALL")]
            lines.append(row([method, *cells(reliability, keys, lambda r: r.delta)]))
        lines.append("")

    if strategy_tables:
        lines.append("bidding strategies, realized profit per MWh")
        lines.append(row(["strategy", "tau", "freq%", "avg", "per_trade", "var5"]))
        for (strategy, tau), outcome in strategy_tables.items():
            lines.append(row([
                strategy, "-" if tau is None else format_cell(tau),
                format_cell(outcome.trade_frequency * 100.0), format_cell(outcome.avg_profit),
                format_cell(outcome.profit_per_trade), format_cell(outcome.var5)]))
        lines.append("")

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# no look ahead audit


def _forecast_signature(forecast):
    sig = {(key, name): np.asarray(arr).copy()
           for key in ("point", "fans", "intervals") for name, arr in forecast[key].items()}
    for key, decs in forecast["decisions"].items():
        sig[("decisions", key)] = [(d.q, d.curtail) for d in decs]
    return sig


def corrupt_after_cutoff(panel, day_idx, garbage=9.9e9):
    """Overwrite everything a forecast for ``day_idx`` may not read.

    Every realized series and fuel price from the target day on, and the
    TSO forecasts from the day after.  Target day forecasts stay (they are
    published before the forecasts are made), as do all realizations up to
    and including the preceding day: those enter the training sample.  The
    separate restriction on the preceding day's post 10:00 values applies
    to the target's regressors and is enforced by the stand in series,
    checked directly in the information set tests.
    """
    hourly = {name: panel.hourly[name].copy() for name in READ_SERIES}
    daily = {name: panel.daily[name].copy() for name in DAILY_SERIES}
    for name, series in hourly.items():
        series[day_idx + 1 if name in FORECASTS else day_idx:] = garbage
    for series in daily.values():
        series[day_idx:] = garbage
    return MarketPanel(dates=panel.dates, hourly=hourly, daily=daily)


def leakage_check(panel, cfg, target_date):
    """Forecasts for a target must not change when future data is wrecked.

    Runs the per day engine twice, once on the panel and once with every
    cell outside the information set overwritten by garbage, and compares
    all point forecasts, fans, interval bounds and trading decisions.
    Returns a dict of maximal absolute differences per artifact (all zero
    when no look ahead exists).
    """
    cfg.validate()
    data = MarketData.from_panel(panel)
    day_idx = data.panel.day_index(target_date)
    sig_a = _forecast_signature(forecast_day(data, cfg, day_idx))
    wrecked = MarketData.from_panel(corrupt_after_cutoff(data.panel, day_idx))
    sig_b = _forecast_signature(forecast_day(wrecked, cfg, day_idx))
    diffs = {}
    for key in sig_a:
        a, b = sig_a[key], sig_b[key]
        if isinstance(a, list):
            diffs[key] = 0.0 if a == b else 1.0
        else:
            diffs[key] = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diffs
