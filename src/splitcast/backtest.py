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
from .errors import ConfigError
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


def method_labels(cfg):
    labels = []
    for m in cfg.methods:
        if m == "ms":
            labels.extend(f"ms_{mode}" for mode in cfg.ms_modes)
        elif m in ("qr", "hist"):
            labels.append(m)
    return labels


def ensemble_method_labels(cfg):
    return [m for m in method_labels(cfg) if m != "qr"]


def _qr_design_kind(variable):
    # the spread regression borrows the day ahead price regressor list
    return "DA" if variable == "SP" else variable


def forecast_day(data, cfg, day_idx):
    """Every forecast of one target day, from the information set of its day
    ahead auction.

    Returns a dict of ``point`` (kind -> 24 values), ``fans`` ((method, variable) -> (24, 99)),
    ``intervals`` ((method, variable, level) -> (2, 24) lower and upper bounds),
    ``decisions`` ((strategy, tau) -> 24 TradeDecisions, empty without trading)
    and ``ensembles`` (method -> hour -> ForecastEnsemble).  It reads no
    realized value of the target day: :func:`score_day` does.
    """
    t0 = day_idx - cfg.calibration_window_days
    window = np.arange(t0, day_idx, dtype=np.intp)
    all_days = np.append(window, day_idx)
    hours = range(1, 25)
    out = {"point": {}, "fans": {}, "intervals": {}, "decisions": {}}

    need_point = "point" in cfg.methods or cfg.trading
    point_kinds = KINDS if "point" in cfg.methods else ("W",)
    if need_point:
        for kind in point_kinds:
            values = np.empty(24)
            for h in hours:
                X, y = expert_design(ModelSpec(kind, h), data, all_days)
                values[h - 1] = X[-1] @ ols_fit(X[:-1], y[:-1])
            out["point"][kind] = values

    if "qr" in cfg.methods:
        for variable in cfg.qr_variables:
            # one stack of hours per regressor count: the edge hours of W have one fewer
            by_p = {}
            for h in hours:
                X, _ = design_rows(ModelSpec(_qr_design_kind(variable), h), data, all_days)
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
            for level in cfg.interval_levels:
                i = tail_column(level)
                if i is None:
                    continue  # tails off the percentile grid: QR cannot serve this level
                out["intervals"][("qr", variable, level)] = np.stack(
                    [fan_matrix[:, i], fan_matrix[:, 98 - i]])

    ens_by_method = {}
    if "hist" in cfg.methods:
        ens_by_method["hist"] = historical_ensembles_for_day(
            data, cfg.variables, window, day_idx, hours, cfg.inner_window)
    if "ms" in cfg.methods:
        if "corr" in cfg.ms_modes:
            rng = _stream(cfg.master_seed, _STREAM_MS_CORR, day_idx)
            ens_by_method["ms_corr"] = ms_ensembles_for_day(
                data, cfg.variables, window, day_idx, hours,
                cfg.n_splits, cfg.split_ratio, rng, mode="corr")
        if "uncorr" in cfg.ms_modes:
            rngs = [_stream(cfg.master_seed, _STREAM_MS_UNCORR, day_idx, vi)
                    for vi in range(len(cfg.variables))]
            ens_by_method["ms_uncorr"] = ms_ensembles_for_day(
                data, cfg.variables, window, day_idx, hours,
                cfg.n_splits, cfg.split_ratio, rngs, mode="uncorr")

    # the fan, then each interval level's (lo, 1 - lo), from one sort per member column
    tails = [(1.0 - level) / 2.0 for level in cfg.interval_levels]
    taus = np.concatenate([TAU_GRID, *([lo, 1.0 - lo] for lo in tails)])
    for method, by_hour in sorted(ens_by_method.items()):
        fans = {v: np.empty((24, 99)) for v in (*cfg.variables, *cfg.derived)}
        bounds = {(v, level): np.empty((2, 24)) for v in fans for level in cfg.interval_levels}
        for h in hours:
            quantiles = interpolated_quantiles(np.stack(_singles(cfg, by_hour[h])), taus)
            for v, qs in zip(fans, quantiles):
                fans[v][h - 1] = qs[:99]
                for k, level in enumerate(cfg.interval_levels):
                    bounds[(v, level)][:, h - 1] = qs[99 + 2 * k:101 + 2 * k]
        for v in fans:
            out["fans"][(method, v)] = fans[v]
            for level in cfg.interval_levels:
                out["intervals"][(method, v, level)] = bounds[(v, level)]

    if cfg.trading:
        method = "ms_corr" if cfg.trading_method == "ms" else "hist"
        by_hour = ens_by_method[method]
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
                    dec = stopping_rule(base, ordered[j], tau, presorted=True)
                    decisions.setdefault((strategy, tau), []).append(dec)
            decisions.setdefault(("naive", None), []).append(naive_decision("naive"))
    out["ensembles"] = ens_by_method
    return out


def _singles(cfg, ens):
    """One hour's member columns of the variables, then of the derived series."""
    return ([ens.column(v) for v in cfg.variables]
            + [derived_ensemble(ens, name).members[:, 0] for name in cfg.derived])


def score_day(data, cfg, day_idx, forecast):
    """Score :func:`forecast_day`'s ``forecast`` of ``day_idx`` against the
    day's realized values: the one place a backtest reads them.

    Returns a dict of ``realized`` (kind -> 24 values), ``point`` (the
    forecast's), ``crps`` ((method, variable) -> 24 CRPS values), ``hits``
    ((method, variable, level) -> 24 closed interval hits), ``uranks``
    ((method, variable) -> 24 univariate ranks), ``mvranks`` (method -> 24
    multivariate ranks) and ``decisions`` (the forecast's, with the
    ``limited`` benchmark last when trading).  It holds no fan and no member.
    """
    realized = {kind: data.hourly[kind][day_idx] for kind in KINDS}
    record = {"realized": realized, "point": forecast["point"], "uranks": {}, "mvranks": {},
              "crps": {key: crps_fan_matrix(fan, realized[key[1]])
                       for key, fan in forecast["fans"].items()},
              "hits": {key: interval_hits(lower, upper, realized[key[1]])
                       for key, (lower, upper) in forecast["intervals"].items()}}
    names = (*cfg.variables, *cfg.derived)
    mv_idx = [cfg.variables.index(v) for v in cfg.mv_variables]
    mv_obs = np.array([realized[v] for v in cfg.mv_variables]).T  # (24, len(mv_idx))
    for mi, (method, by_hour) in enumerate(sorted(forecast["ensembles"].items())):
        mv_rng = _stream(cfg.master_seed, _STREAM_MV_RANK, day_idx, mi)
        uranks, mvranks = np.empty((len(names), 24)), np.empty(24)
        for h in range(1, 25):
            ens = by_hour[h]
            for k, (v, members) in enumerate(zip(names, _singles(cfg, ens))):
                uranks[k, h - 1] = univariate_rank(members, realized[v][h - 1])
            if mv_idx:
                mvranks[h - 1] = multivariate_rank(ens.members[:, mv_idx], mv_obs[h - 1], mv_rng)
        record["uranks"].update(((method, v), ranks) for v, ranks in zip(names, uranks))
        if mv_idx:
            record["mvranks"][method] = mvranks
    record["decisions"] = dict(forecast["decisions"])
    if cfg.trading:
        record["decisions"][("limited", None)] = [naive_decision("limited", da)
                                                  for da in realized["DA"]]
    return record


# --------------------------------------------------------------------------
# parallel driver

# the (data, cfg) of a worker process, installed once by the pool initializer,
# so that it reaches workers under every start method (fork, spawn, forkserver)
_worker_inputs = None


def _init_worker(data, cfg):
    global _worker_inputs
    _worker_inputs = (data, cfg)


def _day_task(day_idx, data=None, cfg=None):
    """A day's :func:`score_day` record (in a pool worker, on the
    initializer's inputs), so that fans and members never leave the process
    that built them and at most one day's are held at a time."""
    if data is None:
        data, cfg = _worker_inputs
    return score_day(data, cfg, day_idx, forecast_day(data, cfg, day_idx))


def _run_days(data, cfg, day_indices):
    if cfg.workers <= 1 or len(day_indices) < 2:
        return [_day_task(d, data, cfg) for d in day_indices]
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                             initargs=(data, cfg)) as pool:
        chunk = max(1, len(day_indices) // (4 * cfg.workers))
        return list(pool.map(_day_task, day_indices, chunksize=chunk))


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
    n = panel.n_days
    if cfg.evaluation_start is not None:
        start = panel.day_index(cfg.evaluation_start)
    else:
        start = n - cfg.evaluation_days
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
    data = MarketData.from_panel(panel)
    day_indices = evaluation_day_indices(data.panel, cfg)
    records = _run_days(data, cfg, day_indices)
    dates = [data.panel.dates[d].isoformat() for d in day_indices]

    def stacked(field, key):
        return np.stack([r[field][key] for r in records])

    os.makedirs(cfg.output_dir, exist_ok=True)
    files = {}
    eval_vars = tuple(cfg.variables) + tuple(cfg.derived)

    # coverage and crps
    coverage, crps, coverage_rows, crps_rows = {}, {}, [], []
    for method in method_labels(cfg):
        for variable in cfg.qr_variables if method == "qr" else eval_vars:
            hits = {level: stacked("hits", (method, variable, level))
                    for level in cfg.interval_levels
                    if (method, variable, level) in records[0]["hits"]}
            reports, crps[(method, variable)], cov_rows, fan_rows = score_fans(
                method, variable, stacked("crps", (method, variable)), hits)
            coverage.update(((method, variable, level), rep) for level, rep in reports.items())
            coverage_rows += cov_rows
            crps_rows += fan_rows
    files["coverage"] = os.path.join(cfg.output_dir, "coverage.csv")
    write_csv(files["coverage"], COVERAGE_HEADER, coverage_rows)
    files["crps"] = os.path.join(cfg.output_dir, "crps.csv")
    write_csv(files["crps"], CRPS_HEADER, crps_rows)

    # reliability
    reliability = {}
    rows = []
    for method in ensemble_method_labels(cfg):
        ranked = [(v, "univariate", stacked("uranks", (method, v))) for v in eval_vars]
        if cfg.mv_variables:
            ranked.append(("ALL", "multivariate", stacked("mvranks", method)))
        for variable, mode, ranks in ranked:
            report = reliability_index(ranks, cfg.m_bins, mode=mode)
            reliability[(method, variable)] = report
            rows += [(method, variable, str(h + 1), report.delta_by_hour[h]) for h in range(24)]
            rows.append((method, variable, "all", report.delta))
    files["reliability"] = os.path.join(cfg.output_dir, "reliability.csv")
    write_csv(files["reliability"], ["method", "variable", "hour", "delta"], rows)

    # point forecasts
    if "point" in cfg.methods:
        rows = [(date, str(h + 1), kind, r["point"][kind][h], r["realized"][kind][h])
                for date, r in zip(dates, records) for kind in KINDS for h in range(24)]
        files["point_forecasts"] = os.path.join(cfg.output_dir, "point_forecasts.csv")
        write_csv(files["point_forecasts"],
                  ["date", "hour", "kind", "forecast", "realized"], rows)

    # trading
    strategy_tables = {}
    if cfg.trading:
        da, idp, w = (stacked("realized", v).reshape(-1) for v in ("DA", "ID", "W"))
        w_hat = stacked("point", "W").reshape(-1)
        decision_keys = list(records[0]["decisions"].keys())
        outcomes = {}
        for key in decision_keys:
            stream = [dec for r in records for dec in r["decisions"][key]]
            outcomes[key] = evaluate_strategy(stream, da, idp, w, w_hat, cfg.c_om)
        naive_outcome = outcomes[("naive", None)]
        rows = []
        dec_rows = []
        for key in decision_keys:
            outcome = outcomes[key]
            strategy, tau = key
            rows.append((
                strategy, tau,
                outcome.trade_frequency, outcome.avg_profit, outcome.profit_per_trade,
                outcome.var5,
                relative_pct(outcome.avg_profit, naive_outcome.avg_profit),
                relative_pct(outcome.profit_per_trade, naive_outcome.profit_per_trade),
            ))
            flat = 0
            for date, r in zip(dates, records):
                for h in range(24):
                    dec = r["decisions"][key][h]
                    dec_rows.append((date, str(h + 1), strategy, tau,
                                     dec.q, dec.curtail, outcome.profits[flat]))
                    flat += 1
            strategy_tables[key] = outcome
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
    _write_summary(files["summary"], cfg, dates, coverage, crps, reliability,
                   strategy_tables)

    elapsed = time.monotonic() - started
    return BacktestResult(output_dir=cfg.output_dir, files=files, coverage=coverage,
                          crps=crps, reliability=reliability, strategy=strategy_tables,
                          elapsed_seconds=elapsed, n_days=len(records))


def _write_summary(path, cfg, dates, coverage, crps, reliability, strategy_tables):
    eval_vars = tuple(cfg.variables) + tuple(cfg.derived)
    labels = method_labels(cfg)
    lines = []
    lines.append(f"evaluation days: {len(dates)}  ({dates[0]} .. {dates[-1]})")
    lines.append(f"calibration window: {cfg.calibration_window_days} days, "
                 f"splits: {cfg.n_splits}, ratio: {format_cell(cfg.split_ratio)}")
    lines.append("")
    width = 10

    def row(cells):
        return "  ".join(str(c).rjust(width) for c in cells)

    lines.append("interval coverage, mean over hours (PICP, percent)")
    for method in labels:
        supported = cfg.qr_variables if method == "qr" else eval_vars
        lines.append(f"[{method}]")
        lines.append(row(["level"] + list(supported)))
        for level in cfg.interval_levels:
            cells = [f"{level * 100:.0f}%"]
            for variable in supported:
                report = coverage.get((method, variable, level))
                cells.append("-" if report is None else format_cell(report.picp * 100.0))
            lines.append(row(cells))
        kupiec = []
        for v in supported:
            rates = [coverage[(method, v, level)].pass_rate
                     for level in cfg.interval_levels if (method, v, level) in coverage]
            kupiec.append(format_cell(100.0 * np.mean(rates)) if rates else "-")
        lines.append(row(["kupiec%"] + kupiec))
        lines.append("")

    lines.append("CRPS, mean over evaluation period")
    lines.append(row(["method"] + list(eval_vars)))
    for method in labels:
        cells = [method]
        for variable in eval_vars:
            entry = crps.get((method, variable))
            cells.append("-" if entry is None else format_cell(entry["overall"]))
        lines.append(row(cells))
    lines.append("")

    ens_labels = ensemble_method_labels(cfg)
    if ens_labels:
        lines.append(f"reliability index (m_bins = {cfg.m_bins})")
        lines.append(row(["method"] + list(eval_vars) + ["ALL"]))
        for method in ens_labels:
            cells = [method]
            for variable in (*eval_vars, "ALL"):
                report = reliability.get((method, variable))
                cells.append("-" if report is None else format_cell(report.delta))
            lines.append(row(cells))
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
    return MarketPanel(dates=panel.dates, hourly=hourly, daily=daily,
                       missing_cells=panel.missing_cells,
                       duplicate_cells=dict(panel.duplicate_cells))


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
