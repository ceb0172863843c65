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

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
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
from .features import KINDS, MarketData, ModelSpec, design_rows, targets
from .models import ols_fit
from .quantreg import TAU_GRID, qr_fan, qr_fit_fan
from .scores import coverage_report, crps_fan_matrix, multivariate_rank, reliability_index, univariate_rank
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


def _realized(data, variable, day_idx):
    if variable == "SP":
        return data.derived.SP[day_idx]
    if variable == "RL":
        return data.derived.RL[day_idx]
    return data.panel.hourly[variable][day_idx]


def _grid_tail_index(level):
    """Fan column index of the lower tail, or None when off the 1% grid."""
    pos = (1.0 - level) / 2.0 * 100.0
    if abs(pos - round(pos)) > 1e-9 or not 1 <= round(pos) <= 49:
        return None
    return int(round(pos)) - 1


def _process_day(data, cfg, day_idx, keep_ensembles=False):
    """All forecasts, scores inputs and decisions for one target day.

    With ``keep_ensembles`` the result also holds the day's ensembles under
    ``"ensembles"`` (method label -> hour -> ForecastEnsemble), for writing
    members out.  The backtest leaves them out, so no members are kept
    across days or sent back from the workers.
    """
    t0 = day_idx - cfg.calibration_window_days
    window = np.arange(t0, day_idx, dtype=np.intp)
    all_days = np.append(window, day_idx)
    hours = range(1, 25)
    eval_vars = tuple(cfg.variables) + tuple(cfg.derived)
    out = {
        "day_idx": int(day_idx),
        "date": data.panel.dates[day_idx].isoformat(),
        "realized": {v: _realized(data, v, day_idx).copy() for v in eval_vars},
        "point": {},
        "fans": {},
        "intervals": {},
        "uranks": {},
        "mvranks": {},
        "decisions": {},
        "trading_inputs": None,
    }

    need_point = "point" in cfg.methods or cfg.trading
    point_kinds = KINDS if "point" in cfg.methods else ("W",)
    if need_point:
        for kind in point_kinds:
            values = np.empty(24)
            for h in hours:
                spec = ModelSpec(kind, h)
                X, _ = design_rows(spec, data, all_days)
                y = targets(spec, data, all_days)
                coeffs = ols_fit(X[:-1], y[:-1])
                values[h - 1] = X[-1] @ coeffs.beta
            out["point"][kind] = values

    if "qr" in cfg.methods:
        for variable in cfg.qr_variables:
            fan_matrix = np.empty((24, 99))
            for h in hours:
                design_spec = ModelSpec(_qr_design_kind(variable), h)
                X, _ = design_rows(design_spec, data, all_days)
                y = targets(ModelSpec(variable, h), data, all_days)
                thetas = qr_fit_fan(X[:-1], y[:-1])
                fan = qr_fan(thetas, X[-1])
                fan_matrix[h - 1] = fan.values
            out["fans"][("qr", variable)] = fan_matrix
            for level in cfg.interval_levels:
                i = _grid_tail_index(level)
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

    for mi, (method, by_hour) in enumerate(sorted(ens_by_method.items())):
        mv_idx = [cfg.variables.index(v) for v in cfg.mv_variables]
        mv_rng = _stream(cfg.master_seed, _STREAM_MV_RANK, day_idx, mi) if mv_idx else None
        fans = {v: np.empty((24, 99)) for v in (*cfg.variables, *cfg.derived)}
        uranks = {v: np.empty(24) for v in fans}
        mvranks = np.empty(24) if mv_idx else None
        bounds = {(v, level): np.empty((2, 24)) for v in fans for level in cfg.interval_levels}
        for h in hours:
            ens = by_hour[h]
            singles = {v: ens.column(v) for v in cfg.variables}
            for name in cfg.derived:
                singles[name] = derived_ensemble(ens, name).members[:, 0]
            for v, members in singles.items():
                fans[v][h - 1] = interpolated_quantiles(members, TAU_GRID)
                uranks[v][h - 1] = univariate_rank(members, out["realized"][v][h - 1])
                for level in cfg.interval_levels:
                    lo = (1.0 - level) / 2.0
                    qs = interpolated_quantiles(members, np.array([lo, 1.0 - lo]))
                    bounds[(v, level)][:, h - 1] = qs
            if mv_idx:
                y0 = np.array([out["realized"][v][h - 1] for v in cfg.mv_variables])
                mvranks[h - 1] = multivariate_rank(ens.members[:, mv_idx], y0, mv_rng)
        for v in fans:
            out["fans"][(method, v)] = fans[v]
            out["uranks"][(method, v)] = uranks[v]
            for level in cfg.interval_levels:
                out["intervals"][(method, v, level)] = bounds[(v, level)]
        if mv_idx:
            out["mvranks"][method] = mvranks

    if cfg.trading:
        method = "ms_corr" if cfg.trading_method == "ms" else "hist"
        by_hour = ens_by_method[method]
        w_hat = out["point"]["W"]
        q_grid = Q_GRID_DEFAULT
        decisions = {}
        for h in hours:
            pools = profit_pools(by_hour[h], w_hat[h - 1], q_grid, cfg.c_om)
            for strategy in cfg.strategies:
                base = choose_q(strategy, pools, q_grid, cfg.var_level)
                j = int(round(base.q * (q_grid.size - 1)))
                pool_at_q = pools[j]
                for tau in cfg.stopping_taus:
                    dec = stopping_rule(base, pool_at_q, tau)
                    decisions.setdefault((strategy, tau), []).append(dec)
            decisions.setdefault(("naive", None), []).append(naive_decision("naive"))
            decisions.setdefault(("limited", None), []).append(
                naive_decision("limited", out["realized"]["DA"][h - 1]))
        out["decisions"] = decisions
        out["trading_inputs"] = {
            "da": out["realized"]["DA"].copy(),
            "id": out["realized"]["ID"].copy(),
            "w": out["realized"]["W"].copy(),
            "w_hat": w_hat.copy(),
        }
    if keep_ensembles:
        out["ensembles"] = ens_by_method
    return out


# --------------------------------------------------------------------------
# parallel driver

# the (data, cfg) of a worker process, installed once by the pool initializer,
# so that it reaches workers under every start method (fork, spawn, forkserver)
_worker_inputs = None


def _init_worker(data, cfg):
    global _worker_inputs
    _worker_inputs = (data, cfg)


def _day_task(day_idx):
    return _process_day(*_worker_inputs, day_idx)


def _run_days(data, cfg, day_indices):
    if cfg.workers <= 1 or len(day_indices) < 2:
        return [_process_day(data, cfg, d) for d in day_indices]
    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                             initargs=(data, cfg)) as pool:
        chunk = max(1, len(day_indices) // (4 * cfg.workers))
        return list(pool.map(_day_task, day_indices, chunksize=chunk))


# --------------------------------------------------------------------------
# aggregation and reports


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".6g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


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
    if start < cfg.calibration_window_days + 8:
        raise ConfigError(
            f"need calibration_window_days + 8 = {cfg.calibration_window_days + 8} days of "
            f"history before the first evaluation day, have {start}")
    return list(range(start, end))


def run_backtest(cfg, panel=None):
    """Run the full experiment and write the report bundle.

    ``panel`` may be passed directly; otherwise ``cfg.input_path`` is
    loaded.  Returns a :class:`BacktestResult` with every table in memory
    and the written file paths.
    """
    from .panel import load_panel

    started = time.monotonic()
    cfg.validate()
    for name in cfg.derived:
        parents = ("DA", "ID") if name == "SP" else ("L", "RES")
        for parent in parents:
            if parent not in cfg.variables:
                raise ConfigError(f"derived {name} needs variable {parent} in the ensemble set")
    if cfg.trading:
        if cfg.trading_method == "ms" and ("ms" not in cfg.methods or "corr" not in cfg.ms_modes):
            raise ConfigError("trading_method ms needs method ms with mode corr")
        if cfg.trading_method == "hist" and "hist" not in cfg.methods:
            raise ConfigError("trading_method hist needs method hist")

    if panel is None:
        if not cfg.input_path:
            raise ConfigError("no panel given and no input_path configured")
        panel = load_panel(cfg.input_path, cfg.schema or None)
    data = MarketData.from_panel(panel)
    day_indices = evaluation_day_indices(data.panel, cfg)
    results = _run_days(data, cfg, day_indices)

    os.makedirs(cfg.output_dir, exist_ok=True)
    files = {}
    eval_vars = tuple(cfg.variables) + tuple(cfg.derived)
    labels = method_labels(cfg)
    n_days = len(results)

    # coverage
    coverage = {}
    rows = []
    for method in labels:
        supported = cfg.qr_variables if method == "qr" else eval_vars
        for variable in supported:
            for level in cfg.interval_levels:
                key = (method, variable, level)
                if key not in results[0]["intervals"]:
                    continue
                lower = np.stack([r["intervals"][key][0] for r in results])
                upper = np.stack([r["intervals"][key][1] for r in results])
                realized = np.stack([r["realized"][variable] for r in results])
                report = coverage_report(lower, upper, realized, level)
                coverage[key] = report
                for h in range(24):
                    rows.append((method, variable, level, h + 1,
                                 report.picp_by_hour[h], report.lr_by_hour[h],
                                 bool(report.reject_by_hour[h])))
                rows.append((method, variable, level, "all",
                             report.picp, float("nan"), ""))
    files["coverage"] = os.path.join(cfg.output_dir, "coverage.csv")
    _write_csv(files["coverage"],
               ["method", "variable", "level", "hour", "picp", "kupiec_lr", "kupiec_reject"],
               [(m, v, _fmt(l), str(h), p, lr, r if isinstance(r, str) else _fmt(r))
                for (m, v, l, h, p, lr, r) in rows])

    # crps
    crps = {}
    rows = []
    for method in labels:
        supported = cfg.qr_variables if method == "qr" else eval_vars
        for variable in supported:
            key = (method, variable)
            if key not in results[0]["fans"]:
                continue
            fans = np.stack([r["fans"][key] for r in results])  # (n, 24, 99)
            realized = np.stack([r["realized"][variable] for r in results])
            scores = crps_fan_matrix(fans.reshape(-1, 99), realized.reshape(-1))
            per_hour = scores.reshape(n_days, 24).mean(axis=0)
            crps[key] = {"per_hour": per_hour, "overall": float(scores.mean())}
            for h in range(24):
                rows.append((method, variable, str(h + 1), per_hour[h]))
            rows.append((method, variable, "all", float(scores.mean())))
    files["crps"] = os.path.join(cfg.output_dir, "crps.csv")
    _write_csv(files["crps"], ["method", "variable", "hour", "crps"], rows)

    # reliability
    reliability = {}
    rows = []
    for method in ensemble_method_labels(cfg):
        for variable in eval_vars:
            key = (method, variable)
            ranks = np.stack([r["uranks"][key] for r in results])
            report = reliability_index(ranks, cfg.m_bins, mode="univariate")
            reliability[key] = report
            for h in range(24):
                rows.append((method, variable, str(h + 1), report.delta_by_hour[h]))
            rows.append((method, variable, "all", report.delta))
        if cfg.mv_variables:
            mv = np.stack([r["mvranks"][method] for r in results])
            report = reliability_index(mv, cfg.m_bins, mode="multivariate")
            reliability[(method, "ALL")] = report
            for h in range(24):
                rows.append((method, "ALL", str(h + 1), report.delta_by_hour[h]))
            rows.append((method, "ALL", "all", report.delta))
    files["reliability"] = os.path.join(cfg.output_dir, "reliability.csv")
    _write_csv(files["reliability"], ["method", "variable", "hour", "delta"], rows)

    # point forecasts
    if "point" in cfg.methods:
        rows = []
        for r in results:
            for kind in KINDS:
                for h in range(24):
                    realized = _realized(data, kind, r["day_idx"])[h]
                    rows.append((r["date"], str(h + 1), kind, r["point"][kind][h], realized))
        files["point_forecasts"] = os.path.join(cfg.output_dir, "point_forecasts.csv")
        _write_csv(files["point_forecasts"],
                   ["date", "hour", "kind", "forecast", "realized"], rows)

    # trading
    strategy_tables = {}
    if cfg.trading:
        da = np.concatenate([r["trading_inputs"]["da"] for r in results])
        idp = np.concatenate([r["trading_inputs"]["id"] for r in results])
        w = np.concatenate([r["trading_inputs"]["w"] for r in results])
        w_hat = np.concatenate([r["trading_inputs"]["w_hat"] for r in results])
        decision_keys = list(results[0]["decisions"].keys())
        outcomes = {}
        for key in decision_keys:
            stream = [dec for r in results for dec in r["decisions"][key]]
            outcomes[key] = (stream, evaluate_strategy(stream, da, idp, w, w_hat, cfg.c_om))
        naive_outcome = outcomes[("naive", None)][1]
        rows = []
        dec_rows = []
        for key in decision_keys:
            stream, outcome = outcomes[key]
            strategy, tau = key
            rows.append((
                strategy, "" if tau is None else _fmt(tau),
                outcome.trade_frequency, outcome.avg_profit, outcome.profit_per_trade,
                outcome.var5,
                relative_pct(outcome.avg_profit, naive_outcome.avg_profit),
                relative_pct(outcome.profit_per_trade, naive_outcome.profit_per_trade),
            ))
            flat = 0
            for r in results:
                for h in range(24):
                    dec = r["decisions"][key][h]
                    dec_rows.append((r["date"], str(h + 1), strategy,
                                     "" if tau is None else _fmt(tau),
                                     dec.q, dec.curtail, outcome.profits[flat]))
                    flat += 1
            strategy_tables[key] = outcome
        files["strategy"] = os.path.join(cfg.output_dir, "strategy.csv")
        _write_csv(files["strategy"],
                   ["strategy", "tau", "trade_frequency", "avg_profit", "profit_per_trade",
                    "var5", "rel_avg_profit_pct", "rel_profit_per_trade_pct"],
                   rows)
        files["decisions"] = os.path.join(cfg.output_dir, "decisions.csv")
        _write_csv(files["decisions"],
                   ["date", "hour", "strategy", "tau", "q", "curtail", "profit"], dec_rows)

    # config echo and summary
    files["run_config"] = os.path.join(cfg.output_dir, "run_config.cfg")
    with open(files["run_config"], "w") as fh:
        fh.write("# resolved configuration (paths omitted)\n")
        for line in config_echo_lines(cfg):
            fh.write(line + "\n")

    files["summary"] = os.path.join(cfg.output_dir, "summary.txt")
    _write_summary(files["summary"], cfg, results, coverage, crps, reliability,
                   strategy_tables)

    elapsed = time.monotonic() - started
    return BacktestResult(output_dir=cfg.output_dir, files=files, coverage=coverage,
                          crps=crps, reliability=reliability, strategy=strategy_tables,
                          elapsed_seconds=elapsed, n_days=n_days)


def _write_summary(path, cfg, results, coverage, crps, reliability, strategy_tables):
    eval_vars = tuple(cfg.variables) + tuple(cfg.derived)
    labels = method_labels(cfg)
    lines = []
    lines.append(f"evaluation days: {len(results)}  "
                 f"({results[0]['date']} .. {results[-1]['date']})")
    lines.append(f"calibration window: {cfg.calibration_window_days} days, "
                 f"splits: {cfg.n_splits}, ratio: {_fmt(cfg.split_ratio)}")
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
                cells.append("-" if report is None else _fmt(report.picp * 100.0))
            lines.append(row(cells))
        lines.append(row(["kupiec%"] + [
            _fmt(100.0 * np.mean([coverage[(method, v, level)].pass_rate
                                  for level in cfg.interval_levels
                                  if (method, v, level) in coverage]))
            for v in supported]))
        lines.append("")

    lines.append("CRPS, mean over evaluation period")
    lines.append(row(["method"] + list(eval_vars)))
    for method in labels:
        cells = [method]
        for variable in eval_vars:
            entry = crps.get((method, variable))
            cells.append("-" if entry is None else _fmt(entry["overall"]))
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
                cells.append("-" if report is None else _fmt(report.delta))
            lines.append(row(cells))
        lines.append("")

    if strategy_tables:
        lines.append("bidding strategies, realized profit per MWh")
        lines.append(row(["strategy", "tau", "freq%", "avg", "per_trade", "var5"]))
        for (strategy, tau), outcome in strategy_tables.items():
            lines.append(row([
                strategy, "-" if tau is None else _fmt(tau),
                _fmt(outcome.trade_frequency * 100.0), _fmt(outcome.avg_profit),
                _fmt(outcome.profit_per_trade), _fmt(outcome.var5)]))
        lines.append("")

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# no look ahead audit


_FORECAST_KEYS = ("point", "fans", "intervals")


def _forecast_signature(day_result, include_decisions=True):
    sig = {}
    for key in _FORECAST_KEYS:
        for name, arr in day_result[key].items():
            sig[(key, name)] = np.asarray(arr).copy()
    if include_decisions:
        for key, decs in day_result["decisions"].items():
            if key[0] == "limited":
                continue  # settles against the realized price by definition
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
    hourly = {name: panel.hourly[name].copy() for name in ("DA", "ID", "L", "W", "S", "FL", "FW", "FS")}
    daily = {name: panel.daily[name].copy() for name in ("C", "G")}
    for name in ("DA", "ID", "L", "W", "S"):
        hourly[name][day_idx:] = garbage
    for name in ("FL", "FW", "FS"):
        hourly[name][day_idx + 1:] = garbage
    for name in ("C", "G"):
        daily[name][day_idx:] = garbage
    hourly["RES"] = hourly["W"] + hourly["S"]
    hourly["FRES"] = hourly["FW"] + hourly["FS"]
    from .panel import MarketPanel

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
    clean = _process_day(data, cfg, day_idx)
    wrecked_panel = corrupt_after_cutoff(data.panel, day_idx)
    wrecked = _process_day(MarketData.from_panel(wrecked_panel), cfg, day_idx)

    sig_a = _forecast_signature(clean, include_decisions=cfg.trading)
    sig_b = _forecast_signature(wrecked, include_decisions=cfg.trading)
    diffs = {}
    for key in sig_a:
        a, b = sig_a[key], sig_b[key]
        if isinstance(a, list):
            diffs[key] = 0.0 if a == b else 1.0
        else:
            diffs[key] = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diffs
