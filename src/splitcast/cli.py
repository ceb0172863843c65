"""Command line front end.

Subcommands::

    splitcast validate  panel.csv          check a panel file as the backtest reads it
    splitcast synth     --days 400 --out panel.csv
    splitcast forecast  --method ms --start 2021-01-01 --end 2021-01-07 ...
    splitcast evaluate  --fans fans.csv --input panel.csv --out scores/
    splitcast backtest  -c run.cfg [--seed N] [--workers K] [--set key=value]
    splitcast report    --backtest-dir out/ [--out plots/]

A config file may also come from the SPLITCAST_CONFIG environment
variable; explicit flags override file values.

``backtest`` and ``forecast`` run their days through one driver,
``backtest._run_days``, so both honour the ``workers`` setting with output
identical to a serial run, and an error raised while a day is computed
names that day's date.

Each subcommand imports the modules it runs when it runs, so that a
process loads no more than its command needs: ``validate`` reads the panel
module alone, ``evaluate`` never loads the ensembles or trading, and
``report`` runs without numpy.
"""

import argparse
import csv
import datetime as dt
import functools
import math
import os
import sys
from dataclasses import replace

from .errors import ConfigError, SplitcastError


def _key_values(pairs, flag="--set", form="key=value"):
    """The ``KEY=VALUE`` arguments of a repeated ``flag`` as a dict, stripped."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"{flag} expects {form}, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _schema(args):
    return _key_values(args.schema, "--schema", "FIELD=COLUMN") or None


def _iso_date(text, source):
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"{source}: {text!r} is not a YYYY-MM-DD date ({exc})") from exc


def _panel_day(panel, text, source):
    date = _iso_date(text, source)
    try:
        return panel.day_index(date)
    except KeyError as exc:
        raise ConfigError(f"{source}: {text} is not a day of the panel") from exc


# --------------------------------------------------------------------------
# validate


def _cmd_validate(args):
    from .panel import _read_panel

    # the backtest's loader, with the counts of the clock-change cells it resolved
    panel, n_missing, n_duplicated = _read_panel(args.input, _schema(args))
    print(f"{panel.n_days} days, {panel.dates[0]} .. {panel.dates[-1]}")
    print(f"missing cells: {n_missing}, duplicated cells: {n_duplicated}")
    print("ok")
    return 0


# --------------------------------------------------------------------------
# synth


def _apply_dgp_overrides(cfg, pairs):
    import numpy as np

    from .panel import SYNTH_SERIES

    updates = {}
    corr = np.array(cfg.noise_corr, dtype=float, copy=True)
    dicts = {"phi": dict(cfg.phi), "level": dict(cfg.level),
             "amp": dict(cfg.diurnal_amplitude), "sd": dict(cfg.noise_sd),
             "fsd": dict(cfg.forecast_noise_sd)}
    field_of = {"phi": "phi", "level": "level", "amp": "diurnal_amplitude",
                "sd": "noise_sd", "fsd": "forecast_noise_sd"}
    for key, value in _key_values(pairs).items():
        parts = key.split(".")
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad number for {key}: {value!r}") from exc
        if key in ("price_on_load", "price_on_res", "fuel_phi"):
            updates[key] = number
        elif len(parts) == 2 and parts[0] in dicts:
            if parts[1] not in SYNTH_SERIES:
                raise ConfigError(f"unknown series {parts[1]!r} in {key}")
            dicts[parts[0]][parts[1]] = number
        elif len(parts) == 3 and parts[0] == "corr":
            try:
                i, j = SYNTH_SERIES.index(parts[1]), SYNTH_SERIES.index(parts[2])
            except ValueError as exc:
                raise ConfigError(f"unknown series pair in {key}") from exc
            corr[i, j] = corr[j, i] = number
            updates["noise_corr"] = corr
        else:
            raise ConfigError(f"unknown generator key {key!r}")
    for short, fieldname in field_of.items():
        if dicts[short] != getattr(cfg, fieldname):
            updates[fieldname] = dicts[short]
    return replace(cfg, **updates) if updates else cfg


def _cmd_synth(args):
    from .panel import SyntheticConfig, generate_synthetic_panel, write_panel

    cfg = SyntheticConfig(days=args.days, start_date=_iso_date(args.start_date, "--start-date"))
    cfg = _apply_dgp_overrides(cfg, args.set)
    panel = generate_synthetic_panel(cfg, seed=args.seed)
    write_panel(panel, args.out)
    print(f"wrote {panel.n_days} days to {args.out}")
    return 0


# --------------------------------------------------------------------------
# forecast


def _forecast_config(args):
    from .config import config_from_raw, read_config

    overrides = {
        "input_path": args.input,
        "output_dir": args.out,
        "n_splits": args.splits,
        "calibration_window_days": args.window,
    }
    cfg = config_from_raw(_key_values(args.set), read_config(args.config, overrides))
    modes = (args.mode,) if args.method == "ms" else cfg.ms_modes
    # forecast writes fans, members and point forecasts only: no trading, no ranks
    return replace(cfg, methods=(args.method,), ms_modes=modes, trading=False,
                   mv_variables=()).validate()


def _write_members_file(path, ens_by_hour):
    variables = ens_by_hour[1].variables
    with open(path, "w", newline="") as fh:
        fh.write("hour,member," + ",".join(variables) + "\n")
        for hour in sorted(ens_by_hour):
            for m, row in enumerate(ens_by_hour[hour].members.tolist()):
                fh.write(f"{hour},{m},{','.join(map(repr, row))}\n")


def _forecast_arrays(members_dir, data, cfg, day_idx):
    """``forecast``'s day task: the day's point forecasts (kind -> 24 values)
    for ``point``, its fans ((method, variable) -> (24, 99)) otherwise.  With
    ``members_dir`` the day's members are written there as
    ``members_<date>.csv``, by the process that built them."""
    from .backtest import forecast_day, run_plan

    forecast = forecast_day(data, cfg, day_idx)
    if members_dir:
        date = data.panel.dates[day_idx].isoformat()
        _write_members_file(os.path.join(members_dir, f"members_{date}.csv"),
                            forecast["ensembles"][run_plan(cfg).ensemble_methods[0]])
    return forecast["point" if cfg.methods == ("point",) else "fans"]


def _cmd_forecast(args):
    from .backtest import _run_days, evaluation_day_indices
    from .features import MarketData
    from .panel import load_panel
    from .quantreg import TAU_GRID
    from .tables import write_csv

    if args.members and args.method not in ("hist", "ms"):
        raise ConfigError(f"--members needs --method hist or ms, not {args.method}")
    cfg = _forecast_config(args)
    panel = load_panel(cfg.input_path, cfg.schema or None)
    data = MarketData.from_panel(panel)
    first = _panel_day(panel, args.start, "--start")
    last = _panel_day(panel, args.end, "--end")
    if last < first:
        raise ConfigError("end date precedes start date")
    day_indices = evaluation_day_indices(panel, replace(
        cfg, evaluation_start=panel.dates[first], evaluation_days=last - first + 1))
    os.makedirs(cfg.output_dir, exist_ok=True)

    task = functools.partial(_forecast_arrays, cfg.output_dir if args.members else None)
    # the days run as write_csv takes their rows; its file appears once every day has succeeded
    days = zip((panel.dates[d].isoformat() for d in day_indices),
               _run_days(data, cfg, day_indices, task))
    if args.method == "point":
        path = os.path.join(cfg.output_dir, "point_forecasts.csv")
        write_csv(path, ("date", "hour", "kind", "forecast"),
                  ((date, h, kind, value) for date, point in days
                   for kind, values in point.items() for h, value in enumerate(values, start=1)))
    else:
        path = os.path.join(cfg.output_dir, "fans.csv")
        # the one method's fans, in variable order
        write_csv(path, ("date", "hour", "variable",
                         *(f"p{int(round(t * 100)):02d}" for t in TAU_GRID)),
                  ((date, h, variable, *fan) for date, fans in days
                   for (_, variable), matrix in sorted(fans.items())
                   for h, fan in enumerate(matrix, start=1)))
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# evaluate


def _read_fans(path):
    import numpy as np

    fans = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["date", "hour", "variable"] or len(header) != 102:
            raise ConfigError(f"{path} is not a fans file")
        for row in reader:
            try:
                date, hour, variable = row[0], int(row[1]), row[2]
                values = [float(v) for v in row[3:]]
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
            if not 1 <= hour <= 24 or len(values) != 99:
                raise ConfigError(f"{path} line {reader.line_num}: need an hour in 1..24 "
                                  f"and 99 fan values")
            grid = fans.setdefault((date, variable), np.full((24, 99), np.nan))
            grid[hour - 1] = values
    if not fans:
        raise ConfigError(f"{path} holds no fans")
    return fans


def _cmd_evaluate(args):
    import numpy as np

    from .config import check_level
    from .features import MarketData
    from .panel import load_panel
    from .quantreg import tail_column
    from .scores import crps_fan_matrix, interval_hits, score_fans
    from .tables import COVERAGE_HEADER, CRPS_HEADER, write_csv

    try:
        levels = tuple(float(v) for v in args.levels.split(","))
    except ValueError as exc:
        raise ConfigError(f"--levels expects comma separated numbers, got {args.levels!r}") from exc
    for level in levels:
        check_level(level, "interval level")  # the rule of ExperimentConfig.validate
    fans = _read_fans(args.fans)
    data = MarketData.from_panel(load_panel(args.input, _schema(args)))
    dates = sorted({d for (d, _) in fans})
    day_indices = [_panel_day(data.panel, date, args.fans) for date in dates]
    tails = {level: tail_column(level) for level in levels}
    for level, i in tails.items():
        if i is None:
            print(f"note: level {level:g} needs off grid tails, skipped")

    coverage_rows, crps_rows = [], []
    for variable in sorted({v for (_, v) in fans}):
        if variable not in data.hourly:
            raise ConfigError(f"{args.fans}: variable {variable!r} is not a series of the panel")
        absent = [d for d in dates if (d, variable) not in fans]
        if absent:
            raise ConfigError(f"{args.fans}: no fans for {variable} on {absent[0]}")
        stack = np.stack([fans[(d, variable)] for d in dates])  # (n, 24, 99)
        if np.isnan(stack).any():
            raise ConfigError(f"fans for {variable} have missing day/hour rows")
        realized = data.hourly[variable][day_indices]
        hits = {level: interval_hits(stack[:, :, i], stack[:, :, 98 - i], realized)
                for level, i in tails.items() if i is not None}
        crps_days = crps_fan_matrix(stack.reshape(-1, 99), realized.reshape(-1))
        _, _, cov, crps = score_fans("stored", variable, crps_days.reshape(realized.shape), hits)
        coverage_rows += cov
        crps_rows += crps
    os.makedirs(args.out, exist_ok=True)
    cov_path = os.path.join(args.out, "coverage.csv")
    crps_path = os.path.join(args.out, "crps.csv")
    write_csv(cov_path, COVERAGE_HEADER, coverage_rows)
    write_csv(crps_path, CRPS_HEADER, crps_rows)
    print(f"wrote {cov_path} and {crps_path}")
    return 0


# --------------------------------------------------------------------------
# backtest


def _cmd_backtest(args):
    from .backtest import run_backtest
    from .config import config_from_raw, read_config

    overrides = {
        "input_path": args.input,
        "output_dir": args.out,
        "master_seed": args.seed,
        "workers": args.workers,
        "evaluation_days": args.eval_days,
        "n_splits": args.splits,
        "calibration_window_days": args.window,
    }
    cfg = read_config(args.config, overrides)
    if args.no_trading:
        cfg = replace(cfg, trading=False)
    result = run_backtest(config_from_raw(_key_values(args.set), cfg))
    print(f"{result.n_days} evaluation days in {result.elapsed_seconds:.1f}s")
    for name in sorted(result.files):
        print(f"  {result.files[name]}")
    return 0


# --------------------------------------------------------------------------
# report


_STRATEGY_COLUMNS = ("strategy", "tau", "avg_profit", "profit_per_trade", "trade_frequency", "var5")
_DECISION_COLUMNS = ("strategy", "tau", "q")


def _read_csv_dicts(path, columns):
    """The rows of a bundle CSV, each with a value in every one of ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path} has no column {', '.join(missing)}")
    for i, row in enumerate(rows, start=1):
        if any(row[c] is None for c in columns):
            raise ConfigError(f"{path} row {i}: too few fields")
    return rows


def _decision_q(path, i, row):
    try:
        q = float(row["q"])
    except ValueError:
        q = math.nan
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"{path} row {i}: q {row['q']!r} is not a number in [0, 1]")
    return q


def _cmd_report(args):
    from .tables import format_cell

    out_dir = args.out or args.backtest_dir
    os.makedirs(out_dir, exist_ok=True)
    strategy_rows = _read_csv_dicts(os.path.join(args.backtest_dir, "strategy.csv"),
                                    _STRATEGY_COLUMNS)
    decisions_path = os.path.join(args.backtest_dir, "decisions.csv")
    decision_rows = _read_csv_dicts(decisions_path, _DECISION_COLUMNS)
    qs = [_decision_q(decisions_path, i, row) for i, row in enumerate(decision_rows, start=1)]

    profit_path = os.path.join(out_dir, "profit_vs_tau.csv")
    var_path = os.path.join(out_dir, "var_vs_tau.csv")
    with open(profit_path, "w", newline="") as pf, open(var_path, "w", newline="") as vf:
        pf.write("strategy,tau,avg_profit,profit_per_trade,trade_frequency\n")
        vf.write("strategy,tau,var5\n")
        for row in strategy_rows:
            if not row["tau"]:
                continue
            pf.write(f"{row['strategy']},{row['tau']},{row['avg_profit']},"
                     f"{row['profit_per_trade']},{row['trade_frequency']}\n")
            vf.write(f"{row['strategy']},{row['tau']},{row['var5']}\n")

    # q histograms: q does not depend on tau, so keep one tau per strategy
    first_tau = {}
    for row in decision_rows:
        first_tau.setdefault(row["strategy"], row["tau"])
    counts = {}
    for row, q in zip(decision_rows, qs):
        if row["tau"] != first_tau[row["strategy"]]:
            continue
        bucket = min(int(q * 20.0), 19) if q < 1.0 else 19
        counts.setdefault(row["strategy"], [0] * 20)[bucket] += 1
    hist_path = os.path.join(out_dir, "q_histogram.csv")
    with open(hist_path, "w", newline="") as fh:
        fh.write("strategy,q_low,q_high,count\n")
        for strategy in sorted(counts):
            for b, count in enumerate(counts[strategy]):
                fh.write(f"{strategy},{format_cell(b / 20.0)},{format_cell((b + 1) / 20.0)},{count}\n")
    print(f"wrote {profit_path}, {var_path}, {hist_path}")
    return 0


# --------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitcast",
        description="probabilistic day ahead forecasting and wind bidding backtests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a panel csv")
    p.add_argument("input")
    p.add_argument("--schema", action="append", metavar="FIELD=COLUMN")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic panel")
    p.add_argument("--days", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-date", default="2020-01-01")
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="generator overrides, e.g. corr.DA.ID=0.8 or phi.L=0.9")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forecast", help="write fans for a date range")
    p.add_argument("--config", "-c")
    p.add_argument("--input")
    p.add_argument("--method", choices=("point", "qr", "hist", "ms"), required=True)
    p.add_argument("--mode", choices=("corr", "uncorr"), default="corr")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--out", default="splitcast_out")
    p.add_argument("--splits", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--members", action="store_true", help="also dump ensemble members per day")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="score stored fans against a panel")
    p.add_argument("--fans", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--schema", action="append", metavar="FIELD=COLUMN")
    p.add_argument("--levels", default="0.8,0.9,0.95,0.98")
    p.add_argument("--out", default="splitcast_scores")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("backtest", help="run the full experiment")
    p.add_argument("--config", "-c")
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--eval-days", type=int)
    p.add_argument("--splits", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--no-trading", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("report", help="plot ready tables from a backtest directory")
    p.add_argument("--backtest-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplitcastError, OSError, UnicodeDecodeError, csv.Error) as exc:
        # bad options, missing, unreadable or malformed files: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
