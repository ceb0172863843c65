"""Command line front end.

Subcommands::

    splitcast validate  panel.csv          check a panel file, list problems
    splitcast synth     --days 400 --out panel.csv
    splitcast forecast  --method ms --start 2021-01-01 --end 2021-01-07 ...
    splitcast evaluate  --fans fans.csv --input panel.csv --out scores/
    splitcast backtest  -c run.cfg [--seed N] [--workers K] [--set key=value]
    splitcast report    --backtest-dir out/ [--out plots/]

A config file may also come from the SPLITCAST_CONFIG environment
variable; explicit flags override file values.
"""

import argparse
import csv
import datetime as dt
import os
import sys
from dataclasses import replace

import numpy as np

from .backtest import _process_day, run_backtest
from .config import config_from_raw, read_config
from .errors import ConfigError, SplitcastError
from .features import KINDS, MarketData
from .panel import SYNTH_SERIES, SyntheticConfig, generate_synthetic_panel, load_panel, validate_panel, write_panel
from .quantreg import TAU_GRID
from .scores import coverage_report, crps_fan_matrix


def _schema_from_args(pairs):
    schema = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--schema expects FIELD=COLUMN, got {pair!r}")
        key, value = pair.split("=", 1)
        schema[key.strip()] = value.strip()
    return schema


def _fmt(x):
    return format(float(x), ".6g")


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
    panel = load_panel(args.input, _schema_from_args(args.schema) or None)
    problems = validate_panel(panel)
    print(f"{panel.n_days} days, {panel.dates[0]} .. {panel.dates[-1]}")
    print(f"missing cells: {len(panel.missing_cells)}, duplicated cells: {len(panel.duplicate_cells)}")
    for line in problems:
        print(f"  problem: {line}")
    if problems:
        return 1
    print("ok")
    return 0


# --------------------------------------------------------------------------
# synth


def _apply_dgp_overrides(cfg, pairs):
    updates = {}
    corr = np.array(cfg.noise_corr, dtype=float, copy=True)
    dicts = {"phi": dict(cfg.phi), "level": dict(cfg.level),
             "amp": dict(cfg.diurnal_amplitude), "sd": dict(cfg.noise_sd),
             "fsd": dict(cfg.forecast_noise_sd)}
    field_of = {"phi": "phi", "level": "level", "amp": "diurnal_amplitude",
                "sd": "noise_sd", "fsd": "forecast_noise_sd"}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
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
    cfg = SyntheticConfig(days=args.days, start_date=_iso_date(args.start_date, "--start-date"))
    cfg = _apply_dgp_overrides(cfg, args.set)
    panel = generate_synthetic_panel(cfg, seed=args.seed)
    write_panel(panel, args.out)
    print(f"wrote {panel.n_days} days to {args.out}")
    return 0


# --------------------------------------------------------------------------
# forecast


def _raw_overrides(pairs):
    raw = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _forecast_config(args):
    overrides = {
        "input_path": args.input,
        "output_dir": args.out,
        "n_splits": args.splits,
        "calibration_window_days": args.window,
    }
    cfg = read_config(args.config, overrides)
    if args.set:
        cfg = config_from_raw(_raw_overrides(args.set), cfg)
    if args.method == "ms":
        cfg = replace(cfg, methods=("ms",), ms_modes=(args.mode,))
    else:
        cfg = replace(cfg, methods=(args.method,))
    # forecast writes fans, members and point forecasts only: no trading, no ranks
    return replace(cfg, trading=False, mv_variables=()).validate()


def _forecast_days(data, cfg, start, end):
    first = _panel_day(data.panel, start, "--start")
    last = _panel_day(data.panel, end, "--end")
    if last < first:
        raise ConfigError("end date precedes start date")
    if first < cfg.calibration_window_days + 8:
        raise ConfigError(
            f"need {cfg.calibration_window_days + 8} days of history before {start}")
    return list(range(first, last + 1))


def _write_members_file(path, ens_by_hour):
    variables = ens_by_hour[1].variables
    with open(path, "w", newline="") as fh:
        fh.write("hour,member," + ",".join(variables) + "\n")
        for hour in sorted(ens_by_hour):
            members = ens_by_hour[hour].members
            for m in range(members.shape[0]):
                cells = ",".join(repr(float(v)) for v in members[m])
                fh.write(f"{hour},{m},{cells}\n")


def _cmd_forecast(args):
    cfg = _forecast_config(args)
    panel = load_panel(cfg.input_path, cfg.schema or None)
    data = MarketData.from_panel(panel)
    day_indices = _forecast_days(data, cfg, args.start, args.end)
    os.makedirs(cfg.output_dir, exist_ok=True)

    if args.method == "point":
        path = os.path.join(cfg.output_dir, "point_forecasts.csv")
        with open(path, "w", newline="") as fh:
            fh.write("date,hour,kind,forecast\n")
            for day_idx in day_indices:
                r = _process_day(data, cfg, day_idx)
                for kind in KINDS:
                    for h in range(24):
                        fh.write(f"{r['date']},{h + 1},{kind},{_fmt(r['point'][kind][h])}\n")
        print(f"wrote {path}")
        return 0

    method = f"ms_{args.mode}" if args.method == "ms" else args.method
    fan_path = os.path.join(cfg.output_dir, "fans.csv")
    header = "date,hour,variable," + ",".join(f"p{int(round(t * 100)):02d}" for t in TAU_GRID)
    with open(fan_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for day_idx in day_indices:
            r = _process_day(data, cfg, day_idx, keep_ensembles=args.members)
            variables = sorted({v for (m, v) in r["fans"] if m == method})
            for variable in variables:
                fan = r["fans"][(method, variable)]
                for h in range(24):
                    cells = ",".join(_fmt(v) for v in fan[h])
                    fh.write(f"{r['date']},{h + 1},{variable},{cells}\n")
            if args.members and args.method in ("ms", "hist"):
                member_path = os.path.join(cfg.output_dir, f"members_{r['date']}.csv")
                _write_members_file(member_path, r["ensembles"][method])
    print(f"wrote {fan_path}")
    return 0


# --------------------------------------------------------------------------
# evaluate


def _read_fans(path):
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
    return fans


def _cmd_evaluate(args):
    fans = _read_fans(args.fans)
    panel = load_panel(args.input, _schema_from_args(args.schema) or None)
    data = MarketData.from_panel(panel)
    try:
        levels = tuple(float(v) for v in args.levels.split(","))
    except ValueError as exc:
        raise ConfigError(f"--levels expects comma separated numbers, got {args.levels!r}") from exc
    dates = sorted({d for (d, _) in fans})
    variables = sorted({v for (_, v) in fans})
    os.makedirs(args.out, exist_ok=True)

    def realized_grid(variable):
        rows = []
        for date in dates:
            day_idx = _panel_day(data.panel, date, args.fans)
            if variable == "SP":
                rows.append(data.derived.SP[day_idx])
            elif variable == "RL":
                rows.append(data.derived.RL[day_idx])
            else:
                rows.append(data.panel.hourly[variable][day_idx])
        return np.stack(rows)

    cov_path = os.path.join(args.out, "coverage.csv")
    crps_path = os.path.join(args.out, "crps.csv")
    noted = set()
    with open(cov_path, "w", newline="") as cov, open(crps_path, "w", newline="") as cr:
        cov.write("method,variable,level,hour,picp,kupiec_lr,kupiec_reject\n")
        cr.write("method,variable,hour,crps\n")
        for variable in variables:
            stack = np.stack([fans[(d, variable)] for d in dates])  # (n, 24, 99)
            if np.isnan(stack).any():
                raise ConfigError(f"fans for {variable} have missing day/hour rows")
            realized = realized_grid(variable)
            for level in levels:
                pos = (1.0 - level) / 2.0 * 100.0
                if abs(pos - round(pos)) > 1e-9 or not 1 <= round(pos) <= 49:
                    if level not in noted:
                        noted.add(level)
                        print(f"note: level {level:g} needs off grid tails, skipped")
                    continue
                i = int(round(pos)) - 1
                report = coverage_report(stack[:, :, i], stack[:, :, 98 - i], realized, level)
                for h in range(24):
                    cov.write(f"stored,{variable},{level:g},{h + 1},{_fmt(report.picp_by_hour[h])},"
                              f"{_fmt(report.lr_by_hour[h])},{int(report.reject_by_hour[h])}\n")
                cov.write(f"stored,{variable},{level:g},all,{_fmt(report.picp)},nan,\n")
            scores = crps_fan_matrix(stack.reshape(-1, 99), realized.reshape(-1))
            per_hour = scores.reshape(len(dates), 24).mean(axis=0)
            for h in range(24):
                cr.write(f"stored,{variable},{h + 1},{_fmt(per_hour[h])}\n")
            cr.write(f"stored,{variable},all,{_fmt(scores.mean())}\n")
    print(f"wrote {cov_path} and {crps_path}")
    return 0


# --------------------------------------------------------------------------
# backtest


def _cmd_backtest(args):
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
    if args.set:
        cfg = config_from_raw(_raw_overrides(args.set), cfg)
    cfg.validate()
    result = run_backtest(cfg)
    print(f"{result.n_days} evaluation days in {result.elapsed_seconds:.1f}s")
    for name in sorted(result.files):
        print(f"  {result.files[name]}")
    return 0


# --------------------------------------------------------------------------
# report


def _read_csv_dicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cmd_report(args):
    out_dir = args.out or args.backtest_dir
    os.makedirs(out_dir, exist_ok=True)
    strategy_rows = _read_csv_dicts(os.path.join(args.backtest_dir, "strategy.csv"))
    decision_rows = _read_csv_dicts(os.path.join(args.backtest_dir, "decisions.csv"))

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
    for row in decision_rows:
        if row["tau"] != first_tau[row["strategy"]]:
            continue
        q = float(row["q"])
        bucket = min(int(q * 20.0), 19) if q < 1.0 else 19
        counts.setdefault(row["strategy"], [0] * 20)[bucket] += 1
    hist_path = os.path.join(out_dir, "q_histogram.csv")
    with open(hist_path, "w", newline="") as fh:
        fh.write("strategy,q_low,q_high,count\n")
        for strategy in sorted(counts):
            for b, count in enumerate(counts[strategy]):
                fh.write(f"{strategy},{_fmt(b / 20.0)},{_fmt((b + 1) / 20.0)},{count}\n")
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
    except (SplitcastError, OSError, UnicodeDecodeError) as exc:
        # bad options, missing or unreadable files: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
