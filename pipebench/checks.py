"""Output checks made apart from the program.

Every oracle here recomputes a result from the panel CSV (read with the
benchmark's own parser) and from the documented model definitions, using
numpy and scipy only.  Nothing is compared with a stored copy of earlier
output.  Files written by the package carry 6 significant digits, so
tolerances on written numbers are relative, a few units of 1e-6.

Each check records the worst deviation it saw and its tolerance in a
:class:`Report`, so the margin of every check can be read off a run.
"""

import csv
import hashlib
import math
import os

import numpy as np

TAUS = np.round(np.arange(1, 100) / 100.0, 2)
FORECAST_TIME_HOUR = 10  # hours 1..10 of the preceding day are observed at 11:00
FILE_RTOL = 1e-5  # two units of the last of 6 significant digits, and some
QR_RTOL = 2e-5


class Report:
    """Named checks with their worst deviation, tolerance and the operations they cover."""

    def __init__(self):
        self.results = []

    def close(self, name, worst, tol, ops, detail=""):
        ok = bool(np.isfinite(worst) and worst <= tol)
        self.results.append({"check": name, "ok": ok, "worst": float(worst), "tol": tol,
                             "ops": list(ops), "detail": detail})
        return ok

    def require(self, name, ok, ops, detail=""):
        self.results.append({"check": name, "ok": bool(ok), "worst": None, "tol": None,
                             "ops": list(ops), "detail": detail})
        return bool(ok)

    @property
    def ok(self):
        return all(r["ok"] for r in self.results)

    def failed_ops(self):
        return {op for r in self.results if not r["ok"] for op in r["ops"]}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rel_dev(a, b):
    """|a - b| relative to max(|b|, 1), elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1.0)


def tree_digest(path):
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --------------------------------------------------------------- regressors


class Panel:
    """Panel arrays from the CSV, with the day index of each ISO date."""

    def __init__(self, dates, hourly, daily):
        self.dates = dates
        self.index = {d.isoformat(): i for i, d in enumerate(dates)}
        self.h = hourly
        self.daily = daily


def da_design(p, days, hour):
    """DA row: weekday dummies, DA(t-1..t-7), DA ave/min/max of t-1, FL(t), FRES(t), C(t-1), G(t-1)."""
    c = hour - 1
    rows = []
    for t in days:
        dow = p.dates[t].weekday()
        da_prev = p.h["DA"][t - 1]
        rows.append([1.0 if dow == d else 0.0 for d in range(7)]
                    + [p.h["DA"][t - lag, c] for lag in range(1, 8)]
                    + [da_prev.mean(), da_prev.min(), da_prev.max(),
                       p.h["FL"][t, c], p.h["FRES"][t, c],
                       p.daily["C"][t - 1], p.daily["G"][t - 1]])
    return np.array(rows)


def w_design(p, days, hour):
    """W row: const, W*(t-1), FW(t) at hours h-1, h, h+1 (edge hours drop the absent one).

    W* is the realization up to hour 10 of the preceding day and the TSO
    forecast FW afterwards: the 11:00 information cut.
    """
    c = hour - 1
    star = p.h["W"] if hour <= FORECAST_TIME_HOUR else p.h["FW"]
    rows = []
    for t in days:
        row = [1.0, star[t - 1, c]]
        row += [p.h["FW"][t, cc] for cc in (c - 1, c, c + 1) if 0 <= cc < 24]
        rows.append(row)
    return np.array(rows)


def w_point(p, day, hour, window):
    """OLS forecast of wind for ``day`` from the ``window`` preceding days."""
    train = list(range(day - window, day))
    X = w_design(p, train + [day], hour)
    beta = np.linalg.lstsq(X[:-1], p.h["W"][train, hour - 1], rcond=None)[0]
    return float(X[-1] @ beta)


class PinballLP:
    """Quantile regression as the textbook linear program, solved by HiGHS.

    min tau 1'u + (1 - tau) 1'v  subject to  X beta + u - v = y,  u, v >= 0.
    """

    def __init__(self, X, y):
        from scipy.optimize import linprog

        self._linprog = linprog
        n, self.k = X.shape
        self.a_eq = np.hstack([X, np.eye(n), -np.eye(n)])
        self.y = y
        self.bounds = [(None, None)] * self.k + [(0, None)] * (2 * n)

    def solve(self, tau):
        """Optimal (objective, beta)."""
        res = self._linprog(self._cost(tau), A_eq=self.a_eq, b_eq=self.y, bounds=self.bounds,
                            method="highs")
        if res.status != 0:
            raise RuntimeError(f"linprog failed at tau {tau}: {res.message}")
        return res.fun, res.x[:self.k]

    def prediction_range(self, tau, x0, loss, slack):
        """Least and largest x0 @ beta over fits whose loss is at most ``loss + slack``.

        With ``loss`` the optimum this is the set of optimal predictions at
        ``x0``: one point, or an interval where the optimum is a flat face.
        """
        cost = self._cost(tau)
        ends = []
        for sign in (1.0, -1.0):
            objective = np.concatenate([sign * x0, np.zeros(cost.size - self.k)])
            res = self._linprog(objective, A_ub=cost[None, :], b_ub=[loss + slack],
                                A_eq=self.a_eq, b_eq=self.y, bounds=self.bounds, method="highs")
            if res.status != 0:
                raise RuntimeError(f"linprog failed at tau {tau}: {res.message}")
            ends.append(sign * res.fun)
        return ends[0], ends[1]

    def _cost(self, tau):
        n = self.y.size
        return np.concatenate([np.zeros(self.k), np.full(n, tau), np.full(n, 1.0 - tau)])


# ------------------------------------------------------------------- fans


def read_fans(path):
    """{(date, variable): (24, 99) array} from a fans.csv."""
    fans = {}
    for row in read_rows(path):
        grid = fans.setdefault((row["date"], row["variable"]), np.full((24, 99), np.nan))
        grid[int(row["hour"]) - 1] = [float(row[f"p{int(round(t * 100)):02d}"]) for t in TAUS]
    return fans


def realized(p, variable, date):
    d = p.index[date]
    if variable == "SP":
        return p.h["DA"][d] - p.h["ID"][d]
    if variable == "RL":
        return p.h["L"][d] - p.h["RES"][d]
    return p.h[variable][d]


def check_fans_sorted(report, fans, ops):
    worst = 0.0
    for grid in fans.values():
        if not np.all(np.isfinite(grid)):
            return report.require("fans finite and non-decreasing", False, ops, "non finite value")
        worst = max(worst, float(np.max(-np.diff(grid, axis=1), initial=0.0)))
    return report.close("fans finite and non-decreasing", worst, 0.0, ops)


def check_qr_linprog(report, fans, p, window, samples, ops):
    """DA fan rows against 99 HiGHS pinball fits on the documented DA design.

    The row must be the 99 optimal predictions, one per tau: there must be
    a one-to-one assignment of its values to the taus in which each value
    lies within 2e-5 relative of an optimal prediction of its tau (the file
    keeps 6 significant digits; the two solvers' own tolerances add about
    1e-6).  Where the row equals the sorted HiGHS predictions, a tau's
    optimal prediction is HiGHS's.  At a few taus per hour the optimum is
    not unique (a flat face) and the two solvers may pick different optimal
    points, which also moves the neighbours along the sorted row; for the
    taus at such mismatched positions the optimal predictions are the whole
    range of fits whose pinball loss is within 1e-7 relative of the optimum.
    Each tau takes exactly one value, so a row that repeats, drops or
    relabels a tau's fit fails.  The check value is the largest distance,
    in units of 2e-5 relative, between a value and its tau's optimal
    predictions in the best assignment; it passes at 1.
    """
    from scipy.optimize import linear_sum_assignment

    worst, off_total = 0.0, 0
    for date, hour in samples:
        day = p.index[date]
        X = da_design(p, list(range(day - window, day + 1)), hour)
        lp = PinballLP(X[:-1], p.h["DA"][day - window:day, hour - 1])
        fits = [lp.solve(tau) for tau in TAUS]
        preds = np.array([X[-1] @ beta for _, beta in fits])
        order = np.argsort(preds, kind="stable")
        row = fans[(date, "DA")][hour - 1]
        lo, hi = preds.copy(), preds.copy()
        off = order[np.flatnonzero(rel_dev(row, preds[order]) > QR_RTOL)]
        off_total += off.size
        for j in off:
            lo[j], hi[j] = lp.prediction_range(TAUS[j], X[-1], fits[j][0],
                                               1e-7 * max(fits[j][0], 1.0))
        # scores[i, j]: distance of value i from the optimal predictions of tau j
        gap = np.maximum(np.maximum(lo[None, :] - row[:, None], row[:, None] - hi[None, :]), 0.0)
        scores = gap / np.maximum(np.abs(row), 1.0)[:, None] / QR_RTOL
        rows, cols = linear_sum_assignment(np.where(scores > 1.0, 1e6, 0.0) + scores)
        worst = max(worst, float(scores[rows, cols].max()))
    return report.close("qr fan rows are HiGHS pinball fits", worst, 1.0, ops,
                        f"{len(samples)} (date, hour) samples; {off_total} values off the "
                        f"sorted HiGHS row, matched on the optimal ranges of their taus")


def pinball_mean(fan_rows, y):
    diff = y[:, None] - fan_rows
    return np.where(diff < 0.0, (TAUS - 1.0) * diff, TAUS * diff).mean(axis=1)


def check_evaluate(report, fans, p, eval_dir, ops):
    """evaluate's CRPS and PICP against plain numpy on the stored fans."""
    dates = sorted({d for d, _ in fans})
    variables = sorted({v for _, v in fans})
    crps_rows = {(r["variable"], r["hour"]): float(r["crps"])
                 for r in read_rows(os.path.join(eval_dir, "crps.csv"))}
    cov_rows = {(r["variable"], r["level"], r["hour"]): float(r["picp"])
                for r in read_rows(os.path.join(eval_dir, "coverage.csv"))}
    worst_crps, worst_picp = 0.0, 0.0
    for v in variables:
        stack = np.stack([fans[(d, v)] for d in dates])  # (days, 24, 99)
        ys = np.stack([realized(p, v, d) for d in dates])  # (days, 24)
        scores = pinball_mean(stack.reshape(-1, 99), ys.reshape(-1)).reshape(len(dates), 24)
        for h in range(24):
            worst_crps = max(worst_crps, float(rel_dev(crps_rows[(v, str(h + 1))], scores[:, h].mean())))
        worst_crps = max(worst_crps, float(rel_dev(crps_rows[(v, "all")], scores.mean())))
        for level, (lo, hi) in (("0.8", (9, 89)), ("0.9", (4, 94)), ("0.98", (0, 98))):
            hits = (ys >= stack[:, :, lo]) & (ys <= stack[:, :, hi])
            per_hour = hits.mean(axis=0)
            for h in range(24):
                worst_picp = max(worst_picp, abs(cov_rows[(v, level, str(h + 1))] - per_hour[h]))
            worst_picp = max(worst_picp, abs(cov_rows[(v, level, "all")] - per_hour.mean()))
    report.close("evaluate crps equals numpy pinball mean", worst_crps, FILE_RTOL, ops)
    report.close("evaluate picp equals hit shares on p10/p90, p05/p95, p01/p99",
                 worst_picp, 1e-6, ops)


# ----------------------------------------------------------- backtest bundle


def check_picp_monotone(report, bundle, ops):
    by_cell = {}
    for r in read_rows(os.path.join(bundle, "coverage.csv")):
        by_cell.setdefault((r["method"], r["variable"], r["hour"]), []).append(
            (float(r["level"]), float(r["picp"])))
    worst = 0.0
    for cells in by_cell.values():
        picps = [picp for _, picp in sorted(cells)]
        worst = max(worst, float(np.max(-np.diff(picps), initial=0.0)))
    return report.close("picp non-decreasing in the interval level", worst, 0.0, ops,
                        f"{len(by_cell)} (method, variable, hour) cells")


def oracle_w_hat(p, dates, window):
    return {(date, h): w_point(p, p.index[date], h, window) for date in dates for h in range(1, 25)}


def check_w_points(report, bundle, p, w_hat, ops):
    worst = 0.0
    seen = 0
    for r in read_rows(os.path.join(bundle, "point_forecasts.csv")):
        if r["kind"] == "W":
            worst = max(worst, float(rel_dev(float(r["forecast"]), w_hat[(r["date"], int(r["hour"]))])))
            seen += 1
    ok = seen == len(w_hat)
    return report.close("W point forecasts equal lstsq on the documented W row",
                        worst if ok else math.inf, FILE_RTOL, ops, f"{seen} rows")


def check_decisions(report, bundle, p, w_hat, c_om, ops):
    """Per-MWh profit formula, and the curtailment rules of tau = 1, naive and limited."""
    worst = 0.0
    bad_rules = []
    for r in read_rows(os.path.join(bundle, "decisions.csv")):
        d, h = p.index[r["date"]], int(r["hour"]) - 1
        da, idp, w = p.h["DA"][d, h], p.h["ID"][d, h], p.h["W"][d, h]
        curtail = r["curtail"] == "1"
        if curtail or w <= 0.0:
            expected = 0.0
        else:
            qw = float(r["q"]) * w_hat[(r["date"], h + 1)] / w
            expected = qw * da + (1.0 - qw) * idp - c_om
        worst = max(worst, float(rel_dev(float(r["profit"]), expected)))
        if (r["tau"] == "1" or r["strategy"] == "naive") and curtail:
            bad_rules.append(f"{r['strategy']} tau={r['tau']} curtails on {r['date']} h{h + 1}")
        if r["strategy"] == "limited" and curtail != (da < 0.0):
            bad_rules.append(f"limited curtail={curtail} at DA={da} on {r['date']} h{h + 1}")
    report.close("decision profits equal the per-MWh formula", worst, FILE_RTOL, ops)
    report.require("tau = 1 and naive never curtail, limited curtails iff DA < 0",
                   not bad_rules, ops, "; ".join(bad_rules[:3]))


def check_strategy(report, bundle, ops):
    """strategy.csv frequencies and means recomputed from decisions.csv."""
    streams = {}
    for r in read_rows(os.path.join(bundle, "decisions.csv")):
        streams.setdefault((r["strategy"], r["tau"]), []).append(
            (r["curtail"] == "1", float(r["profit"])))
    worst = 0.0
    rows = read_rows(os.path.join(bundle, "strategy.csv"))
    for r in rows:
        stream = streams[(r["strategy"], r["tau"])]
        profits = np.array([x for _, x in stream])
        traded = np.array([not c for c, _ in stream])
        scale = max(1.0, float(np.max(np.abs(profits))))
        worst = max(worst, abs(float(r["trade_frequency"]) - traded.mean()))
        worst = max(worst, abs(float(r["avg_profit"]) - profits.mean()) / scale)
        if traded.any():
            worst = max(worst, abs(float(r["profit_per_trade"]) - profits[traded].mean()) / scale)
        elif r["profit_per_trade"] != "nan":
            worst = math.inf
    ok = len(rows) == len(streams)
    return report.close("strategy means and frequencies match decisions.csv",
                        worst if ok else math.inf, FILE_RTOL, ops, f"{len(rows)} streams")


def crps_all(bundle, variable):
    """{method: overall CRPS} of one variable from a crps.csv."""
    return {r["method"]: float(r["crps"]) for r in read_rows(os.path.join(bundle, "crps.csv"))
            if r["variable"] == variable and r["hour"] == "all"}


def check_sp_corr_beats_uncorr(report, bundle, ops):
    sp = crps_all(bundle, "SP")
    return report.require("ms_corr SP CRPS below ms_uncorr", sp["ms_corr"] < sp["ms_uncorr"], ops,
                          f"corr {sp['ms_corr']:.4g} vs uncorr {sp['ms_uncorr']:.4g}")


def check_backtest_bundle(report, bundle, p, window, c_om, ops):
    dates = sorted({r["date"] for r in read_rows(os.path.join(bundle, "point_forecasts.csv"))})
    w_hat = oracle_w_hat(p, dates, window)
    check_picp_monotone(report, bundle, ops)
    check_w_points(report, bundle, p, w_hat, ops)
    check_decisions(report, bundle, p, w_hat, c_om, ops)
    check_strategy(report, bundle, ops)
    return dates


# ------------------------------------------------------------ cli products


def read_members(path):
    """{hour: (M, 5) array} and the variable names of a members file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        by_hour = {}
        for row in reader:
            by_hour.setdefault(int(row[0]), []).append([float(x) for x in row[2:]])
    return header[2:], {h: np.array(rows) for h, rows in by_hour.items()}


def check_members(report, members_path, fans, date, expected_count, ops):
    variables, members = read_members(members_path)
    counts = sorted({m.shape[0] for m in members.values()})
    report.require("members per hour", len(members) == 24 and counts == [expected_count], ops,
                   f"counts {counts}, expected {expected_count}")
    worst = 0.0
    for h in range(1, 25):
        m = members.get(h)
        if m is None:
            return report.require("fan rows equal numpy.quantile of the members", False, ops,
                                  f"hour {h} has no members")
        columns = {v: m[:, k] for k, v in enumerate(variables)}
        columns["SP"] = columns["DA"] - columns["ID"]
        columns["RL"] = columns["L"] - columns["RES"]
        for v, values in columns.items():
            ref = np.quantile(values, TAUS, method="linear")
            worst = max(worst, float(np.max(rel_dev(fans[(date, v)][h - 1], ref))))
    report.close("fan rows equal numpy.quantile of the members", worst, FILE_RTOL, ops)
    corr = np.mean([np.corrcoef(members[h][:, variables.index("DA")],
                                members[h][:, variables.index("ID")])[0, 1] for h in members])
    report.close("DA-ID member correlation near 0.9", abs(corr - 0.9), 0.1, ops,
                 f"mean over hours {corr:.4f}")


def check_q_histogram(report, report_dir, n_days, ops):
    totals = {}
    for r in read_rows(os.path.join(report_dir, "q_histogram.csv")):
        totals[r["strategy"]] = totals.get(r["strategy"], 0) + int(r["count"])
    bad = {s: n for s, n in totals.items() if n != 24 * n_days}
    return report.require("q_histogram counts sum to 24 x days", totals and not bad, ops,
                          f"{len(totals)} strategies, off: {bad}")
