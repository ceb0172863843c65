"""Seeded synthetic market panels, written as CSV in the loader's default schema.

The generator is the benchmark's own and imports nothing from ``splitcast``:
every hour of DA, ID, load, wind and solar is an AR(1) over days around a
diurnal mean, innovations are correlated across the five series, the TSO
forecasts are the realization plus independent noise, and the fuel prices
are daily AR(1) series.  The parameters are those of the package's default
synthetic test bed (``splitcast.panel.generate_synthetic_panel``), restated
here on purpose rather than imported: the benchmark compares a commit with
its parent on the same seeds, so its inputs must not move when a commit
changes the package's generator or its defaults, and that generator has no
way to stratify the evaluation days (below).

On the last ``stratified_days`` days (the evaluation days of a workload) the
standardized innovations of each series are not independent draws but a
seeded permutation of the 24 normal quantiles over the hours, and every
second such day repeats the previous day's innovations with the sign
flipped (antithetic pairs).  The forecast error of an hour is dominated by
its innovation, and consecutive days share almost all of their training
window, so this takes most of the luck of a few dozen draws out of the
mean CRPS: across seeds ``crps_DA`` then moves with the forecasts rather
than with the sample.  The training history and the permutations still
come from the seed.
"""

import csv
import datetime as dt
import math
from statistics import NormalDist

import numpy as np

SERIES = ("DA", "ID", "L", "W", "S")
CORR = np.array([
    [1.00, 0.90, 0.35, -0.25, -0.10],
    [0.90, 1.00, 0.30, -0.20, -0.10],
    [0.35, 0.30, 1.00, 0.00, 0.05],
    [-0.25, -0.20, 0.00, 1.00, 0.10],
    [-0.10, -0.10, 0.05, 0.10, 1.00],
])
PHI = np.array([0.75, 0.75, 0.85, 0.70, 0.60])
LEVEL = np.array([38.0, 38.0, 62.0, 10.0, 6.0])
AMPLITUDE = np.array([7.0, 7.0, 9.0, 1.0, 1.5])
PHASE = np.array([0.0, 0.1, -1.1, 1.3, -2.0])
NOISE_SD = np.array([8.0, 8.5, 2.0, 1.0, 0.7])
FORECAST_SD = {"FL": 0.8, "FW": 0.5, "FS": 0.35}
FUEL = (("C", 70.0, 0.6), ("G", 20.0, 0.25))
FUEL_PHI = 0.98
START_DATE = dt.date(2020, 1, 1)

HEADER = ("date", "hour", "da", "id", "load", "wind", "solar",
          "load_fc", "wind_fc", "solar_fc", "coal", "gas")
_STRATA = np.array([NormalDist().inv_cdf((i + 0.5) / 24.0) for i in range(24)])


def generate(n_days, seed, stratified_days=0):
    """Return ``(dates, hourly, daily)``: hourly arrays are (n_days, 24)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    z = rng.standard_normal((n_days, 24, 5))
    first = n_days - stratified_days
    for t in range(first, n_days):
        for k in range(5):
            z[t, :, k] = _STRATA[rng.permutation(24)] if (t - first) % 2 == 0 else -z[t - 1, :, k]
    eps = (z @ np.linalg.cholesky(CORR).T) * NOISE_SD

    hours = np.arange(24)
    means = LEVEL[:, None] + AMPLITUDE[:, None] * np.sin(
        2.0 * math.pi * hours[None, :] / 24.0 + PHASE[:, None])
    anomalies = np.empty((n_days, 5, 24))
    anomalies[0] = eps[0].T / np.sqrt(1.0 - PHI ** 2)[:, None]
    for t in range(1, n_days):
        anomalies[t] = PHI[:, None] * anomalies[t - 1] + eps[t].T
    hourly = {name: anomalies[:, k, :] + means[k] for k, name in enumerate(SERIES)}
    for name in ("L", "W", "S"):  # generation cannot be negative
        hourly[name] = np.maximum(hourly[name], 0.0)
    for fc, src in (("FL", "L"), ("FW", "W"), ("FS", "S")):
        noise = rng.standard_normal((n_days, 24)) * FORECAST_SD[fc]
        hourly[fc] = np.maximum(hourly[src] + noise, 0.0)

    daily = {}
    for name, level, sd in FUEL:
        shocks = rng.standard_normal(n_days) * sd
        series = np.empty(n_days)
        series[0] = level + shocks[0] / math.sqrt(1.0 - FUEL_PHI ** 2)
        for t in range(1, n_days):
            series[t] = level + FUEL_PHI * (series[t - 1] - level) + shocks[t]
        daily[name] = series
    dates = [START_DATE + dt.timedelta(days=i) for i in range(n_days)]
    return dates, hourly, daily


def write_csv(path, n_days, seed, stratified_days=0):
    """Generate a panel and write it; returns the list of dates."""
    dates, hourly, daily = generate(n_days, seed, stratified_days)
    order = ("DA", "ID", "L", "W", "S", "FL", "FW", "FS")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for d, date in enumerate(dates):
            tail = [repr(float(daily["C"][d])), repr(float(daily["G"][d]))]
            for h in range(24):
                writer.writerow([date.isoformat(), str(h + 1)]
                                + [repr(float(hourly[name][d, h])) for name in order] + tail)
    return dates


def read_csv(path):
    """Parse a panel written by :func:`write_csv` without using the package.

    Returns ``(dates, hourly, daily)`` with RES = W + S and FRES = FW + FS,
    the composites the loader documents.
    """
    names = dict(zip(HEADER[2:], ("DA", "ID", "L", "W", "S", "FL", "FW", "FS", "C", "G")))
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["date"], {})[int(row["hour"])] = row
    dates = sorted(rows)
    hourly = {name: np.empty((len(dates), 24)) for name in names.values()
              if name not in ("C", "G")}
    daily = {"C": np.empty(len(dates)), "G": np.empty(len(dates))}
    for d, date in enumerate(dates):
        for h in range(1, 25):
            row = rows[date][h]
            for col, name in names.items():
                if name in daily:
                    daily[name][d] = float(row[col])
                else:
                    hourly[name][d, h - 1] = float(row[col])
    hourly["RES"] = hourly["W"] + hourly["S"]
    hourly["FRES"] = hourly["FW"] + hourly["FS"]
    return [dt.date.fromisoformat(d) for d in dates], hourly, daily
