"""Hourly market data panel: its value rules, loading and writing, the series tables.

The panel is a dense grid of consecutive calendar days times 24 delivery
hours.  Hour ``h`` in 1..24 is stored in column ``h - 1``.  Hourly series:

========  =====================================================
``DA``    day ahead auction price, EUR/MWh
``ID``    intraday price index, EUR/MWh
``L``     system load, GWh
``W``     wind generation, GWh
``S``     solar generation, GWh
``RES``   renewable generation, a composite (``COMPOSITES``)
``FL``    TSO day ahead load forecast, GWh
``FW``    TSO day ahead wind forecast, GWh
``FS``    TSO day ahead solar forecast, GWh
``FRES``  TSO renewable forecast, a composite (``COMPOSITES``)
========  =====================================================

Daily series ``C`` and ``G`` are fuel (coal, gas) closing prices.  Prices
may be negative; load and generation may not.  The tables ``COMPOSITES``
(sums), ``DERIVED`` (the differences SP and RL), ``STAND_INS`` (what a
starred series reads after ``FORECAST_TIME_HOUR``) and ``FORECASTS`` (the
TSO forecast of each series) are the one statement of how series relate;
every other module reads them.
"""

import csv
import datetime as dt
import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GapAtBoundaryError,
    InvalidDGPError,
    MissingColumnError,
    NegativeGenerationError,
    NonHourlyResolutionError,
    PanelIntegrityError,
    UnparseableTimestampError,
)

HOURLY_SERIES = ("DA", "ID", "L", "W", "S", "RES", "FL", "FW", "FS", "FRES")
# the hourly series a panel file carries; RES and FRES are computed from them
READ_SERIES = ("DA", "ID", "L", "W", "S", "FL", "FW", "FS")
DAILY_SERIES = ("C", "G")
GENERATION_SERIES = ("L", "W", "S", "RES", "FL", "FW", "FS", "FRES")
COMPOSITE_TOL = 1e-9

# Hour of day (1..24) after which same day realizations are unavailable at
# forecasting time.  Hours 1..10 are observed, hours 11..24 are not.
FORECAST_TIME_HOUR = 10

# composite -> (a, b): the series is a + b
COMPOSITES = {"RES": ("W", "S"), "FRES": ("FW", "FS")}
# derived -> (a, b): the series is a - b
DERIVED = {"SP": ("DA", "ID"), "RL": ("L", "RES")}
# starred -> stand in: the preceding day's value after FORECAST_TIME_HOUR
STAND_INS = {"L": "FL", "W": "FW", "RES": "FRES", "ID": "DA", "SP": "DA"}
# TSO forecast -> the series it forecasts, published before the auction
FORECASTS = {"FL": "L", "FW": "W", "FS": "S"}

DEFAULT_SCHEMA = {
    "date": "date",
    "hour": "hour",
    "DA": "da",
    "ID": "id",
    "L": "load",
    "W": "wind",
    "S": "solar",
    "FL": "load_fc",
    "FW": "wind_fc",
    "FS": "solar_fc",
    "C": "coal",
    "G": "gas",
}
# written by write_panel; when a file has them MarketPanel checks them against W + S
OPTIONAL_SCHEMA = {"RES": "res", "FRES": "res_fc"}


@dataclass(frozen=True)
class MarketPanel:
    """Immutable market data grid.

    Every panel meets the value rules, however it is built: each hourly
    series is finite, the ``GENERATION_SERIES`` are non-negative, the daily
    series are finite, and each composite is stored as the sum of its parts,
    which a given one must match within ``COMPOSITE_TOL``.  A violation
    raises :class:`NegativeGenerationError` or :class:`PanelIntegrityError`
    naming the series, date and hour.  A panel holds one value per cell:
    :func:`load_panel` resolves a file's clock-change cells before it builds
    one.
    """

    dates: tuple
    hourly: dict
    daily: dict

    def __post_init__(self):
        dates, n = self.dates, len(self.dates)
        for a, b in zip(dates, dates[1:]):
            if (b - a).days != 1:
                raise PanelIntegrityError(f"dates not consecutive: {a} -> {b}")
        for series, names, shape in ((self.hourly, HOURLY_SERIES, (n, 24)),
                                     (self.daily, DAILY_SERIES, (n,))):
            for name in names:
                if name in series and series[name].shape != shape:
                    raise PanelIntegrityError(
                        f"{name}: expected shape {shape}, got {series[name].shape}")
        for name in DAILY_SERIES:
            arr = self.daily[name]
            if not np.isfinite(arr).all():
                day = int(np.argmin(np.isfinite(arr)))
                raise PanelIntegrityError(f"non finite value in {name} on {dates[day]}: {arr[day]}")
            arr.flags.writeable = False

        hourly = _checked(self.hourly, False, lambda i: f"{dates[i // 24]} h{i % 24 + 1}")
        for arr in hourly.values():
            arr.flags.writeable = False
        object.__setattr__(self, "hourly", hourly)

    @property
    def n_days(self):
        return len(self.dates)

    def day_index(self, date):
        idx = (date - self.dates[0]).days
        if idx < 0 or idx >= self.n_days or self.dates[idx] != date:
            raise KeyError(f"{date} not in panel")
        return idx

    def weekdays(self):
        """Day of week per panel day, Monday = 0."""
        return np.array([d.weekday() for d in self.dates], dtype=np.intp)


def _checked(series, nan_ok, where):
    """The read series of ``series`` and each composite as the sum of its
    parts, once all meet the value rules of :class:`MarketPanel`.  NaN, a
    blank reading, passes only if ``nan_ok``; ``where(i)`` names flat cell
    ``i``."""
    def first(name, bad):
        i = int(np.argmax(bad))
        return f"{name} at {where(i)}", series[name].flat[i]

    for name in READ_SERIES:
        bad = ~(np.isfinite(series[name]) | np.isnan(series[name]) & nan_ok)
        if bad.any():
            cell, value = first(name, bad)
            raise PanelIntegrityError(f"non finite value in {cell}: {value}")
    for name in GENERATION_SERIES:
        if name in series and (series[name] < 0.0).any():
            cell, value = first(name, series[name] < 0.0)
            raise NegativeGenerationError(f"negative value in {cell}: {value}")
    out = {name: series[name] for name in READ_SERIES}
    for name, (a, b) in COMPOSITES.items():
        out[name] = out[a] + out[b]
        if name in series:  # a NaN on either side is a reading to fill, not a mismatch
            off = np.abs(series[name] - out[name]) > COMPOSITE_TOL
            if off.any():
                raise PanelIntegrityError(f"{first(name, off)[0]} is not wind + solar")
    return out


# --------------------------------------------------------------------------
# loading and writing


def _parse_date(text):
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise UnparseableTimestampError(f"bad date {text!r}") from exc


def _parse_hour(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise UnparseableTimestampError(f"bad hour {text!r}") from exc
    if not (value.is_integer() and 1 <= value <= 24):
        raise NonHourlyResolutionError(f"hour {text!r} not an integer in 1..24")
    return int(value)


def _parse_value(text, where):
    text = text.strip()
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise PanelIntegrityError(f"bad numeric value {text!r} for {where}") from exc


def _last_observed(gaps):
    """Along the last axis of ``gaps``, the index of the nearest position at
    or before each one that is not a gap, -1 where there is none."""
    return np.maximum.accumulate(np.where(gaps, -1, np.arange(gaps.shape[-1])), axis=-1)


def load_panel(path, schema=None):
    """Read a CSV file with one row per (date, hour) into a :class:`MarketPanel`.

    ``schema`` optionally remaps canonical field names (``date``, ``hour``,
    ``DA``, ``ID``, ``L``, ``W``, ``S``, ``FL``, ``FW``, ``FS``, ``C``,
    ``G``, ``RES``, ``FRES``) to the column names used in the file.  Fields
    absent from a short row read as blank.  Clock-change cells are resolved
    as the file is read: every reading is first checked against the value
    rules of :class:`MarketPanel`, a doubled (date, hour) row's own
    ``RES``/``FRES`` included; a doubled cell then becomes the mean of its
    two readings, and a gap (an absent row, or a blank reading in either
    copy of a cell) the mean of the nearest observed values of the same
    series before and after it.  A gap at either end of the panel raises
    :class:`GapAtBoundaryError`.  Fuel gaps (blank ``C``/``G``) are forward
    filled from the last quoted day.  RES and FRES are the sums of the
    repaired parts.  A literal ``nan`` is a non finite reading, not a gap.
    """
    return _read_panel(path, schema)[0]


def _read_panel(path, schema):
    """:func:`load_panel`'s panel, the number of cells with a blank or
    absent first reading and the number of doubled cells."""
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA) - set(OPTIONAL_SCHEMA)
        if unknown:
            raise MissingColumnError(f"unknown schema fields: {sorted(unknown)}")
        colmap.update(schema)

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for fieldname, col in colmap.items():
            if col not in header:
                raise MissingColumnError(f"column {col!r} (field {fieldname}) not in {path}")
        colmap = {**OPTIONAL_SCHEMA, **colmap}
        index = {col: i for i, col in enumerate(header)}  # a repeated name reads its last column
        given = [name for name in OPTIONAL_SCHEMA if colmap[name] in index]
        names = (*READ_SERIES, *given, *DAILY_SERIES)
        cols = [index[colmap[name]] for name in names]
        idate, ihour = index[colmap["date"]], index[colmap["hour"]]
        # a row's key is date ordinal * 24 + hour - 1; each distinct text is parsed once
        day_key = functools.cache(lambda text: _parse_date(text).toordinal() * 24)
        hour_key = functools.cache(lambda text: _parse_hour(text) - 1)
        keys, readings = array("q"), array("d")
        blanks = array("q")  # the flat positions in readings of the blank ones
        for row in reader:
            if not row:
                continue  # a blank line
            row += [""] * (len(header) - len(row))
            keys.append(day_key(row[idate]) + hour_key(row[ihour]))
            try:
                readings.extend([float(row[i]) for i in cols])
            except ValueError:  # a blank reading, or a bad one
                blanks.extend(len(readings) + j for j, i in enumerate(cols) if not row[i].strip())
                where = f"{_parse_date(row[idate])} h{_parse_hour(row[ihour])}"
                readings.extend([_parse_value(row[i], f"{name}@{where}")
                                 for name, i in zip(names, cols)])
    if not keys:
        raise PanelIntegrityError(f"{path}: no data rows")

    keys = np.frombuffer(keys, dtype=np.int64)
    values = np.frombuffer(readings).reshape(keys.size, len(names))
    start = int(keys.min()) // 24
    cells = keys - 24 * start  # day index * 24 + hour index
    n = int(cells.max()) // 24 + 1
    absent = np.flatnonzero(np.bincount(cells // 24) == 0)
    if absent.size:
        first_absent = dt.date.fromordinal(start + int(absent[0]))
        raise PanelIntegrityError(f"{absent.size} whole day{'s' * (absent.size > 1)} absent "
                                  f"from file, first {first_absent.isoformat()}")
    dates = tuple(dt.date.fromordinal(start + i) for i in range(n))
    count = np.bincount(cells)
    if count.max() > 2:
        day, hour = divmod(int(np.argmax(count > 2)), 24)
        raise NonHourlyResolutionError(f"cell {dates[day]} h{hour + 1} appears more than twice")

    # the first reading of each cell fills the grid; any later row is its second reading
    filled, first = np.unique(cells, return_index=True)
    n_hourly = len(names) - len(DAILY_SERIES)
    grid = np.full((n_hourly, 24 * n), np.nan)
    grid[:, filled] = values[first, :n_hourly].T
    later = np.ones(cells.size, dtype=bool)
    later[first] = False
    # only a blank reading is a gap: a literal nan is a non finite reading
    literal_nan = np.isnan(values)
    literal_nan.flat[np.frombuffer(blanks, dtype=np.int64)] = False
    if literal_nan.any():
        r, j = divmod(int(np.argmax(literal_nan)), len(names))
        day, hour = divmod(int(cells[r]), 24)
        where = (f"on {dates[day]}" if names[j] in DAILY_SERIES else
                 f"at {dates[day]} h{hour + 1}{' (second reading)' * bool(later[r])}")
        raise PanelIntegrityError(f"non finite value in {names[j]} {where}: nan")
    doubled, second = cells[later], values[later, :n_hourly].T
    # every reading meets the value rules before any is averaged or copied into a gap
    _checked(dict(zip(names, grid.reshape(n_hourly, n, 24))), True,
             lambda i: f"{dates[i // 24]} h{i % 24 + 1}")
    _checked(dict(zip(names, second)), True,
             lambda i: f"{dates[doubled[i] // 24]} h{doubled[i] % 24 + 1} (second reading)")

    read = grid[:len(READ_SERIES)]
    n_missing = int(np.isnan(read).any(axis=0).sum())
    read[:, doubled] = (read[:, doubled] + second[:len(READ_SERIES)]) / 2.0
    gaps = np.isnan(read)
    if gaps.any():
        before = _last_observed(gaps)
        after = 24 * n - 1 - _last_observed(gaps[:, ::-1])[:, ::-1]
        edge = gaps & ((before < 0) | (after == 24 * n))
        if edge.any():
            j, pos = divmod(int(np.argmax(edge)), 24 * n)
            raise GapAtBoundaryError(f"{READ_SERIES[j]} at {dates[pos // 24]} h{pos % 24 + 1} "
                                     f"is missing and touches the panel boundary")
        j, pos = np.nonzero(gaps)
        read[j, pos] = (read[j, before[j, pos]] + read[j, after[j, pos]]) / 2.0

    daily = {}
    for j, name in enumerate(DAILY_SERIES, start=n_hourly):
        quoted = ~np.isnan(values[:, j])
        quote, quote_day = values[quoted, j], cells[quoted] // 24
        days, first_quote = np.unique(quote_day, return_index=True)
        col = np.full(n, np.nan)
        col[days] = quote[first_quote]
        changed = np.flatnonzero(quote != col[quote_day])
        if changed.size:
            raise PanelIntegrityError(f"{name} not constant within {dates[quote_day[changed[0]]]}")
        if math.isnan(col[0]):
            raise GapAtBoundaryError(f"{name} has no quote on the first panel day, {dates[0]}")
        # weekend and holiday gaps carry the last quoted closing price
        daily[name] = col[_last_observed(np.isnan(col))]

    hourly = dict(zip(READ_SERIES, read.reshape(len(READ_SERIES), n, 24)))
    return MarketPanel(dates=dates, hourly=hourly, daily=daily), n_missing, int(doubled.size)


def write_panel(panel, path, schema=None):
    """Write a panel to CSV, one row per (date, hour) with its given RES and
    FRES columns, so that :func:`load_panel` reproduces it exactly.  Floats
    are written with shortest round trip precision."""
    colmap = {**DEFAULT_SCHEMA, **OPTIONAL_SCHEMA, **(schema or {})}
    header = [colmap[f] for f in ("date", "hour", *READ_SERIES, *DAILY_SERIES, *COMPOSITES)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for di, date in enumerate(panel.dates):
            for hi in range(24):
                row = [date.isoformat(), str(hi + 1)]
                row += [repr(float(panel.hourly[name][di, hi])) for name in READ_SERIES]
                row += [repr(float(panel.daily[name][di])) for name in DAILY_SERIES]
                row += [repr(float(panel.hourly[name][di, hi])) for name in COMPOSITES]
                writer.writerow(row)


# --------------------------------------------------------------------------
# synthetic data generator


SYNTH_SERIES = ("DA", "ID", "L", "W", "S")

_DEFAULT_CORR = np.array([
    # DA     ID     L      W      S
    [1.00, 0.90, 0.35, -0.25, -0.10],
    [0.90, 1.00, 0.30, -0.20, -0.10],
    [0.35, 0.30, 1.00, 0.00, 0.05],
    [-0.25, -0.20, 0.00, 1.00, 0.10],
    [-0.10, -0.10, 0.05, 0.10, 1.00],
])

_PHASE = {"DA": 0.0, "ID": 0.1, "L": -1.1, "W": 1.3, "S": -2.0}


@dataclass(frozen=True)
class SyntheticConfig:
    """Linear Gaussian test bed configuration.

    Each hour of each series follows an AR(1) over days around a diurnal
    mean profile; innovations are correlated across series through
    ``noise_corr``.  Prices can additionally load on the contemporaneous
    load and renewables anomalies.  TSO forecast columns are the realized
    series plus independent Gaussian noise.
    """

    days: int = 400
    start_date: dt.date = dt.date(2020, 1, 1)
    phi: dict = field(default_factory=lambda: {"DA": 0.75, "ID": 0.75, "L": 0.85, "W": 0.70, "S": 0.60})
    level: dict = field(default_factory=lambda: {"DA": 38.0, "ID": 38.0, "L": 62.0, "W": 10.0, "S": 6.0})
    diurnal_amplitude: dict = field(default_factory=lambda: {"DA": 7.0, "ID": 7.0, "L": 9.0, "W": 1.0, "S": 1.5})
    noise_sd: dict = field(default_factory=lambda: {"DA": 8.0, "ID": 8.5, "L": 2.0, "W": 1.0, "S": 0.7})
    noise_corr: np.ndarray = field(default_factory=lambda: _DEFAULT_CORR.copy())
    price_on_load: float = 0.0
    price_on_res: float = 0.0
    forecast_noise_sd: dict = field(default_factory=lambda: {"FL": 0.8, "FW": 0.5, "FS": 0.35})
    fuel_level: tuple = (70.0, 20.0)
    fuel_phi: float = 0.98
    fuel_sd: tuple = (0.6, 0.25)


def _diurnal_mean(cfg, name):
    hours = np.arange(24)
    return cfg.level[name] + cfg.diurnal_amplitude[name] * np.sin(
        2.0 * math.pi * hours / 24.0 + _PHASE[name])


def generate_synthetic_panel(cfg, seed):
    """Generate a panel from a :class:`SyntheticConfig`.

    The same seed always yields bit identical output.  Raises
    :class:`InvalidDGPError` for explosive AR coefficients or a non
    positive definite innovation correlation.
    """
    if cfg.days < 15:
        raise InvalidDGPError("need at least 15 days of synthetic data")
    for name in SYNTH_SERIES:
        if abs(cfg.phi[name]) >= 1.0:
            raise InvalidDGPError(f"|phi| >= 1 for {name}")
        if cfg.noise_sd[name] < 0.0:
            raise InvalidDGPError(f"negative noise sd for {name}")
    if abs(cfg.fuel_phi) >= 1.0:
        raise InvalidDGPError("|phi| >= 1 for fuel prices")
    corr = np.asarray(cfg.noise_corr, dtype=np.float64)
    if corr.shape != (5, 5) or not np.allclose(corr, corr.T):
        raise InvalidDGPError("noise_corr must be a symmetric 5x5 matrix")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise InvalidDGPError("noise_corr not positive definite") from exc

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = cfg.days
    sd = np.array([cfg.noise_sd[name] for name in SYNTH_SERIES])
    phi = np.array([cfg.phi[name] for name in SYNTH_SERIES])
    means = np.stack([_diurnal_mean(cfg, name) for name in SYNTH_SERIES])  # (5, 24)

    z = rng.standard_normal((n, 24, 5))
    eps = (z @ chol.T) * sd  # innovations, correlated across series

    anomalies = np.empty((n, 5, 24))
    start_scale = 1.0 / np.sqrt(1.0 - phi ** 2)
    anomalies[0] = eps[0].T * start_scale[:, None]
    for t in range(1, n):
        anomalies[t] = phi[:, None] * anomalies[t - 1] + eps[t].T

    values = {name: anomalies[:, i, :] + means[i][None, :] for i, name in enumerate(SYNTH_SERIES)}
    if cfg.price_on_load or cfg.price_on_res:
        load_anom = anomalies[:, 2, :]
        res_anom = anomalies[:, 3, :] + anomalies[:, 4, :]
        for name in ("DA", "ID"):
            values[name] = values[name] + cfg.price_on_load * load_anom + cfg.price_on_res * res_anom

    hourly = {name: values[name] for name in SYNTH_SERIES}
    for fc_name, src in FORECASTS.items():
        noise_sd = cfg.forecast_noise_sd[fc_name]
        noise = rng.standard_normal((n, 24)) * noise_sd if noise_sd > 0 else np.zeros((n, 24))
        hourly[fc_name] = hourly[src] + noise

    daily = {}
    for (name, level, fsd) in (("C", cfg.fuel_level[0], cfg.fuel_sd[0]),
                               ("G", cfg.fuel_level[1], cfg.fuel_sd[1])):
        shocks = rng.standard_normal(n) * fsd
        series = np.empty(n)
        series[0] = level + shocks[0] / math.sqrt(1.0 - cfg.fuel_phi ** 2)
        for t in range(1, n):
            series[t] = level + cfg.fuel_phi * (series[t - 1] - level) + shocks[t]
        daily[name] = series

    dates = tuple(cfg.start_date + dt.timedelta(days=i) for i in range(n))
    return MarketPanel(dates=dates, hourly=hourly, daily=daily)
