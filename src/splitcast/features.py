"""Regressor rows for the per hour expert models.

One linear expert per (kind, hour) forecasts a variable from the 11:00
information set of its day ahead auction.  ``REGRESSORS`` lists each kind's
regressors in row order.  A :class:`Term` names its source, its day lag and
its hour offset, and the term's label is printed from those three.  A source
is one of:

* an hourly series of ``MarketData.hourly``, the ``panel.DERIVED`` ones
  included;
* a starred series ``X*`` of ``MarketData.starred``: the realization up to
  hour 10 of the preceding day, and afterwards the stand in of
  ``panel.STAND_INS``;
* a daily series of ``MarketData.daily``: the fuel closes ``C`` and ``G``,
  and the daily ave, max and min of ``FL`` and ``DA``;
* ``const``, or a weekday dummy of ``DOW_LABELS``.

At the edge hours 1 and 24 a term whose hour h + offset falls outside 1..24
is dropped, so row lengths depend only on (kind, hour).  The price models
carry no separate intercept; the dummy block spans it.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InsufficientHistoryError, PanelIntegrityError
from .panel import DERIVED, FORECAST_TIME_HOUR, HOURLY_SERIES, STAND_INS

DOW_LABELS = ("dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun")
_HOURLY = (*HOURLY_SERIES, *DERIVED)
# the daily aggregates of FL and DA in MarketData.daily, e.g. "FL_ave"
_AGGREGATES = {"ave": np.mean, "max": np.max, "min": np.min}


class Term(NamedTuple):
    """One regressor: ``source`` on day t - ``lag`` at hour h + ``offset``."""

    source: str
    lag: int = 0
    offset: int = 0


def _lags(source, lags):
    return tuple(Term(source, lag) for lag in lags)


def _neighbours(source):
    return tuple(Term(source, 0, offset) for offset in (-1, 0, 1))


_LOAD = (Term("const"), Term("L*", 1), *_lags("L", (2, 7)), Term("FL"))
_FL_DAILY = (Term("FL_ave"), Term("FL_max"), Term("FL_min"))
_DUMMIES = tuple(Term(name) for name in DOW_LABELS)
_PRICE_DAILY = (Term("DA_ave", 1), Term("DA_min", 1), Term("DA_max", 1),
                Term("FL"), Term("FRES"), Term("C", 1), Term("G", 1))

# kind -> the regressors of its experts, in row order
REGRESSORS = {
    "L": (*_LOAD, Term("FRES"), *_FL_DAILY),
    "W": (Term("const"), Term("W*", 1), *_neighbours("FW")),
    "RES": (Term("const"), Term("RES*", 1), *_neighbours("FRES")),
    "RL": (*_LOAD, *_FL_DAILY, Term("RES*", 1), *_neighbours("FRES")),
    "DA": (*_DUMMIES, *_lags("DA", range(1, 8)), *_PRICE_DAILY),
    "ID": (*_DUMMIES, Term("ID*", 1), *_lags("ID", range(2, 8)), *_PRICE_DAILY),
    "SP": (*_DUMMIES, Term("SP*", 1), *_lags("SP", range(2, 8)), *_PRICE_DAILY),
}
KINDS = tuple(REGRESSORS)
MAX_LAG = max(term.lag for terms in REGRESSORS.values() for term in terms)


@dataclass(frozen=True)
class ModelSpec:
    """One expert model: a variable kind at a delivery hour in 1..24."""

    kind: str
    hour: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 1 <= self.hour <= 24:
            raise ValueError(f"hour {self.hour} outside 1..24")


@dataclass(frozen=True)
class MarketData:
    """A panel bundled with everything the regressors read:
    ``hourly`` holds every realized (days, 24) series, derived ones included,
    ``starred`` every starred series and ``daily`` every (days,) series.

    ``hist_windows`` holds the latest target day's historical simulation
    window fits, per (variable, hour), for the next day's
    ``ensembles.historical_ensembles_for_day`` on this data to reuse."""

    panel: object
    hourly: dict
    starred: dict
    daily: dict
    dow: np.ndarray
    hist_windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_panel(cls, panel):
        hourly = dict(panel.hourly)
        for name, (a, b) in DERIVED.items():
            hourly[name] = hourly[a] - hourly[b]
        cut = FORECAST_TIME_HOUR  # column index of the first unobserved hour
        starred = {name: np.hstack([hourly[name][:, :cut], hourly[stand_in][:, cut:]])
                   for name, stand_in in STAND_INS.items()}
        daily = dict(panel.daily)
        daily.update((f"{name}_{stat}", aggregate(hourly[name], axis=1))
                     for name in ("FL", "DA") for stat, aggregate in _AGGREGATES.items())
        for arr in (*hourly.values(), *starred.values(), *daily.values()):
            arr.flags.writeable = False
        return cls(panel=panel, hourly=hourly, starred=starred, daily=daily,
                   dow=panel.weekdays())

    @property
    def n_days(self):
        return self.panel.n_days


@functools.cache
def _reads(kind, hour):
    """The kept terms of one expert, as ``(where, name, lag, column)`` reads
    and labels.  ``where`` is the ``MarketData`` dict that ``name`` keys, or
    ``const``, or ``dow`` with the weekday as ``name``."""
    if kind not in REGRESSORS:
        raise ValueError(f"unknown model kind {kind!r}")
    reads, labels = [], []
    for source, lag, offset in REGRESSORS[kind]:
        col = hour - 1 + offset
        if not 0 <= col < 24:
            continue  # an edge hour's absent neighbour
        at = f"t-{lag}" if lag else "t"
        if source == "const":
            read, label = ("const", None, 0, None), source
        elif source in DOW_LABELS:
            read, label = ("dow", DOW_LABELS.index(source), 0, None), source
        elif source.rstrip("*") in _HOURLY:
            if offset or not lag:
                at += f",h{offset:+d}" if offset else ",h"
            where = "starred" if source.endswith("*") else "hourly"
            read, label = (where, source.rstrip("*"), lag, col), f"{source}[{at}]"
        else:
            read, label = ("daily", source, lag, None), f"{source}[{at}]"
        reads.append(read)
        labels.append(label)
    return tuple(reads), tuple(labels)


def row_length(kind, hour):
    """Number of regressors, a pure function of kind and hour."""
    return len(_reads(kind, hour)[0])


def _check_days(ts, n_days):
    ts = np.asarray(ts, dtype=np.intp)
    if ts.size == 0:
        raise ValueError("no days requested")
    if ts.min() < MAX_LAG:
        raise InsufficientHistoryError(
            f"day index {int(ts.min())} lacks the {MAX_LAG} preceding days")
    if ts.max() >= n_days:
        raise PanelIntegrityError(f"day index {int(ts.max())} outside the panel")
    return ts


def design_rows(spec, data, ts, out=None):
    """Design matrix rows for target days ``ts`` of one model spec.

    Returns ``(X, labels)`` with ``X`` of shape ``(len(ts), p)``, which is
    ``out`` when that is given.  Raises :class:`InsufficientHistoryError`
    when any day lacks ``MAX_LAG`` predecessors.
    """
    ts = _check_days(ts, data.n_days)
    reads, labels = _reads(spec.kind, spec.hour)
    X = np.empty((ts.shape[0], len(reads))) if out is None else out
    dow = data.dow[ts]
    days = ts - np.arange(MAX_LAG + 1)[:, None]  # days[lag] is t - lag
    for j, (where, name, lag, col) in enumerate(reads):
        if where == "const":
            X[:, j] = 1.0
        elif where == "dow":
            X[:, j] = dow == name
        elif where == "daily":
            X[:, j] = data.daily[name][days[lag]]
        else:
            X[:, j] = getattr(data, where)[name][:, col][days[lag]]
    return X, labels


def targets(spec, data, ts):
    """Realized values of the spec's variable at its hour for days ``ts``."""
    ts = _check_days(ts, data.n_days)
    return data.hourly[spec.kind][ts, spec.hour - 1]
