"""Regressor rows for the per hour expert models.

Seven model kinds are supported, one per forecast variable:

=====  ==============  ==================================================
kind   target          regressors (interior hours)
=====  ==============  ==================================================
L      load            const, L*(t-1), L(t-2), L(t-7), FL(t), FRES(t),
                       FL daily ave/max/min of day t
W      wind            const, W*(t-1), FW(t) at hours h-1, h, h+1
RES    renewables      const, RES*(t-1), FRES(t) at hours h-1, h, h+1
RL     residual load   load block plus RES*(t-1) and the FRES triple
DA     day ahead       7 weekday dummies, DA(t-1..t-7), DA daily
                       ave/min/max of t-1, FL(t), FRES(t), C(t-1), G(t-1)
ID     intraday        dummies, ID*(t-1), ID(t-2..t-7), then as DA
SP     spread          dummies, SP*(t-1), SP(t-2..t-7), then as DA
=====  ==============  ==================================================

Starred values come from the information set: realization up to hour 10 of
the preceding day, and afterwards the stand in of ``panel.STAND_INS``.
``MarketData.hourly`` holds every realized series, the ``panel.DERIVED``
ones included, and ``MarketData.starred`` every starred one.  At the edge
hours 1 and 24 the neighbour hour term of the forecast triple does not
exist and is dropped, so row lengths depend only on (kind, hour).  All
models with dummies carry no separate intercept; the dummy block spans it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistoryError, PanelIntegrityError
from .panel import DERIVED, FORECAST_TIME_HOUR, STAND_INS, dst_normalize

KINDS = ("L", "W", "RES", "RL", "DA", "ID", "SP")
MAX_LAG = 7
DOW_LABELS = ("dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun")


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
    """Normalized panel bundled with everything the regressors read:
    ``hourly`` holds every realized (days, 24) series, derived ones included,
    and ``starred`` every starred series."""

    panel: object
    hourly: dict
    starred: dict
    fl_ave: np.ndarray
    fl_max: np.ndarray
    fl_min: np.ndarray
    da_ave: np.ndarray
    da_min: np.ndarray
    da_max: np.ndarray
    dow: np.ndarray

    @classmethod
    def from_panel(cls, panel):
        panel = dst_normalize(panel)
        hourly = dict(panel.hourly)
        for name, (a, b) in DERIVED.items():
            hourly[name] = hourly[a] - hourly[b]
        cut = FORECAST_TIME_HOUR  # column index of the first unobserved hour
        starred = {name: np.hstack([hourly[name][:, :cut], hourly[stand_in][:, cut:]])
                   for name, stand_in in STAND_INS.items()}
        for arr in (*hourly.values(), *starred.values()):
            arr.flags.writeable = False
        fl = panel.hourly["FL"]
        da = panel.hourly["DA"]
        return cls(
            panel=panel, hourly=hourly, starred=starred,
            fl_ave=fl.mean(axis=1), fl_max=fl.max(axis=1), fl_min=fl.min(axis=1),
            da_ave=da.mean(axis=1), da_min=da.min(axis=1), da_max=da.max(axis=1),
            dow=panel.weekdays(),
        )

    @property
    def n_days(self):
        return self.panel.n_days


def row_length(kind, hour):
    """Number of regressors, a pure function of kind and hour."""
    edge = hour in (1, 24)
    if kind == "L":
        return 9
    if kind in ("W", "RES"):
        return 4 if edge else 5
    if kind == "RL":
        return 11 if edge else 12
    if kind in ("DA", "ID", "SP"):
        return 21
    raise ValueError(f"unknown model kind {kind!r}")


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


def _forecast_triple(fc, ts, hour, label_prefix):
    """Neighbour hour forecast terms; edge hours drop the absent neighbour."""
    c = hour - 1
    cols, labels = [], []
    if hour > 1:
        cols.append(fc[ts, c - 1])
        labels.append(f"{label_prefix}[t,h-1]")
    cols.append(fc[ts, c])
    labels.append(f"{label_prefix}[t,h]")
    if hour < 24:
        cols.append(fc[ts, c + 1])
        labels.append(f"{label_prefix}[t,h+1]")
    return cols, labels


def _load_block(data, ts, c):
    cols = [
        np.ones(ts.shape[0]),
        data.starred["L"][ts - 1, c],
        data.hourly["L"][ts - 2, c],
        data.hourly["L"][ts - 7, c],
        data.hourly["FL"][ts, c],
    ]
    labels = ["const", "L*[t-1]", "L[t-2]", "L[t-7]", "FL[t,h]"]
    return cols, labels


def _daily_price_block(data, ts, c):
    cols = [
        data.da_ave[ts - 1], data.da_min[ts - 1], data.da_max[ts - 1],
        data.hourly["FL"][ts, c], data.hourly["FRES"][ts, c],
        data.panel.daily["C"][ts - 1], data.panel.daily["G"][ts - 1],
    ]
    labels = ["DA_ave[t-1]", "DA_min[t-1]", "DA_max[t-1]",
              "FL[t,h]", "FRES[t,h]", "C[t-1]", "G[t-1]"]
    return cols, labels


def design_rows(spec, data, ts, out=None):
    """Design matrix rows for target days ``ts`` of one model spec.

    Returns ``(X, labels)`` with ``X`` of shape ``(len(ts), p)``, which is
    ``out`` when that is given.  Raises :class:`InsufficientHistoryError`
    when any day lacks 7 predecessors.
    """
    ts = _check_days(ts, data.n_days)
    c = spec.hour - 1
    kind = spec.kind

    if kind == "L":
        cols, labels = _load_block(data, ts, c)
        cols += [data.hourly["FRES"][ts, c], data.fl_ave[ts], data.fl_max[ts], data.fl_min[ts]]
        labels += ["FRES[t,h]", "FL_ave[t]", "FL_max[t]", "FL_min[t]"]
    elif kind in ("W", "RES"):
        fc_name = "FW" if kind == "W" else "FRES"
        cols = [np.ones(ts.shape[0]), data.starred[kind][ts - 1, c]]
        labels = ["const", f"{kind}*[t-1]"]
        tr_cols, tr_labels = _forecast_triple(data.hourly[fc_name], ts, spec.hour, fc_name)
        cols += tr_cols
        labels += tr_labels
    elif kind == "RL":
        cols, labels = _load_block(data, ts, c)
        cols += [data.fl_ave[ts], data.fl_max[ts], data.fl_min[ts],
                 data.starred["RES"][ts - 1, c]]
        labels += ["FL_ave[t]", "FL_max[t]", "FL_min[t]", "RES*[t-1]"]
        tr_cols, tr_labels = _forecast_triple(data.hourly["FRES"], ts, spec.hour, "FRES")
        cols += tr_cols
        labels += tr_labels
    elif kind in ("DA", "ID", "SP"):
        dow = data.dow[ts]
        cols = [(dow == d).astype(np.float64) for d in range(7)]
        labels = list(DOW_LABELS)
        if kind == "DA":
            for p in range(1, 8):
                cols.append(data.hourly["DA"][ts - p, c])
                labels.append(f"DA[t-{p}]")
        else:
            cols.append(data.starred[kind][ts - 1, c])
            labels.append(f"{kind}*[t-1]")
            own = data.hourly[kind]
            for p in range(2, 8):
                cols.append(own[ts - p, c])
                labels.append(f"{kind}[t-{p}]")
        d_cols, d_labels = _daily_price_block(data, ts, c)
        cols += d_cols
        labels += d_labels
    else:  # pragma: no cover - ModelSpec already validates
        raise ValueError(kind)

    assert len(cols) == row_length(kind, spec.hour)
    X = np.empty((ts.shape[0], len(cols))) if out is None else out
    for j, col in enumerate(cols):
        X[:, j] = col
    return X, tuple(labels)


def targets(spec, data, ts):
    """Realized values of the spec's variable at its hour for days ``ts``."""
    ts = _check_days(ts, data.n_days)
    return data.hourly[spec.kind][ts, spec.hour - 1]
