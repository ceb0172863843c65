"""Design rows: widths, label order, information set discipline."""

import re

import numpy as np
import pytest

from splitcast.errors import InsufficientHistoryError, PanelIntegrityError
from splitcast.features import (
    DOW_LABELS,
    KINDS,
    MarketData,
    ModelSpec,
    design_rows,
    row_length,
    targets,
)

# Every regressor must be readable before the day ahead auction of the
# target day: lags of order two and more, starred previous day values,
# published forecasts of day t, day ahead prices and aggregates through
# t-1, and the last fuel close.  Nothing else.
ALLOWED_LABEL = re.compile(
    r"^(const"
    r"|dow_(mon|tue|wed|thu|fri|sat|sun)"
    r"|DA\[t-[1-7]\]"
    r"|(ID|SP|L|W|RES)\*\[t-1\]"
    r"|(ID|SP|L)\[t-[2-7]\]"
    r"|(FL|FW|FS|FRES)\[t,h([+-]1)?\]"
    r"|FL_(ave|max|min)\[t\]"
    r"|DA_(ave|min|max)\[t-1\]"
    r"|[CG]\[t-1\])$"
)


def test_row_length_matches_design(data_small):
    ts = np.arange(20, 40)
    for kind in KINDS:
        for hour in (1, 2, 12, 23, 24):
            X, labels = design_rows(ModelSpec(kind, hour), data_small, ts)
            assert X.shape == (20, row_length(kind, hour))
            assert len(labels) == X.shape[1]
            assert len(set(labels)) == len(labels)


def test_row_length_table():
    assert row_length("L", 12) == 9
    assert row_length("W", 12) == 5
    assert row_length("W", 1) == 4
    assert row_length("RES", 24) == 4
    assert row_length("RL", 12) == 12
    assert row_length("RL", 1) == 11
    for kind in ("DA", "ID", "SP"):
        for hour in (1, 12, 24):
            assert row_length(kind, hour) == 21
    with pytest.raises(ValueError):
        row_length("XX", 12)


def test_label_order_load(data_small):
    _, labels = design_rows(ModelSpec("L", 12), data_small, np.arange(10, 14))
    assert labels == ("const", "L*[t-1]", "L[t-2]", "L[t-7]", "FL[t,h]",
                      "FRES[t,h]", "FL_ave[t]", "FL_max[t]", "FL_min[t]")


def test_label_order_prices(data_small):
    _, labels = design_rows(ModelSpec("DA", 5), data_small, np.arange(10, 14))
    assert labels[:7] == DOW_LABELS
    assert labels[7:14] == tuple(f"DA[t-{p}]" for p in range(1, 8))
    assert labels[14:] == ("DA_ave[t-1]", "DA_min[t-1]", "DA_max[t-1]",
                          "FL[t,h]", "FRES[t,h]", "C[t-1]", "G[t-1]")
    _, labels = design_rows(ModelSpec("ID", 5), data_small, np.arange(10, 14))
    assert labels[7] == "ID*[t-1]"
    assert labels[8:14] == tuple(f"ID[t-{p}]" for p in range(2, 8))
    _, labels = design_rows(ModelSpec("SP", 5), data_small, np.arange(10, 14))
    assert labels[7] == "SP*[t-1]"
    assert labels[8:14] == tuple(f"SP[t-{p}]" for p in range(2, 8))


def test_edge_hours_drop_missing_neighbour(data_small):
    _, labels = design_rows(ModelSpec("W", 1), data_small, np.arange(10, 14))
    assert labels == ("const", "W*[t-1]", "FW[t,h]", "FW[t,h+1]")
    _, labels = design_rows(ModelSpec("W", 24), data_small, np.arange(10, 14))
    assert labels == ("const", "W*[t-1]", "FW[t,h-1]", "FW[t,h]")
    _, labels = design_rows(ModelSpec("RL", 12), data_small, np.arange(10, 14))
    assert labels == ("const", "L*[t-1]", "L[t-2]", "L[t-7]", "FL[t,h]",
                      "FL_ave[t]", "FL_max[t]", "FL_min[t]", "RES*[t-1]",
                      "FRES[t,h-1]", "FRES[t,h]", "FRES[t,h+1]")


def test_information_set_whitelist(data_small):
    """No regressor label may name a value unknown at forecast time."""
    for kind in KINDS:
        for hour in (1, 7, 12, 24):
            _, labels = design_rows(ModelSpec(kind, hour), data_small, np.arange(10, 13))
            for label in labels:
                assert ALLOWED_LABEL.match(label), f"{kind} h{hour}: {label!r}"


def _row(kind, hour, data, t):
    """{label: value} of the single design row of day ``t``."""
    X, labels = design_rows(ModelSpec(kind, hour), data, [t])
    return dict(zip(labels, X[0]))


def test_values_match_sources(data_small):
    t = 30
    panel = data_small.panel
    vals = _row("DA", 12, data_small, t)
    assert vals["DA[t-1]"] == panel.hourly["DA"][t - 1, 11]
    assert vals["DA[t-3]"] == panel.hourly["DA"][t - 3, 11]
    assert vals["C[t-1]"] == panel.daily["C"][t - 1]
    assert vals["G[t-1]"] == panel.daily["G"][t - 1]
    assert vals["FL[t,h]"] == panel.hourly["FL"][t, 11]
    assert vals["DA_ave[t-1]"] == panel.hourly["DA"][t - 1].mean()
    dow = panel.dates[t].weekday()
    dummies = [vals[lab] for lab in DOW_LABELS]
    assert dummies == [1.0 if d == dow else 0.0 for d in range(7)]


def test_starred_regressors_respect_cut(data_small):
    """Before the cut the previous day lag is realized, after it stands in."""
    t = 40
    panel = data_small.panel
    vals = _row("ID", 5, data_small, t)  # column 4 < 10
    assert vals["ID*[t-1]"] == panel.hourly["ID"][t - 1, 4]
    vals = _row("ID", 18, data_small, t)  # column 17 >= 10
    assert vals["ID*[t-1]"] == panel.hourly["DA"][t - 1, 17]
    assert vals["ID*[t-1]"] != panel.hourly["ID"][t - 1, 17]
    vals = _row("W", 18, data_small, t)
    assert vals["W*[t-1]"] == panel.hourly["FW"][t - 1, 17]


def test_insufficient_history(data_small):
    with pytest.raises(InsufficientHistoryError):
        design_rows(ModelSpec("DA", 12), data_small, np.array([5]))
    with pytest.raises(PanelIntegrityError):
        design_rows(ModelSpec("DA", 12), data_small, np.array([data_small.n_days]))
    with pytest.raises(ValueError):
        design_rows(ModelSpec("DA", 12), data_small, np.array([], dtype=np.intp))


def test_targets_read_series(data_small):
    ts = np.arange(10, 15)
    np.testing.assert_array_equal(
        targets(ModelSpec("DA", 3), data_small, ts),
        data_small.hourly["DA"][ts, 2])
    np.testing.assert_array_equal(
        targets(ModelSpec("RL", 7), data_small, ts),
        data_small.hourly["RL"][ts, 6])
    assert targets(ModelSpec("SP", 1), data_small, [12])[0] == data_small.hourly["SP"][12, 0]
    assert data_small.hourly["ID"] is data_small.panel.hourly["ID"]


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("Q", 12)
    with pytest.raises(ValueError):
        ModelSpec("DA", 0)
    with pytest.raises(ValueError):
        ModelSpec("DA", 25)


def test_from_panel_normalizes(panel_small):
    data = MarketData.from_panel(panel_small)
    assert data.panel is panel_small  # the panel it is given, no copy
    np.testing.assert_array_equal(data.daily["FL_ave"], panel_small.hourly["FL"].mean(axis=1))
    np.testing.assert_array_equal(data.daily["DA_max"], panel_small.hourly["DA"].max(axis=1))
