"""Panel IO, clock-change repair, derived series and the synthetic generator."""

import datetime as dt
import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcast.errors import (
    GapAtBoundaryError,
    InvalidDGPError,
    MissingColumnError,
    NegativeGenerationError,
    NonHourlyResolutionError,
    PanelIntegrityError,
    UnparseableTimestampError,
)
from splitcast.cli import main
from splitcast.features import MarketData
from splitcast.panel import (
    COMPOSITES,
    DAILY_SERIES,
    DEFAULT_SCHEMA,
    FORECAST_TIME_HOUR,
    HOURLY_SERIES,
    READ_SERIES,
    OPTIONAL_SCHEMA,
    MarketPanel,
    SyntheticConfig,
    generate_synthetic_panel,
    load_panel,
    write_panel,
)

HEADER = "date,hour,da,id,load,wind,solar,load_fc,wind_fc,solar_fc,coal,gas"


def _tiny_csv(path, days=9, mutate=None):
    """Formulaic panel file: value = base + day + hour/100, fuel constant."""
    lines = [HEADER]
    start = dt.date(2021, 3, 1)
    for di in range(days):
        date = (start + dt.timedelta(days=di)).isoformat()
        for hour in range(1, 25):
            v = di + hour / 100.0
            row = [date, str(hour), str(30 + v), str(29 + v), str(60 + v),
                   str(8 + v / 10), str(3 + v / 10), str(60.5 + v),
                   str(8.1 + v / 10), str(3.1 + v / 10), "70.0", "20.0"]
            lines.append(",".join(row))
    if mutate:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_write_load_round_trip(tmp_path, panel_small):
    path = tmp_path / "panel.csv"
    write_panel(panel_small, path)
    back = load_panel(path)
    assert back.dates == panel_small.dates
    for name in HOURLY_SERIES:
        np.testing.assert_array_equal(back.hourly[name], panel_small.hourly[name])
    for name in ("C", "G"):
        np.testing.assert_array_equal(back.daily[name], panel_small.daily[name])
    schema = {"DA": "price", "RES": "renewables"}
    write_panel(panel_small, path, schema)
    assert path.read_text().startswith("date,hour,price,")
    back = load_panel(path, schema)
    np.testing.assert_array_equal(back.hourly["DA"], panel_small.hourly["DA"])


def test_load_with_schema_remap(tmp_path):
    path = _tiny_csv(tmp_path / "t.csv")
    text = path.read_text().replace("da,id", "price_da,price_id")
    path.write_text(text)
    with pytest.raises(MissingColumnError):
        load_panel(path)
    panel = load_panel(path, {"DA": "price_da", "ID": "price_id"})
    assert panel.n_days == 9
    with pytest.raises(MissingColumnError):
        load_panel(path, {"XX": "nope"})


def test_bad_date_and_hour(tmp_path):
    path = _tiny_csv(tmp_path / "t.csv",
                     mutate=lambda ls: ls[:1] + ["yesterday" + ls[1][10:]] + ls[2:])
    with pytest.raises(UnparseableTimestampError):
        load_panel(path)
    for hour in ("25", "1.5", "nan", "inf"):
        path = _tiny_csv(tmp_path / "t2.csv",
                         mutate=lambda ls: ls[:1] + [ls[1].replace(",1,", f",{hour},", 1)] + ls[2:])
        with pytest.raises(NonHourlyResolutionError):
            load_panel(path)


def test_duplicate_cell_averages(tmp_path):
    def dup(lines):
        # double 02:00 of the second day with da shifted by +2
        idx = 1 + 24 + 1
        parts = lines[idx].split(",")
        parts[2] = str(float(parts[2]) + 2.0)
        return lines[:idx + 1] + [",".join(parts)] + lines[idx + 1:]

    panel = load_panel(_tiny_csv(tmp_path / "t.csv", mutate=dup))
    first = 30 + 1 + 2 / 100.0
    assert panel.hourly["DA"][1, 1] == (first + (first + 2.0)) / 2.0
    # other series were doubled with identical readings, mean is a no op
    assert panel.hourly["L"][1, 1] == 60 + 1 + 2 / 100.0
    np.testing.assert_array_equal(panel.hourly["RES"], panel.hourly["W"] + panel.hourly["S"])


def test_missing_cell_interpolates(tmp_path):
    def blank(lines):
        idx = 1 + 24 + 6  # 07:00 of the second day
        parts = lines[idx].split(",")
        return lines[:idx] + [",".join(parts[:2] + [""] * 8 + parts[10:])] + lines[idx + 1:]

    panel = load_panel(_tiny_csv(tmp_path / "t.csv", mutate=blank))
    for name in ("DA", "L", "W"):
        expected = (panel.hourly[name][1, 5] + panel.hourly[name][1, 7]) / 2.0
        assert panel.hourly[name][1, 6] == expected
    # composites are recomputed from the repaired parts
    np.testing.assert_array_equal(panel.hourly["RES"], panel.hourly["W"] + panel.hourly["S"])


def test_gap_at_boundary(tmp_path):
    def blank_first(lines):
        parts = lines[1].split(",")
        return lines[:1] + [",".join(parts[:2] + [""] * 8 + parts[10:])] + lines[2:]

    with pytest.raises(GapAtBoundaryError,
                       match="^DA at 2021-03-01 h1 is missing and touches the panel boundary$"):
        load_panel(_tiny_csv(tmp_path / "t.csv", mutate=blank_first))
    # the last two rows dropped: a gap run that reaches the end of the last day
    with pytest.raises(GapAtBoundaryError,
                       match="^DA at 2021-03-09 h23 is missing and touches the panel boundary$"):
        load_panel(_tiny_csv(tmp_path / "t.csv", mutate=lambda ls: ls[:-2]))


def test_cell_tripled_rejected(tmp_path):
    path = _tiny_csv(tmp_path / "t.csv", mutate=lambda ls: ls + [ls[1], ls[1]])
    with pytest.raises(NonHourlyResolutionError):
        load_panel(path)


def test_whole_day_absent_rejected(tmp_path):
    path = _tiny_csv(tmp_path / "t.csv",
                     mutate=lambda ls: ls[:1 + 24] + ls[1 + 48:])
    with pytest.raises(PanelIntegrityError,
                       match="^1 whole day absent from file, first 2021-03-02$"):
        load_panel(path)
    path = _tiny_csv(tmp_path / "t.csv",
                     mutate=lambda ls: ls[:1 + 24] + ls[1 + 48:1 + 72] + ls[1 + 96:])
    with pytest.raises(PanelIntegrityError,
                       match="^2 whole days absent from file, first 2021-03-02$"):
        load_panel(path)


def test_negative_generation_rejected(tmp_path):
    def neg(lines):
        parts = lines[5].split(",")
        parts[5] = "-0.5"  # wind
        return lines[:5] + [",".join(parts)] + lines[6:]

    with pytest.raises(NegativeGenerationError):
        load_panel(_tiny_csv(tmp_path / "t.csv", mutate=neg))


def test_res_column_checked_against_parts(tmp_path, panel_small):
    path = tmp_path / "panel.csv"
    write_panel(panel_small, path)
    text = path.read_text().splitlines()
    parts = text[1].split(",")
    parts[-2] = str(float(parts[-2]) + 1.0)  # res no longer wind + solar
    text[1] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(PanelIntegrityError, match="wind \\+ solar"):
        load_panel(path)
    # a remapped RES column is the one checked
    text[0] = text[0].replace(",res,", ",renewables,")
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(PanelIntegrityError, match="RES at .* h1 is not wind \\+ solar"):
        load_panel(path, {"RES": "renewables"})


def test_fuel_gap_forward_filled(tmp_path):
    def blank_fuel(lines):
        out = [lines[0]]
        start = 1 + 24 * 3
        for i, line in enumerate(lines[1:], start=1):
            if start <= i < start + 24:  # fourth day quotes no fuel prices
                parts = line.split(",")
                parts[10] = parts[11] = ""
                line = ",".join(parts)
            out.append(line)
        return out

    panel = load_panel(_tiny_csv(tmp_path / "t.csv", mutate=blank_fuel))
    assert panel.daily["C"][3] == panel.daily["C"][2]
    assert np.all(np.isfinite(panel.daily["G"]))


def test_fuel_missing_on_first_day(tmp_path):
    def blank_all_first(lines):
        out = [lines[0]]
        for i, line in enumerate(lines[1:], start=1):
            if i <= 24:
                parts = line.split(",")
                parts[10] = ""
                line = ",".join(parts)
            out.append(line)
        return out

    with pytest.raises(GapAtBoundaryError):
        load_panel(_tiny_csv(tmp_path / "t.csv", mutate=blank_all_first))


def test_fuel_not_constant_within_day(tmp_path):
    def twist(lines):
        parts = lines[2].split(",")
        parts[10] = "71.5"
        return lines[:2] + [",".join(parts)] + lines[3:]

    with pytest.raises(PanelIntegrityError, match="not constant"):
        load_panel(_tiny_csv(tmp_path / "t.csv", mutate=twist))


def _with_field(line, i, text):
    parts = line.split(",")
    parts[i] = text
    return ",".join(parts)


def test_short_rows_read_blank(tmp_path):
    """Fields absent from a short row read as blank: an absent hour or date
    is an unparseable timestamp, absent readings are filled."""
    with pytest.raises(UnparseableTimestampError, match="bad hour ''"):
        load_panel(_tiny_csv(tmp_path / "t.csv",
                             mutate=lambda ls: ls[:1] + ["2021-03-01"] + ls[2:]))

    def date_last_and_cut(lines):
        moved = [",".join(line.split(",")[1:] + line.split(",")[:1]) for line in lines]
        return moved[:5] + [moved[5].rsplit(",", 1)[0]] + moved[6:]

    with pytest.raises(UnparseableTimestampError, match="bad date ''"):
        load_panel(_tiny_csv(tmp_path / "t2.csv", mutate=date_last_and_cut))

    lines = _tiny_csv(tmp_path / "t3.csv").read_text().splitlines()
    cut = ",".join(lines[30].split(",")[:3])  # day 2, 06:00, up to its DA reading
    path = _tiny_csv(tmp_path / "t3.csv", mutate=lambda ls: ls[:30] + [cut] + ls[31:])
    panel = load_panel(path)
    assert panel.hourly["DA"][1, 5] == float(cut.split(",")[2])
    assert panel.hourly["ID"][1, 5] == (panel.hourly["ID"][1, 4] + panel.hourly["ID"][1, 6]) / 2.0
    assert panel.daily["C"][1] == 70.0


def test_bad_reading_names_its_cell(tmp_path):
    for col, where in ((2, "DA@2021-03-01 h1"), (11, "G@2021-03-01 h1")):
        path = _tiny_csv(tmp_path / "t.csv",
                         mutate=lambda ls: ls[:1] + [_with_field(ls[1], col, "x1")] + ls[2:])
        with pytest.raises(PanelIntegrityError, match=f"'x1' for {where}$"):
            load_panel(path)


@pytest.fixture(scope="module")
def panel_file(tmp_path_factory):
    panel = generate_synthetic_panel(SyntheticConfig(days=15), seed=4)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    write_panel(panel, path)
    return panel, path.read_text().splitlines()


def _filled(flat):
    """``flat`` with each NaN replaced by the mean of the nearest non-NaN
    value before it and the nearest one after it, where it has both."""
    out = flat.copy()
    observed = np.flatnonzero(~np.isnan(flat))
    for pos in np.flatnonzero(np.isnan(flat)):
        before, after = observed[observed < pos], observed[observed > pos]
        if before.size and after.size:
            out[pos] = (flat[before[-1]] + flat[after[0]]) / 2.0
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_gap_runs_fill_from_their_observed_neighbours(panel_file, tmp_path_factory, data):
    """Blank runs of 1 to 4 consecutive cells of one series at interior
    positions: every cell of a run reads the mean of the last observed value
    before the run and the first one after it, and no other cell changes."""
    source, lines = panel_file
    n_cells = 24 * source.n_days
    name = data.draw(st.sampled_from(READ_SERIES))
    runs = data.draw(st.lists(st.tuples(st.integers(1, n_cells - 5), st.integers(1, 4)),
                              min_size=1, max_size=4))
    blank = {cell for start, length in runs for cell in range(start, start + length)}
    col = 2 + READ_SERIES.index(name)
    rows = [_with_field(line, col, "") if cell in blank else line
            for cell, line in enumerate(lines[1:n_cells + 1])]
    path = tmp_path_factory.mktemp("runs") / "panel.csv"
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    panel = load_panel(path)

    flat = source.hourly[name].ravel().copy()
    flat[sorted(blank)] = np.nan
    np.testing.assert_array_equal(panel.hourly[name].ravel(), _filled(flat))
    for other in set(READ_SERIES) - {name}:
        np.testing.assert_array_equal(panel.hourly[other], source.hourly[other])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_places_mutated_rows(panel_file, tmp_path_factory, data):
    """Drop rows, double rows with one changed reading (and the copy's RES or
    FRES rewritten to match), blank one reading and blank one day's fuel in
    a written panel: a doubled cell reads the mean of its two readings, a
    dropped or blanked one the mean of its nearest observed neighbours, every
    other cell reads as the source, and the blank fuel day carries the
    previous quote.  A gap with no observed neighbour on one side is an
    error naming the first such cell."""
    source, lines = panel_file
    n_cells = 24 * source.n_days
    mutations = data.draw(st.lists(
        st.tuples(st.integers(0, n_cells - 1), st.sampled_from(["drop", "double", "blank"]),
                  st.sampled_from(READ_SERIES), st.floats(0.0, 100.0)),
        max_size=8, unique_by=lambda m: m[0]))
    fuel_day = data.draw(st.integers(1, source.n_days - 1) | st.none())
    by_cell = {cell: (kind, name, value) for cell, kind, name, value in mutations}
    header = lines[0].split(",")

    rows = [lines[0]]
    want = {s: source.hourly[s].ravel().copy() for s in READ_SERIES}
    for cell, line in enumerate(lines[1:n_cells + 1]):
        if cell // 24 == fuel_day:
            line = _with_field(_with_field(line, 10, ""), 11, "")
        kind, name, value = by_cell.get(cell, (None, None, None))
        col = 2 + READ_SERIES.index(name) if name else None
        if kind == "drop":
            for s in READ_SERIES:
                want[s][cell] = np.nan
            continue
        if kind == "blank":
            want[name][cell] = np.nan
            line = _with_field(line, col, "")
        rows.append(line)
        if kind == "double":
            copy = _with_field(line, col, repr(value))
            second = {s: source.hourly[s].flat[cell] for s in READ_SERIES}
            second[name] = value
            for composite, (a, b) in COMPOSITES.items():
                if name in (a, b):
                    copy = _with_field(copy, header.index(OPTIONAL_SCHEMA[composite]),
                                       repr(float(second[a] + second[b])))
            rows.append(copy)
            want[name][cell] = (want[name][cell] + value) / 2.0
    path = tmp_path_factory.mktemp("mutated") / "panel.csv"
    path.write_text("\n".join(rows) + "\n")
    want = {s: _filled(flat) for s, flat in want.items()}

    unfillable = [s for s in READ_SERIES if np.isnan(want[s]).any()]
    if unfillable:
        cell = int(np.argmax(np.isnan(want[unfillable[0]])))
        with pytest.raises(GapAtBoundaryError, match=(
                f"^{unfillable[0]} at {source.dates[cell // 24]} h{cell % 24 + 1} "
                "is missing and touches the panel boundary$")):
            load_panel(path)
        return
    panel = load_panel(path)

    assert panel.dates == source.dates
    for s in READ_SERIES:
        np.testing.assert_array_equal(panel.hourly[s].ravel(), want[s])
    np.testing.assert_array_equal(panel.hourly["RES"], panel.hourly["W"] + panel.hourly["S"])
    np.testing.assert_array_equal(panel.hourly["FRES"], panel.hourly["FW"] + panel.hourly["FS"])
    for name in ("C", "G"):
        want_fuel = source.daily[name].copy()
        if fuel_day is not None:
            want_fuel[fuel_day] = want_fuel[fuel_day - 1]
        np.testing.assert_array_equal(panel.daily[name], want_fuel)


# defect kind -> the series it may hit
DEFECTS = {
    "inf": READ_SERIES,
    "nan": READ_SERIES,
    "negative": ("L", "W", "S", "FL", "FW", "FS"),
    "inf fuel": DAILY_SERIES,
    "nan fuel": DAILY_SERIES,
    "res off": tuple(COMPOSITES),
    "blank end": READ_SERIES,
}


def _with_defect(lines, kind, name, cell, doubled, delta):
    """A written panel's ``lines`` with one defect of ``kind`` in series
    ``name``: at data row ``cell`` or in a doubled copy of it, or for a fuel
    on every row of that day.  ``delta`` signs the infinity, sizes the
    negative reading and shifts the composite."""
    col = lines[0].split(",").index({**DEFAULT_SCHEMA, **OPTIONAL_SCHEMA}[name])
    header, rows = lines[0], lines[1:]
    text = {"inf": repr(math.copysign(math.inf, delta)), "negative": repr(-abs(delta)),
            "inf fuel": repr(math.copysign(math.inf, delta)), "blank end": "",
            "nan": "nan", "nan fuel": "nan",
            "res off": repr(float(rows[cell].split(",")[col]) + delta)}[kind]
    if kind.endswith("fuel"):
        return [header, *(_with_field(row, col, text) if i // 24 == cell // 24 else row
                          for i, row in enumerate(rows))]
    bad = _with_field(rows[cell], col, text)
    return [header, *rows[:cell], *([rows[cell], bad] if doubled else [bad]), *rows[cell + 1:]]


def _run_quietly(argv):
    """``main(argv)``'s exit status and stderr, with every warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def _assert_named(code, err, source, kind, name, cell, doubled):
    """Exit status 2 and one ``error:`` line naming the series, date and hour,
    and the second reading of a doubled row."""
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    date = source.dates[cell // 24]
    where = f"{name} on {date}" if kind.endswith("fuel") else f"{name} at {date} h{cell % 24 + 1}"
    if doubled:
        where += r" \(second reading\)"
    assert re.search(rf"\b{where}(?! \(second)", err), err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_names_each_injected_defect(panel_file, tmp_path_factory, data):
    """A ±inf or literal nan reading, an inf or nan fuel quote, a negative
    generation reading, a composite off its parts (each but the fuel in a
    first reading or in a doubled copy), or a blank first or last cell:
    ``validate`` exits 2 with one line naming the series, date and hour."""
    source, lines = panel_file
    n_cells = 24 * source.n_days
    kind = data.draw(st.sampled_from(sorted(DEFECTS)))
    name = data.draw(st.sampled_from(DEFECTS[kind]))
    ends = st.sampled_from([0, n_cells - 1])
    cell = data.draw(ends if kind == "blank end" else st.integers(0, n_cells - 1))
    doubled = kind in ("inf", "nan", "negative", "res off") and data.draw(st.booleans())
    delta = data.draw(st.floats(1e-3, 100.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
    path = tmp_path_factory.mktemp("defect") / "panel.csv"
    path.write_text("\n".join(_with_defect(lines, kind, name, cell, doubled, delta)) + "\n")
    _assert_named(*_run_quietly(["validate", str(path)]), source, kind, name, cell, doubled)


@pytest.mark.parametrize("kind, name, cell, doubled, delta", [
    ("inf", "L", 30, False, -1.0),
    ("nan", "DA", 80, False, 1.0),
    ("nan", "FW", 90, True, 1.0),
    ("inf fuel", "C", 50, False, 1.0),
    ("nan fuel", "G", 70, False, 1.0),
    ("negative", "W", 40, True, 40.0),
    ("res off", "FRES", 100, False, 0.5),
    ("res off", "RES", 60, True, 999.0),
    ("blank end", "DA", 0, False, 1.0),
])
def test_backtest_names_each_injected_defect(panel_file, tmp_path, kind, name, cell, doubled,
                                             delta):
    """The backtest stops on each kind of defect as ``validate`` does."""
    source, lines = panel_file
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(_with_defect(lines, kind, name, cell, doubled, delta)) + "\n")
    argv = ["backtest", "--input", str(path), "--out", str(tmp_path / "bt"), "--window", "100",
            "--eval-days", "1", "--set", "methods=point", "--no-trading"]
    _assert_named(*_run_quietly(argv), source, kind, name, cell, doubled)
    assert _run_quietly(["validate", str(path)])[1] == _run_quietly(argv)[1]
    assert not (tmp_path / "bt").exists()


def test_panel_construction_enforces_the_value_rules(panel_small):
    """However a panel is built, a broken reading raises naming its series,
    date and hour; NaN is never a reading."""
    day3 = panel_small.dates[3]

    def build(name, value, daily=None):
        hourly = {s: panel_small.hourly[s].copy() for s in HOURLY_SERIES}
        hourly[name][3, 3] = value
        return MarketPanel(dates=panel_small.dates, hourly=hourly,
                           daily=daily or {k: v.copy() for k, v in panel_small.daily.items()})

    with pytest.raises(PanelIntegrityError, match=f"^RES at {day3} h4 is not wind [+] solar$"):
        build("RES", panel_small.hourly["RES"][3, 3] + 1.0)
    with pytest.raises(NegativeGenerationError, match=f"^negative value in W at {day3} h4: -2.0$"):
        build("W", -2.0)
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(PanelIntegrityError, match=f"^non finite value in DA at {day3} h4"):
            build("DA", value)
    fuel = {k: v.copy() for k, v in panel_small.daily.items()}
    fuel["G"][5] = np.inf
    with pytest.raises(PanelIntegrityError,
                       match=f"^non finite value in G on {panel_small.dates[5]}: inf$"):
        build("DA", 1.0, daily=fuel)


def test_derive_series_exact(panel_small):
    data = MarketData.from_panel(panel_small)
    np.testing.assert_array_equal(
        data.hourly["RL"], panel_small.hourly["L"] - panel_small.hourly["RES"])
    np.testing.assert_array_equal(
        data.hourly["SP"], panel_small.hourly["DA"] - panel_small.hourly["ID"])


def test_info_set_splice_everywhere(panel_small):
    """Starred series: realized strictly before the cut, stand in after."""
    data = MarketData.from_panel(panel_small)
    sp = panel_small.hourly["DA"] - panel_small.hourly["ID"]
    cut = FORECAST_TIME_HOUR
    cases = [
        (data.starred["L"], panel_small.hourly["L"], panel_small.hourly["FL"]),
        (data.starred["W"], panel_small.hourly["W"], panel_small.hourly["FW"]),
        (data.starred["RES"], panel_small.hourly["RES"], panel_small.hourly["FRES"]),
        (data.starred["ID"], panel_small.hourly["ID"], panel_small.hourly["DA"]),
        (data.starred["SP"], sp, panel_small.hourly["DA"]),
    ]
    assert set(data.starred) == {"L", "W", "RES", "ID", "SP"}
    for starred, realized, stand_in in cases:
        np.testing.assert_array_equal(starred[:, :cut], realized[:, :cut])
        np.testing.assert_array_equal(starred[:, cut:], stand_in[:, cut:])


def test_day_index(panel_small):
    assert panel_small.day_index(panel_small.dates[17]) == 17
    with pytest.raises(KeyError):
        panel_small.day_index(panel_small.dates[0] - dt.timedelta(days=1))


def test_synthetic_deterministic():
    cfg = SyntheticConfig(days=30)
    a = generate_synthetic_panel(cfg, seed=9)
    b = generate_synthetic_panel(cfg, seed=9)
    c = generate_synthetic_panel(cfg, seed=10)
    np.testing.assert_array_equal(a.hourly["DA"], b.hourly["DA"])
    assert not np.array_equal(a.hourly["DA"], c.hourly["DA"])


def test_synthetic_invalid_dgp():
    with pytest.raises(InvalidDGPError):
        generate_synthetic_panel(SyntheticConfig(days=10), seed=1)
    bad_phi = SyntheticConfig(days=30)
    bad_phi.phi["L"] = 1.0
    with pytest.raises(InvalidDGPError):
        generate_synthetic_panel(bad_phi, seed=1)
    bad_corr = SyntheticConfig(days=30)
    corr = bad_corr.noise_corr
    corr[0, 1] = corr[1, 0] = 1.5  # not positive definite
    with pytest.raises(InvalidDGPError):
        generate_synthetic_panel(bad_corr, seed=1)


def test_synthetic_correlation_sign():
    """The innovation correlation really shows up in the output."""
    cfg = SyntheticConfig(days=300)
    panel = generate_synthetic_panel(cfg, seed=3)
    da = panel.hourly["DA"] - panel.hourly["DA"].mean(axis=0)
    idp = panel.hourly["ID"] - panel.hourly["ID"].mean(axis=0)
    rho = np.corrcoef(da.ravel(), idp.ravel())[0, 1]
    assert rho > 0.7
