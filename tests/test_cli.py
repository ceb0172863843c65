"""Console surface: every subcommand, exit codes, and file round trips."""

import csv
import datetime as dt
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from splitcast.cli import main
from splitcast.ensembles import historical_ensembles_for_day, ms_ensembles_for_day
from splitcast.features import MarketData
from splitcast.panel import load_panel
from splitcast.quantreg import TAU_GRID, QuantileFan
from splitcast.scores import crps_from_fan

BASE_SET = [
    "--set", "variables=DA,ID,W",
    "--set", "derived=",
    "--set", "qr_variables=",
    "--set", "mv_variables=DA,ID",
]


# runs ``splitcast`` on argv[1:] with process pools started by spawn, so that
# whatever a worker needs must reach it pickled
_SPAWN_MAIN = textwrap.dedent("""
    import multiprocessing, sys
    from splitcast.cli import main

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        sys.exit(main(sys.argv[1:]))
""")


def _spawned_main(tmp_path, *argv):
    script = tmp_path / "spawn_main.py"
    script.write_text(_SPAWN_MAIN)
    return subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "panel.csv"
    assert main(["synth", "--days", "160", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def fan_dir(panel_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fans")
    panel = load_panel(str(panel_csv))
    start = panel.dates[150].isoformat()
    end = panel.dates[151].isoformat()
    code = main(["forecast", "--method", "ms", "--mode", "corr",
                 "--input", str(panel_csv), "--start", start, "--end", end,
                 "--out", str(out), "--splits", "4", "--window", "100",
                 "--members", *BASE_SET])
    assert code == 0
    return out


def test_synth_writes_loadable_panel(panel_csv):
    panel = load_panel(str(panel_csv))
    assert panel.n_days == 160
    # one row per cell and no blank reading: nothing for the loader to resolve
    rows = panel_csv.read_text().splitlines()[1:]
    assert len(rows) == 24 * 160
    assert all("" not in row.split(",") for row in rows)


def test_synth_generator_overrides(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["synth", "--days", "30", "--out", str(out),
                 "--set", "corr.DA.ID=0.2", "--set", "phi.L=0.5"]) == 0
    assert main(["synth", "--days", "30", "--out", str(out),
                 "--set", "corr.DA.XX=0.2"]) == 2
    assert main(["synth", "--days", "30", "--out", str(out),
                 "--set", "phi.L=1.5"]) == 2
    assert main(["synth", "--days", "30", "--out", str(out),
                 "--set", "typo"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_clean_panel(panel_csv, capsys):
    assert main(["validate", str(panel_csv)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_corrupt_file(panel_csv, tmp_path, capsys):
    # a panel is built only from readings that meet the value rules
    lines = panel_csv.read_text().splitlines()
    cells = lines[40].split(",")
    cells[5] = "-5.0"
    lines[40] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(bad)]) == 2
    date = lines[40].split(",")[0]
    assert f"error: negative value in W at {date} h16: -5.0" in capsys.readouterr().err


def test_forecast_fan_file_shape(fan_dir, panel_csv):
    with open(fan_dir / "fans.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header[:3] == ["date", "hour", "variable"]
    assert header[3] == "p01" and header[-1] == "p99" and len(header) == 102
    assert len(rows) == 2 * 3 * 24  # days x variables x hours
    for row in rows[::17]:
        fan = np.array([float(v) for v in row[3:]])
        assert np.all(np.diff(fan) >= 0.0)


def test_forecast_members_dump(fan_dir, panel_csv):
    panel = load_panel(str(panel_csv))
    path = fan_dir / f"members_{panel.dates[150].isoformat()}.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["hour", "member", "DA", "ID", "W"]
    # 4 splits of a 100 day window leave 50 calibration days each
    assert len(rows) == 24 * 4 * 50
    hours = {int(r[0]) for r in rows}
    assert hours == set(range(1, 25))


def test_forecast_skips_ranks_without_changing_outputs(panel_csv, tmp_path, monkeypatch):
    """forecast_day reads no realized value, so forecast ranks nothing, even
    with multivariate rank variables configured."""
    import splitcast.backtest as backtest
    import splitcast.cli as cli

    calls = []
    rank = backtest.multivariate_rank
    monkeypatch.setattr(backtest, "multivariate_rank",
                        lambda *a, **kw: calls.append(1) or rank(*a, **kw))
    panel = load_panel(str(panel_csv))
    args = ["forecast", "--method", "ms", "--mode", "corr", "--input", str(panel_csv),
            "--start", panel.dates[150].isoformat(), "--end", panel.dates[151].isoformat(),
            "--splits", "4", "--window", "100", "--members", *BASE_SET]
    assert main(args + ["--out", str(tmp_path / "off")]) == 0
    assert calls == []
    forecast_config = cli._forecast_config
    monkeypatch.setattr(cli, "_forecast_config",
                        lambda a: replace(forecast_config(a), mv_variables=("DA", "ID")))
    assert main(args + ["--out", str(tmp_path / "on")]) == 0
    assert calls == []
    names = sorted(p.name for p in (tmp_path / "off").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "on").iterdir())
    assert names == ["fans.csv"] + [f"members_{panel.dates[d].isoformat()}.csv" for d in (150, 151)]
    for name in names:
        assert (tmp_path / "off" / name).read_bytes() == (tmp_path / "on" / name).read_bytes(), name


def _members_rebuilt(data, cfg, day_idx, method):
    """A day's ensembles built apart from the forecast, on the engine's streams."""
    from splitcast.backtest import _STREAM_MS_CORR, _STREAM_MS_UNCORR, _stream

    window = np.arange(day_idx - cfg.calibration_window_days, day_idx, dtype=np.intp)
    hours = range(1, 25)
    if method == "hist":
        return historical_ensembles_for_day(data, cfg.variables, window, day_idx,
                                            hours, cfg.inner_window)
    if method == "ms_corr":
        rng = _stream(cfg.master_seed, _STREAM_MS_CORR, day_idx)
    else:
        rng = [_stream(cfg.master_seed, _STREAM_MS_UNCORR, day_idx, vi)
               for vi in range(len(cfg.variables))]
    return ms_ensembles_for_day(data, cfg.variables, window, day_idx, hours,
                                cfg.n_splits, cfg.split_ratio, rng, mode=method[3:])


@pytest.mark.parametrize("method", ["ms_corr", "ms_uncorr", "hist"])
def test_forecast_members_built_once_per_day(panel_csv, tmp_path, monkeypatch, method):
    """--members writes the ensembles the fans came from, built once per day."""
    import splitcast.cli as cli
    import splitcast.ensembles as ensembles

    calls = []
    for name in ("ms_ensembles_for_day", "historical_ensembles_for_day"):
        build = getattr(ensembles, name)
        counted = lambda *a, _b=build, _n=name, **kw: calls.append(_n) or _b(*a, **kw)
        # count calls through every module that imported the builder
        for module in [m for k, m in sys.modules.items() if k.startswith("splitcast")]:
            if getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted)
    panel = load_panel(str(panel_csv))
    method_args = ["--method", "hist"] if method == "hist" else ["--method", "ms", "--mode", method[3:]]
    args = ["forecast", *method_args, "--input", str(panel_csv),
            "--start", panel.dates[150].isoformat(), "--end", panel.dates[151].isoformat(),
            "--splits", "4", "--window", "100", "--members", "--out", str(tmp_path / "out"),
            *BASE_SET]
    assert main(args) == 0
    kind = "historical" if method == "hist" else "ms"
    assert calls == [f"{kind}_ensembles_for_day"] * 2  # one build per forecast day

    cfg = cli._forecast_config(cli.build_parser().parse_args(args))
    data = MarketData.from_panel(panel)
    for d in (150, 151):
        name = f"members_{panel.dates[d].isoformat()}.csv"
        cli._write_members_file(tmp_path / name, _members_rebuilt(data, cfg, d, method))
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes(), name


@pytest.mark.parametrize("method", [["ms", "--members"], ["point"]])
def test_spawned_forecast_workers_match_serial(panel_csv, tmp_path, method):
    """forecast --set workers=2 runs its days in a spawn-started pool and
    writes the bytes of the serial run: fans.csv, each members_<date>.csv
    and point_forecasts.csv."""
    panel = load_panel(str(panel_csv))
    args = ["forecast", "--method", *method, "--input", str(panel_csv),
            "--start", panel.dates[150].isoformat(), "--end", panel.dates[151].isoformat(),
            "--splits", "4", "--window", "100", *BASE_SET]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    out = _spawned_main(tmp_path, *args, "--out", str(tmp_path / "spawn"), "--set", "workers=2")
    assert out.returncode == 0, out.stderr
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "spawn").iterdir())
    assert len(names) == (3 if method[0] == "ms" else 1)
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "spawn" / name).read_bytes(), name


def test_forecast_rejects_bad_ranges(panel_csv, tmp_path, capsys):
    panel = load_panel(str(panel_csv))
    early = panel.dates[20].isoformat()
    late = panel.dates[150].isoformat()
    args = ["forecast", "--method", "ms", "--input", str(panel_csv),
            "--out", str(tmp_path), "--splits", "4", "--window", "100", *BASE_SET]
    assert main(args + ["--start", early, "--end", early]) == 2
    assert main(args + ["--start", late, "--end", panel.dates[149].isoformat()]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_bad_dates_exit_2_on_one_line(panel_csv, tmp_path, capsys):
    panel = load_panel(str(panel_csv))
    args = ["forecast", "--method", "ms", "--input", str(panel_csv),
            "--out", str(tmp_path), "--splits", "4", "--window", "100", *BASE_SET]
    end = panel.dates[151].isoformat()
    assert main(args + ["--start", "2021-13-01", "--end", end]) == 2
    assert "--start: '2021-13-01' is not a YYYY-MM-DD date" in _one_line_error(capsys)
    assert main(args + ["--start", "2035-01-01", "--end", "2035-01-02"]) == 2
    assert "not a day of the panel" in _one_line_error(capsys)
    assert main(["synth", "--days", "30", "--start-date", "2020-02-30",
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "--start-date" in _one_line_error(capsys)


def test_forecast_rejects_derived_without_parents_on_one_line(panel_csv, tmp_path, capsys):
    """The default derived SP needs ID: rejected by validate, not by a KeyError
    in the ensembles of the first day."""
    panel = load_panel(str(panel_csv))
    day = panel.dates[150].isoformat()
    assert main(["forecast", "--method", "hist", "--input", str(panel_csv),
                 "--start", day, "--end", day, "--window", "100", "--out", str(tmp_path),
                 "--set", "variables=DA,L,W", "--set", "mv_variables=DA"]) == 2
    assert "derived SP needs variable ID" in _one_line_error(capsys)


@pytest.mark.parametrize("method", ["qr", "point"])
def test_forecast_members_need_an_ensemble_method(panel_csv, tmp_path, method, capsys):
    """qr and point build no members: --members with them is an error, not an
    empty dump."""
    day = load_panel(str(panel_csv)).dates[150].isoformat()
    out = tmp_path / "out"
    assert main(["forecast", "--method", method, "--members", "--input", str(panel_csv),
                 "--start", day, "--end", day, "--window", "100", "--out", str(out),
                 *BASE_SET]) == 2
    assert f"--members needs --method hist or ms, not {method}" in _one_line_error(capsys)
    assert not out.exists()


def test_unreadable_files_exit_2_on_one_line(fan_dir, panel_csv, tmp_path, capsys):
    fans = str(fan_dir / "fans.csv")
    out = str(tmp_path / "scores")
    missing = str(tmp_path / "missing.csv")
    assert main(["evaluate", "--fans", missing, "--input", str(panel_csv), "--out", out]) == 2
    assert "missing.csv" in _one_line_error(capsys)
    assert main(["evaluate", "--fans", fans, "--input", missing, "--out", out]) == 2
    assert "missing.csv" in _one_line_error(capsys)
    assert main(["validate", str(tmp_path)]) == 2  # a directory, not a file
    _one_line_error(capsys)

    lines = (fan_dir / "fans.csv").read_text().splitlines()
    for bad_row, why in ((lines[1].replace(",", ",x", 1), "date"),
                         (",".join(lines[1].split(",")[:50]), "short row"),
                         (lines[1].replace(",1,", ",25,", 1), "hour")):
        bad = tmp_path / "bad_fans.csv"
        bad.write_text("\n".join([lines[0], bad_row]) + "\n")
        assert main(["evaluate", "--fans", str(bad), "--input", str(panel_csv),
                     "--out", out]) == 2, why
        _one_line_error(capsys)
    (tmp_path / "binary.csv").write_bytes(bytes(range(128, 256)))
    assert main(["evaluate", "--fans", str(tmp_path / "binary.csv"),
                 "--input", str(panel_csv), "--out", out]) == 2
    _one_line_error(capsys)
    assert main(["evaluate", "--fans", fans, "--input", str(panel_csv), "--out", out,
                 "--levels", "0.8,ninety"]) == 2
    assert "--levels" in _one_line_error(capsys)


def test_malformed_rows_exit_2_on_one_line(fan_dir, panel_csv, tmp_path, capsys):
    lines = panel_csv.read_text().splitlines()
    huge = "1" * 200_000  # over the csv module's field size limit
    date = lines[1].split(",")[0]
    for name, body, why in (("short.csv", [date], "bad hour ''"),
                            ("huge.csv", [lines[1].replace(",", f",{huge},", 1)], "field larger")):
        bad = tmp_path / name
        bad.write_text("\n".join([lines[0], *body, *lines[2:]]) + "\n")
        assert main(["validate", str(bad)]) == 2
        assert why in _one_line_error(capsys)

    fans = (fan_dir / "fans.csv").read_text().splitlines()
    bad = tmp_path / "huge_fans.csv"
    bad.write_text("\n".join([fans[0], fans[1].replace(",", f",{huge},", 1)]) + "\n")
    assert main(["evaluate", "--fans", str(bad), "--input", str(panel_csv),
                 "--out", str(tmp_path / "scores")]) == 2
    assert "field larger" in _one_line_error(capsys)
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "strategy.csv").write_text(f"strategy,tau\nepi,{huge}\n")
    assert main(["report", "--backtest-dir", str(bundle)]) == 2
    assert "field larger" in _one_line_error(capsys)


def test_evaluate_scores_stored_fans(fan_dir, panel_csv, tmp_path, capsys):
    out = tmp_path / "scores"
    code = main(["evaluate", "--fans", str(fan_dir / "fans.csv"),
                 "--input", str(panel_csv), "--levels", "0.8,0.95",
                 "--out", str(out)])
    assert code == 0
    assert "note: level 0.95" in capsys.readouterr().out
    with open(out / "coverage.csv", newline="") as fh:
        cov = list(csv.DictReader(fh))
    assert {r["level"] for r in cov} == {"0.8"}
    assert len(cov) == 3 * 25
    with open(out / "crps.csv", newline="") as fh:
        cr = list(csv.DictReader(fh))
    assert len(cr) == 3 * 25

    # recompute one variable from the stored fans as an independent check
    with open(fan_dir / "fans.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        fan_rows = [r for r in reader if r[2] == "DA"]
    data = MarketData.from_panel(load_panel(str(panel_csv)))
    scores = []
    for row in fan_rows:
        day_idx = data.panel.day_index(dt.date.fromisoformat(row[0]))
        y = data.panel.hourly["DA"][day_idx, int(row[1]) - 1]
        fan = QuantileFan(taus=TAU_GRID.copy(), values=np.array([float(v) for v in row[3:]]))
        scores.append(crps_from_fan(fan, y))
    overall = next(r for r in cr if r["variable"] == "DA" and r["hour"] == "all")
    assert float(overall["crps"]) == pytest.approx(np.mean(scores), rel=1e-4)


@pytest.mark.parametrize("levels, message", [
    ("1.5,0,0.8", "interval level 1.5 outside (0, 1)"),
    ("nan,0.8", "interval level nan outside (0, 1)"),
])
def test_evaluate_rejects_levels_outside_the_unit_interval(fan_dir, panel_csv, tmp_path, capsys,
                                                           levels, message):
    out = tmp_path / "scores"
    assert main(["evaluate", "--fans", str(fan_dir / "fans.csv"), "--input", str(panel_csv),
                 f"--levels={levels}", "--out", str(out)]) == 2
    assert message in _one_line_error(capsys)
    assert not out.exists()


def test_evaluate_rejects_a_variable_the_panel_lacks(fan_dir, panel_csv, tmp_path, capsys):
    lines = (fan_dir / "fans.csv").read_text().splitlines()
    row = lines[1].split(",")
    row[2] = "FOO"
    bad = tmp_path / "foo_fans.csv"
    bad.write_text("\n".join([*lines, ",".join(row)]) + "\n")
    out = tmp_path / "scores"
    assert main(["evaluate", "--fans", str(bad), "--input", str(panel_csv),
                 "--out", str(out)]) == 2
    assert "variable 'FOO' is not a series of the panel" in _one_line_error(capsys)
    assert not out.exists()


def test_evaluate_rejects_a_variable_without_fans_on_a_date(fan_dir, panel_csv, tmp_path,
                                                             capsys):
    lines = (fan_dir / "fans.csv").read_text().splitlines()
    date = load_panel(str(panel_csv)).dates[151].isoformat()
    kept = [line for line in lines if not line.startswith(f"{date},") or
            line.split(",")[2] != "ID"]
    assert len(kept) == len(lines) - 24
    bad = tmp_path / "gap_fans.csv"
    bad.write_text("\n".join(kept) + "\n")
    out = tmp_path / "scores"
    assert main(["evaluate", "--fans", str(bad), "--input", str(panel_csv),
                 "--out", str(out)]) == 2
    assert f"no fans for ID on {date}" in _one_line_error(capsys)
    assert not out.exists()


def test_backtest_cli_runs(panel_csv, tmp_path, capsys):
    out = tmp_path / "bt"
    code = main(["backtest", "--input", str(panel_csv), "--out", str(out),
                 "--window", "100", "--eval-days", "2", "--splits", "3",
                 "--no-trading", "--set", "methods=ms", "--set", "ms_modes=corr",
                 *BASE_SET])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 evaluation days" in text
    for name in ("coverage.csv", "crps.csv", "reliability.csv", "run_config.cfg", "summary.txt"):
        assert (out / name).exists()
    assert not (out / "strategy.csv").exists()


def test_backtest_rejects_an_evaluation_start_off_the_panel(panel_csv, tmp_path, capsys):
    out = tmp_path / "bt"
    assert main(["backtest", "--input", str(panel_csv), "--out", str(out), "--window", "100",
                 "--eval-days", "2", "--set", "methods=point", "--no-trading",
                 "--set", "evaluation_start=1999-01-01"]) == 2
    assert "evaluation_start 1999-01-01 is not a day of the panel" in _one_line_error(capsys)
    assert not out.exists()


def test_backtest_rejects_more_evaluation_days_than_the_panel_has(panel_csv, tmp_path, capsys):
    out = tmp_path / "bt"
    assert main(["backtest", "--input", str(panel_csv), "--out", str(out), "--window", "100",
                 "--eval-days", "200", "--set", "methods=point", "--no-trading"]) == 2
    assert "evaluation_days = 200 is more than the 160 days of the panel" in _one_line_error(capsys)
    assert not out.exists()


def test_backtest_cli_rejects_bad_overrides(panel_csv, tmp_path, capsys):
    args = ["backtest", "--input", str(panel_csv), "--out", str(tmp_path / "x"),
            "--window", "100", "--eval-days", "1"]
    assert main(args + ["--set", "bogus=1"]) == 2
    assert main(args + ["--set", "novalue"]) == 2
    assert main(args + ["--set", "n_splits=many"]) == 2
    assert "error:" in capsys.readouterr().err


def test_backtest_rejects_an_unknown_strategy_before_day_one(panel_csv, tmp_path, capsys,
                                                              monkeypatch):
    import splitcast.backtest as backtest

    days = []
    monkeypatch.setattr(backtest, "forecast_day", lambda *a: days.append(a) or None)
    assert main(["backtest", "--input", str(panel_csv), "--out", str(tmp_path / "x"),
                 "--window", "100", "--eval-days", "1", "--set", "strategies=epi,foo"]) == 2
    assert "unknown strategy 'foo'" in _one_line_error(capsys)
    assert days == []
    assert not (tmp_path / "x").exists()


def test_backtest_rejects_var_level_outside_the_unit_interval(panel_csv, tmp_path, capsys):
    assert main(["backtest", "--input", str(panel_csv), "--out", str(tmp_path / "x"),
                 "--window", "100", "--eval-days", "1", "--set", "var_level=1.5"]) == 2
    assert "var_level 1.5 outside (0, 1)" in _one_line_error(capsys)
    assert not (tmp_path / "x").exists()


def test_backtest_rejects_a_negative_seed_before_day_one(panel_csv, tmp_path, capsys):
    assert main(["backtest", "--input", str(panel_csv), "--out", str(tmp_path / "x"),
                 "--window", "100", "--eval-days", "1", "--seed", "-1",
                 "--set", "methods=point,ms", *BASE_SET]) == 2
    assert _one_line_error(capsys) == "error: master_seed -1 is negative\n"
    assert not (tmp_path / "x").exists()


def test_forecast_rejects_qr_without_variables_before_day_one(panel_csv, tmp_path, capsys,
                                                               monkeypatch):
    """An empty qr_variables would write a fans file without a row, which
    evaluate rejects: forecast refuses it before the first day."""
    import splitcast.backtest as backtest

    days = []
    monkeypatch.setattr(backtest, "forecast_day", lambda *a: days.append(a) or None)
    day = load_panel(str(panel_csv)).dates[150].isoformat()
    out = tmp_path / "fc"
    assert main(["forecast", "--method", "qr", "--input", str(panel_csv), "--out", str(out),
                 "--window", "100", "--start", day, "--end", day,
                 "--set", "qr_variables="]) == 2
    assert _one_line_error(capsys) == "error: method qr needs at least one qr variable\n"
    assert days == []
    assert not (out / "fans.csv").exists()


@pytest.fixture(scope="module")
def degenerate_csv(tmp_path_factory):
    """A 140 day panel (seed 3) whose load forecast is one constant from day
    21 on, so that the QR design of each evaluation day has rank 20 of 21."""
    path = tmp_path_factory.mktemp("degenerate") / "panel.csv"
    assert main(["synth", "--days", "140", "--seed", "3", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    col = header.index("load_fc")
    for row in rows[24 * 21:]:
        row[col] = "50.0"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


DEGENERATE_ERROR = "error: 2020-05-15: design of rank 20 with 21 columns\n"


def test_an_error_in_a_day_names_its_date(degenerate_csv, tmp_path, capsys):
    """An error raised while a day is computed names the day first: in a
    serial backtest, in a spawn-started worker and in forecast."""
    backtest = ["backtest", "--input", str(degenerate_csv), "--out", str(tmp_path / "bt"),
                "--window", "100", "--eval-days", "5", "--set", "methods=point,qr",
                "--no-trading"]
    assert main(backtest + ["--workers", "1"]) == 2
    assert capsys.readouterr().err == DEGENERATE_ERROR
    spawned = _spawned_main(tmp_path, *backtest, "--workers", "2")
    assert spawned.returncode == 2 and spawned.stderr == DEGENERATE_ERROR, spawned.stderr
    assert main(["forecast", "--method", "qr", "--input", str(degenerate_csv),
                 "--out", str(tmp_path / "fc"), "--window", "100",
                 "--start", "2020-05-15", "--end", "2020-05-16"]) == 2
    assert capsys.readouterr().err == DEGENERATE_ERROR


def test_a_forecast_that_fails_part_way_leaves_no_table(degenerate_csv, tmp_path, capsys):
    """The first day's QR fans succeed and the second day's fail: forecast
    exits 2 and writes no fans file, neither a truncated one nor its part;
    evaluate rejects a fans file with a header and no rows."""
    out = tmp_path / "fc"
    assert main(["forecast", "--method", "qr", "--input", str(degenerate_csv),
                 "--out", str(out), "--window", "100",
                 "--start", "2020-04-26", "--end", "2020-04-27"]) == 2
    assert capsys.readouterr().err == "error: 2020-04-27: design of rank 8 with 9 columns\n"
    assert list(out.iterdir()) == []
    header_only = tmp_path / "fans.csv"
    header_only.write_text(",".join(["date", "hour", "variable",
                                     *(f"p{k:02d}" for k in range(1, 100))]) + "\n")
    assert main(["evaluate", "--fans", str(header_only), "--input", str(degenerate_csv),
                 "--out", str(tmp_path / "scores")]) == 2
    assert _one_line_error(capsys) == f"error: {header_only} holds no fans\n"
    assert not (tmp_path / "scores").exists()


@pytest.fixture(scope="module")
def traded_backtest(panel_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("traded")
    code = main(["backtest", "--input", str(panel_csv), "--out", str(out),
                 "--window", "100", "--eval-days", "2", "--splits", "3",
                 "--set", "methods=point,ms", "--set", "ms_modes=corr",
                 "--set", "stopping_taus=0.3,1.0", *BASE_SET])
    assert code == 0
    return out


def test_report_tables(traded_backtest, tmp_path):
    out = tmp_path / "plots"
    assert main(["report", "--backtest-dir", str(traded_backtest), "--out", str(out)]) == 0
    with open(out / "profit_vs_tau.csv", newline="") as fh:
        profit = list(csv.DictReader(fh))
    assert len(profit) == 3 * 2  # strategies x taus; benchmarks carry no tau
    assert {r["strategy"] for r in profit} == {"epi", "var", "sr"}
    with open(out / "q_histogram.csv", newline="") as fh:
        hist = list(csv.DictReader(fh))
    by_strategy = {}
    for r in hist:
        by_strategy.setdefault(r["strategy"], 0)
        by_strategy[r["strategy"]] += int(r["count"])
    # one tau slice per strategy: every evaluated hour lands in one bucket
    assert set(by_strategy) == {"epi", "var", "sr", "naive", "limited"}
    assert all(total == 2 * 24 for total in by_strategy.values())


def test_report_rejects_a_malformed_bundle_on_one_line(traded_backtest, tmp_path, capsys):
    strategy = (traded_backtest / "strategy.csv").read_text().splitlines()
    decisions = (traded_backtest / "decisions.csv").read_text().splitlines()
    tau = strategy[0].split(",").index("tau")
    no_tau = [",".join(c for i, c in enumerate(line.split(",")) if i != tau) for line in strategy]
    q = decisions[0].split(",").index("q")

    def first_q(value):
        cells = decisions[1].split(",")
        cells[q] = value
        return [decisions[0], ",".join(cells), *decisions[2:]]

    cases = [("strategy.csv", no_tau, "no column tau"),
             ("decisions.csv", first_q("abc"), "row 1: q 'abc'"),
             ("decisions.csv", first_q("nan"), "row 1: q 'nan'"),
             ("decisions.csv", first_q("1.5"), "row 1: q '1.5'"),
             ("decisions.csv", [decisions[0], "2020-01-01,1,epi"], "row 1: too few fields")]
    for k, (name, lines, why) in enumerate(cases):
        bundle = tmp_path / f"bundle{k}"
        bundle.mkdir()
        for other in ("strategy.csv", "decisions.csv"):
            (bundle / other).write_text((traded_backtest / other).read_text())
        (bundle / name).write_text("\n".join(lines) + "\n")
        assert main(["report", "--backtest-dir", str(bundle), "--out", str(tmp_path / "out")]) == 2
        err = _one_line_error(capsys)
        assert name in err and why in err, err


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "splitcast", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "usage: splitcast" in out.stdout


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["mystery"])
