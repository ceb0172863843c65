"""Configuration checks that must fire before any evaluation day is computed."""

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from splitcast.backtest import _STREAM_MS_CORR, _stream, run_backtest
from splitcast.config import (
    MAX_MEMBERS,
    METHOD_NAMES,
    ExperimentConfig,
    config_from_raw,
    parse_config_text,
)
from splitcast.ensembles import random_split
from splitcast.errors import ConfigError, PanelIntegrityError
from splitcast.panel import SyntheticConfig, generate_synthetic_panel, load_panel, write_panel


def test_default_config_needs_84_day_window():
    # hist fits on half the window, 2 rows for each of the 21 price regressors
    cfg = ExperimentConfig()
    assert cfg.min_calibration_window() == 84
    with pytest.raises(ConfigError, match="at least 84 days"):
        replace(cfg, calibration_window_days=83).validate()
    replace(cfg, calibration_window_days=84).validate()


def test_window_bound_follows_methods_and_variables():
    cfg = ExperimentConfig(methods=("ms",), trading=False)
    assert cfg.min_calibration_window() == 83  # round(0.5 * 83) = 42 estimation days
    assert replace(cfg, split_ratio=0.3).min_calibration_window() == 139
    small = replace(cfg, variables=("L", "W"), derived=(), mv_variables=())
    assert small.min_calibration_window() == 35  # 2 * 9 load regressors
    qr = ExperimentConfig(methods=("qr",), qr_variables=("L",), trading=False)
    assert qr.min_calibration_window() == 30
    # hist keeps two windows, so two members: window - inner_window >= 2
    assert replace(cfg, methods=("hist",), inner_window=60).min_calibration_window() == 62
    with pytest.raises(ConfigError, match="inner_window 41"):
        replace(cfg, methods=("hist",), inner_window=41, calibration_window_days=100).validate()


def test_ms_window_bound_leaves_two_members():
    """At split ratio 0.98 a window of w days leaves one split w - round(0.98 w)
    calibration days: 76 is the first window that gives 2 members."""
    cfg = ExperimentConfig(methods=("ms",), ms_modes=("corr",), split_ratio=0.98, n_splits=1)
    assert cfg.min_calibration_window() == 76
    for window in range(43, 76):
        with pytest.raises(ConfigError, match="needs at least 76 days"):
            replace(cfg, calibration_window_days=window).validate()
    replace(cfg, calibration_window_days=76).validate()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.99), st.integers(1, 40),
       st.sets(st.sampled_from(METHOD_NAMES), min_size=1), st.none() | st.integers(42, 150))
def test_min_calibration_window_is_the_shortest_that_validates(ratio, splits, methods,
                                                               inner_window):
    cfg = ExperimentConfig(split_ratio=ratio, n_splits=splits, methods=tuple(sorted(methods)),
                           inner_window=inner_window, trading=False)
    need = cfg.min_calibration_window()
    inner = need // 2 if inner_window is None else inner_window
    assume(splits * (need - round(ratio * need)) <= MAX_MEMBERS and need - inner <= MAX_MEMBERS)
    replace(cfg, calibration_window_days=need).validate()
    with pytest.raises(ConfigError, match=f"needs at least {need} days"):
        replace(cfg, calibration_window_days=need - 1).validate()


def test_validate_checks_derived_parents_and_the_trading_method():
    with pytest.raises(ConfigError, match="derived RL needs variable L"):
        ExperimentConfig(variables=("DA", "ID", "W"), derived=("RL",),
                         mv_variables=("DA",)).validate()
    # SP is also a model kind: as both it would name two fans (ms_corr, SP)
    with pytest.raises(ConfigError, match="derived SP is also an ensemble variable"):
        ExperimentConfig(variables=("DA", "ID", "SP", "W"), derived=("SP",),
                         mv_variables=("DA",)).validate()
    # without ensembles nothing is derived
    ExperimentConfig(variables=("DA", "ID", "W"), derived=("RL",), mv_variables=("DA",),
                     methods=("point", "qr"), trading=False).validate()
    with pytest.raises(ConfigError, match="trading_method ms needs method ms with mode corr"):
        ExperimentConfig(ms_modes=("uncorr",)).validate()
    with pytest.raises(ConfigError, match="trading_method hist needs method hist"):
        ExperimentConfig(methods=("point", "ms"), trading_method="hist").validate()


@pytest.mark.parametrize("changes, message", [
    ({"var_level": 1.5}, "var_level 1.5 outside"),
    ({"var_level": 0.0}, "var_level 0.0 outside"),
    ({"var_level": float("nan")}, "var_level nan outside"),
    ({"c_om": float("inf")}, "c_om inf is not a finite number"),
    ({"c_om": float("nan")}, "c_om nan is not a finite number"),
    ({"interval_levels": (0.8, float("nan"))}, "interval level nan outside"),
    ({"strategies": ("epi", "foo")}, "unknown strategy 'foo'"),
    ({"m_bins": 10**17}, "m_bins 100000000000000000 is too large"),
])
def test_validate_rejects_bad_trading_and_level_values(changes, message):
    """Values that would stop a run mid-way, e.g. var_level = 1.5 in the
    first hour's ``choose_q``, fail ``validate()`` instead."""
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**changes).validate()
    ExperimentConfig(var_level=0.1, c_om=-3.5).validate()


def test_m_bins_bound_and_strategies_without_trading():
    # the reliability numerator counts * m_bins stays below 2**63 at evaluation_days ranks
    ExperimentConfig(m_bins=2**63 // 730).validate()
    with pytest.raises(ConfigError, match="too large"):
        ExperimentConfig(m_bins=2**63 // 730 + 1).validate()
    ExperimentConfig(m_bins=2**63 // 10 - 1, evaluation_days=10).validate()
    # strategy names only matter to trading
    ExperimentConfig(strategies=("foo",), trading=False).validate()


@pytest.mark.parametrize("changes, key", [
    ({"variables": ("DA", "DA", "ID", "W"), "mv_variables": ("DA",)}, "variables"),
    ({"stopping_taus": (0.5, 0.5)}, "stopping_taus"),
    ({"derived": ("SP", "SP")}, "derived"),
    ({"qr_variables": ("DA", "L", "DA")}, "qr_variables"),
    ({"mv_variables": ("DA", "DA")}, "mv_variables"),
    ({"methods": ("point", "ms", "ms")}, "methods"),
    ({"ms_modes": ("corr", "corr")}, "ms_modes"),
    ({"interval_levels": (0.8, 0.9, 0.8)}, "interval_levels"),
    ({"strategies": ("epi", "epi")}, "strategies"),
])
def test_validate_rejects_a_repeated_list_entry(changes, key):
    """A repeated variable would pair fan keys with another variable's
    quantiles, and a repeated stopping tau failed only after every day."""
    with pytest.raises(ConfigError, match=f"^{key} lists .* more than once"):
        ExperimentConfig(**changes).validate()


@pytest.mark.parametrize("methods", [("point",), ("point", "ms"), ("qr", "hist")])
def test_validate_rejects_a_negative_seed_whatever_the_methods(methods):
    """A stream's SeedSequence takes no negative entropy; a point run draws
    no stream, and is rejected all the same."""
    cfg = ExperimentConfig(methods=methods, master_seed=-1, trading=False)
    with pytest.raises(ConfigError, match="^master_seed -1 is negative$"):
        cfg.validate()
    replace(cfg, master_seed=0).validate()


def test_validate_rejects_qr_without_variables():
    cfg = ExperimentConfig(methods=("point", "qr"), qr_variables=(), trading=False)
    with pytest.raises(ConfigError, match="method qr needs at least one qr variable"):
        cfg.validate()
    replace(cfg, methods=("point",)).validate()


def test_validate_bounds_the_members_of_one_ensemble():
    # 20 splits of 183 calibration days: the paper's 3,660 members
    ExperimentConfig().validate()
    with pytest.raises(ConfigError, match="ms ensembles of 183000000000 members"):
        ExperimentConfig(n_splits=10**9).validate()
    # ms members are n_splits * (window - round(ratio * window))
    fits = MAX_MEMBERS // 183
    ExperimentConfig(n_splits=fits).validate()
    with pytest.raises(ConfigError, match=f"bound of {MAX_MEMBERS}"):
        ExperimentConfig(n_splits=fits + 1).validate()
    # hist members are window - inner_window
    hist = ExperimentConfig(methods=("hist",), trading_method="hist", inner_window=100)
    replace(hist, calibration_window_days=MAX_MEMBERS + 100).validate()
    with pytest.raises(ConfigError, match="hist ensembles of"):
        replace(hist, calibration_window_days=MAX_MEMBERS + 101).validate()


@pytest.mark.parametrize("changes, message", [
    ({"methods": ("hist",), "inner_window": 59, "trading": False}, "at least 61 days"),
    ({"methods": ("ms",), "ms_modes": ("corr",), "split_ratio": 0.98, "n_splits": 1},
     "ms ensembles need at least 2 members per \\(day, hour\\), this configuration gives 1"),
])
def test_one_member_ensembles_fail_before_day_one(panel_small, tmp_path, changes, message):
    """A quantile of one member has nothing to interpolate: such a config is
    rejected by validate(), not by the first day."""
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"), calibration_window_days=60,
                           evaluation_days=1, **changes)
    with pytest.raises(ConfigError, match=message):
        run_backtest(cfg, panel=panel_small)
    assert not (tmp_path / "out").exists()


def test_two_member_hist_ensembles_finish(panel_small, tmp_path):
    cfg = ExperimentConfig(output_dir=str(tmp_path), calibration_window_days=60,
                           evaluation_days=1, methods=("hist",), inner_window=58, trading=False)
    assert cfg.min_calibration_window() == 60
    result = run_backtest(cfg, panel=panel_small)
    assert result.n_days == 1
    assert ("hist", "DA") in result.crps


def test_short_window_fails_before_day_one(panel_small, tmp_path):
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"), calibration_window_days=60,
                           evaluation_days=1, methods=("ms",))
    with pytest.raises(ConfigError, match="at least 83 days"):
        run_backtest(cfg, panel=panel_small)
    assert not (tmp_path / "out").exists()


def test_one_day_at_the_minimum_window_finishes(panel_small, tmp_path):
    cfg = ExperimentConfig(output_dir=str(tmp_path), calibration_window_days=84,
                           evaluation_days=1, methods=("hist", "ms"))
    result = run_backtest(cfg, panel=panel_small)
    assert result.n_days == 1
    assert {("hist", "DA"), ("ms_corr", "DA"), ("ms_uncorr", "RL")} <= set(result.crps)


def test_split_missing_a_weekday_finishes(tmp_path):
    """At the minimum window a split's estimation days can miss a weekday, which
    leaves that dummy column all zero: the fit takes the minimum norm solution
    and the run finishes.  master_seed 101 draws such a split on this day."""
    panel = generate_synthetic_panel(SyntheticConfig(days=110), seed=3)
    cfg = ExperimentConfig(output_dir=str(tmp_path), evaluation_days=1,
                           evaluation_start=panel.dates[96], master_seed=101,
                           methods=("ms",), ms_modes=("corr",), variables=("DA", "ID", "W"),
                           derived=(), mv_variables=(), trading=False)
    cfg = replace(cfg, calibration_window_days=cfg.min_calibration_window())
    assert cfg.calibration_window_days == 83
    # replay the day's split stream: some estimation side misses a weekday
    rng = _stream(cfg.master_seed, _STREAM_MS_CORR, 96)
    weekdays = panel.weekdays()
    plans = [random_split(np.arange(13, 96), cfg.split_ratio, rng) for _ in range(cfg.n_splits)]
    assert any(np.unique(weekdays[p.estimation_days]).size < 7 for p in plans)

    result = run_backtest(cfg, panel=panel)
    assert result.n_days == 1
    assert set(result.crps) == {("ms_corr", v) for v in ("DA", "ID", "W")}
    for entry in result.crps.values():
        assert np.all(np.isfinite(entry["per_hour"])) and np.isfinite(entry["overall"])


def test_config_keys_parse_by_their_annotation():
    cfg = config_from_raw(parse_config_text("""
        variables = DA, ID ,W
        derived =
        interval_levels = 0.8,0.95
        trading = no
        evaluation_start = 2021-03-01
        inner_window = 40
        split_ratio = 0.25
        trading_method = hist
    """))
    assert cfg.variables == ("DA", "ID", "W")
    assert cfg.derived == ()
    assert cfg.interval_levels == (0.8, 0.95)
    assert cfg.trading is False
    assert cfg.evaluation_start == dt.date(2021, 3, 1)
    assert cfg.inner_window == 40 and cfg.split_ratio == 0.25
    assert cfg.trading_method == "hist"
    for raw, message in (({"m_bins": "ten"}, "bad value for m_bins"),
                         ({"trading": "maybe"}, "not a boolean"),
                         ({"evaluation_start": "03/01/2021"}, "not an ISO date"),
                         ({"schema": "x"}, "unknown configuration key 'schema'")):
        with pytest.raises(ConfigError, match=message):
            config_from_raw(raw)


def test_config_file_remaps_res_and_fres(panel_small, tmp_path):
    """schema_RES and schema_FRES name the columns that are read and checked
    against W + S and FW + FS, as ``--schema RES=...`` does."""
    cfg = config_from_raw(parse_config_text("schema_RES = renew\nschema_fres = renew_fc\n"))
    assert cfg.schema == {"RES": "renew", "FRES": "renew_fc"}
    path = tmp_path / "panel.csv"
    write_panel(panel_small, path, cfg.schema)
    back = load_panel(path, cfg.schema)
    np.testing.assert_array_equal(back.hourly["FRES"], panel_small.hourly["FRES"])
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index("renew_fc")
    row = lines[5].split(",")
    row[column] = str(float(row[column]) + 1.0)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelIntegrityError, match="FRES at .* is not wind [+] solar"):
        load_panel(path, cfg.schema)


@pytest.mark.parametrize("method", ["hist", "ms"])
def test_ensembles_without_variables_fail_validate(method):
    """With no ensemble variable the first day would raise EmptyEnsembleError."""
    cfg = ExperimentConfig(methods=(method,), variables=(), derived=(), mv_variables=(),
                           qr_variables=(), trading=False)
    with pytest.raises(ConfigError, match="need at least one ensemble variable"):
        cfg.validate()
    replace(cfg, methods=("point",)).validate()
