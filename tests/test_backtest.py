"""End to end backtest runs: reports, determinism, and the leakage audit."""

import csv
import filecmp
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from splitcast.backtest import (
    _run_days,
    _scored_day,
    corrupt_after_cutoff,
    evaluation_day_indices,
    forecast_day,
    leakage_check,
    run_backtest,
    run_plan,
    score_day,
)
from splitcast.config import ExperimentConfig
from splitcast.ensembles import ForecastEnsemble
from splitcast.errors import ConfigError
from splitcast.features import MarketData, row_length
from splitcast.panel import (
    DAILY_SERIES,
    FORECASTS,
    READ_SERIES,
    SyntheticConfig,
    generate_synthetic_panel,
)
from splitcast.scores import crps_fan_matrix, interval_hits

WINDOW = 100


def _cfg(out_dir, **kw):
    base = dict(
        output_dir=str(out_dir),
        calibration_window_days=WINDOW,
        evaluation_days=3,
        n_splits=4,
        variables=("DA", "ID", "L", "RES", "W"),
        derived=("SP", "RL"),
        qr_variables=("DA",),
        mv_variables=("DA", "ID"),
        methods=("point", "qr", "hist", "ms"),
        ms_modes=("corr", "uncorr"),
        interval_levels=(0.8, 0.95),
        trading=True,
        trading_method="ms",
        strategies=("epi", "var", "sr"),
        stopping_taus=(0.3, 1.0),
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def runs(panel_small, tmp_path_factory):
    base = tmp_path_factory.mktemp("backtest")
    res_a = run_backtest(_cfg(base / "a"), panel=panel_small)
    res_b = run_backtest(_cfg(base / "b"), panel=panel_small)
    res_c = run_backtest(_cfg(base / "c", workers=2), panel=panel_small)
    return SimpleNamespace(a=res_a, b=res_b, c=res_c)


def test_bundle_files_written(runs):
    res = runs.a
    assert res.n_days == 3
    expected = {"coverage", "crps", "reliability", "point_forecasts",
                "strategy", "decisions", "run_config", "summary"}
    assert set(res.files) == expected
    for path in res.files.values():
        with open(path) as fh:
            assert fh.readline() != ""


def test_method_label_expansion():
    plan = run_plan(_cfg("unused"))
    assert plan.methods == ("qr", "hist", "ms_corr", "ms_uncorr")
    assert plan.ensemble_methods == ("hist", "ms_corr", "ms_uncorr")
    assert plan.trading_ensemble == "ms_corr"
    only_corr = run_plan(_cfg("unused", methods=("ms",), ms_modes=("corr",),
                              trading=False, qr_variables=()))
    assert only_corr.methods == ("ms_corr",)
    assert only_corr.decisions == () and only_corr.trading_ensemble is None


def test_coverage_table_structure(runs):
    res = runs.a
    with open(res.files["coverage"]) as fh:
        rows = list(csv.DictReader(fh))
    assert set(r["method"] for r in rows) == {"qr", "hist", "ms_corr", "ms_uncorr"}
    da_corr = [r for r in rows if (r["method"], r["variable"], r["level"]) == ("ms_corr", "DA", "0.8")]
    assert len(da_corr) == 25  # 24 hours plus the pooled row
    assert da_corr[-1]["hour"] == "all"
    picps = [float(r["picp"]) for r in da_corr]
    assert all(0.0 <= p <= 1.0 for p in picps)
    # the 95% tails sit off the percentile grid, so the fan method skips them
    assert not any(r["method"] == "qr" and r["level"] == "0.95" for r in rows)
    assert ("qr", "DA", 0.95) not in res.coverage
    assert ("ms_corr", "DA", 0.95) in res.coverage


def test_crps_and_reliability_tables(runs):
    res = runs.a
    assert res.crps[("ms_corr", "SP")]["per_hour"].shape == (24,)
    assert res.crps[("qr", "DA")]["overall"] > 0.0
    assert ("qr", "SP") not in res.crps  # only configured fan variables
    assert res.reliability[("ms_corr", "ALL")].mode == "multivariate"
    assert res.reliability[("hist", "DA")].mode == "univariate"
    assert not any(k[0] == "qr" for k in res.reliability)
    with open(res.files["reliability"]) as fh:
        rows = list(csv.DictReader(fh))
    deltas = [float(r["delta"]) for r in rows]
    assert all(0.0 <= d <= 2.0 for d in deltas)


def test_strategy_tables(runs):
    res = runs.a
    keys = set(res.strategy)
    assert keys == {("epi", 0.3), ("epi", 1.0), ("var", 0.3), ("var", 1.0),
                    ("sr", 0.3), ("sr", 1.0), ("naive", None), ("limited", None)}
    with open(res.files["strategy"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    naive = next(r for r in rows if r["strategy"] == "naive")
    assert float(naive["trade_frequency"]) == 1.0
    with open(res.files["decisions"]) as fh:
        dec_rows = list(csv.DictReader(fh))
    assert len(dec_rows) == 8 * 3 * 24


def test_run_config_echo_omits_paths(runs):
    with open(runs.a.files["run_config"]) as fh:
        text = fh.read()
    assert "output_dir" not in text and "input_path" not in text
    assert "workers" not in text
    assert "master_seed = 20200101" in text
    assert "n_splits = 4" in text


def test_summary_header(runs):
    with open(runs.a.files["summary"]) as fh:
        first = fh.readline()
    assert first.startswith("evaluation days: 3")


def test_summary_marks_kupiec_without_a_level_on_the_fan_grid(panel_small, tmp_path):
    """The 0.95 interval's 2.5% tails are off the QR fan's percentile grid,
    so no QR level is scored: the kupiec row shows "-", with no warning."""
    cfg = _cfg(tmp_path, evaluation_days=1, methods=("qr",), interval_levels=(0.95,),
               trading=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_backtest(cfg, panel=panel_small)
    with open(result.files["summary"]) as fh:
        kupiec = [cells for cells in map(str.split, fh) if cells[:1] == ["kupiec%"]]
    assert kupiec == [["kupiec%", "-"]]


def test_rerun_is_byte_identical(runs):
    for name, path_a in runs.a.files.items():
        assert filecmp.cmp(path_a, runs.b.files[name], shallow=False), name


def test_parallel_run_matches_serial(runs):
    for name, path_a in runs.a.files.items():
        assert filecmp.cmp(path_a, runs.c.files[name], shallow=False), name


_SPAWN_SCRIPT = textwrap.dedent("""
    import filecmp, multiprocessing, os, sys
    from splitcast import ExperimentConfig, run_backtest
    from splitcast.panel import SyntheticConfig, generate_synthetic_panel

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        out = sys.argv[1]
        panel = generate_synthetic_panel(SyntheticConfig(days=80), seed=3)
        cfg = dict(calibration_window_days=60, evaluation_days=2, n_splits=3,
                   variables=("L", "W"), derived=(), qr_variables=("L",),
                   mv_variables=("L", "W"), trading=False)
        serial = run_backtest(ExperimentConfig(output_dir=os.path.join(out, "serial"), **cfg),
                              panel=panel)
        spawned = run_backtest(ExperimentConfig(output_dir=os.path.join(out, "spawn"),
                                                workers=2, **cfg), panel=panel)
        assert spawned.n_days == 2 and sorted(serial.files) == sorted(spawned.files)
        for name, path in serial.files.items():
            assert filecmp.cmp(path, spawned.files[name], shallow=False), name
        print("identical", len(serial.files))
""")


def test_spawned_workers_match_serial(tmp_path):
    script = tmp_path / "spawn_run.py"
    script.write_text(_SPAWN_SCRIPT)
    out = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("identical")


_HIST_CFG = dict(calibration_window_days=60, evaluation_days=3, n_splits=3,
                 variables=("L", "RES", "W"), derived=(), qr_variables=(),
                 mv_variables=("L", "W"), methods=("point", "hist", "ms"), trading=False)

_HIST_SCRIPT = textwrap.dedent("""
    import multiprocessing, sys
    import numpy as np
    from splitcast import ExperimentConfig, MarketData, forecast_day
    from splitcast.backtest import _run_days
    from splitcast.panel import SyntheticConfig, generate_synthetic_panel


    def hist_members(data, cfg, day_idx):
        by_hour = forecast_day(data, cfg, day_idx)["ensembles"]["hist"]
        return np.stack([by_hour[h].members for h in range(1, 25)])


    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        panel = generate_synthetic_panel(SyntheticConfig(days=80), seed=3)
        cfg = ExperimentConfig(**%r)
        days = [77, 78, 79]
        serial = list(_run_days(MarketData.from_panel(panel), cfg, days, hist_members))
        fresh = [hist_members(MarketData.from_panel(panel), cfg, d) for d in days]
        spawned = list(_run_days(MarketData.from_panel(panel), ExperimentConfig(
            **dict(%r, workers=2)), days, hist_members))
        for a, b, c in zip(serial, fresh, spawned):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        print("identical", len(serial))
""" % (_HIST_CFG, _HIST_CFG))


def test_hist_members_do_not_depend_on_the_carried_windows(tmp_path):
    """A serial run keeps each day's window fits for the next day; a fresh
    MarketData per day and a spawn-started pool of 2 fit them anew.  The hist
    members are the same bits, and the serial run ends with one day's
    windows per (variable, hour)."""
    script = tmp_path / "hist_run.py"
    script.write_text(_HIST_SCRIPT)
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("identical 3")
    panel = generate_synthetic_panel(SyntheticConfig(days=80), seed=3)
    cfg = ExperimentConfig(**_HIST_CFG)
    data = MarketData.from_panel(panel)
    for day in (77, 78, 79):
        forecast_day(data, cfg, day)
    assert sorted(data.hist_windows) == sorted((v, h) for v in cfg.variables for h in range(1, 25))
    for (v, h), kept in data.hist_windows.items():
        assert (kept.first_day, kept.inner) == (79 - 60, 30)
        assert kept.coef.shape == (60 - 30 + 1, row_length(v, h))
        assert kept.fallback.shape == (60 - 30 + 1,) and not kept.fallback.any()


def test_evaluation_day_indices(panel_small):
    cfg = _cfg("unused")
    assert evaluation_day_indices(panel_small, cfg) == [137, 138, 139]
    pinned = replace(cfg, evaluation_start=panel_small.dates[130], evaluation_days=5)
    assert evaluation_day_indices(panel_small, pinned) == list(range(130, 135))
    with pytest.raises(ConfigError):
        evaluation_day_indices(panel_small, replace(cfg, evaluation_start=panel_small.dates[130], evaluation_days=11))
    with pytest.raises(ConfigError):
        evaluation_day_indices(panel_small, replace(cfg, evaluation_start=panel_small.dates[100]))


def test_trading_needs_matching_method(panel_small, tmp_path):
    cfg = _cfg(tmp_path, methods=("ms",), ms_modes=("uncorr",), qr_variables=())
    with pytest.raises(ConfigError):
        run_backtest(cfg, panel=panel_small)
    cfg = _cfg(tmp_path, trading_method="hist", methods=("ms",), ms_modes=("corr",), qr_variables=())
    with pytest.raises(ConfigError):
        run_backtest(cfg, panel=panel_small)


def test_derived_need_their_parents(panel_small, tmp_path):
    cfg = _cfg(tmp_path, variables=("DA", "ID", "W"), derived=("RL",), mv_variables=("DA",))
    with pytest.raises(ConfigError):
        run_backtest(cfg, panel=panel_small)


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _leaves(item)
    else:
        yield node


def test_only_forecast_day_returns_ensembles(panel_small, tmp_path):
    """The backtest's day records are the scores of forecast_day's output: its
    fans and members stay in the process that built them."""
    cfg = _cfg(tmp_path)
    data = MarketData.from_panel(panel_small)
    day = forecast_day(data, cfg, 130)
    assert set(day) == {"point", "fans", "intervals", "decisions", "ensembles"}
    assert set(day["ensembles"]) == {"hist", "ms_corr", "ms_uncorr"}
    assert sorted(day["ensembles"]["hist"]) == list(range(1, 25))
    [record] = _run_days(data, cfg, [130], _scored_day)
    for leaf in _leaves(record):
        assert not isinstance(leaf, ForecastEnsemble)
        assert np.shape(leaf) != (24, 99)
    assert set(record["crps"]) == set(day["fans"])
    for (method, v), fan in day["fans"].items():
        np.testing.assert_array_equal(record["crps"][(method, v)],
                                      crps_fan_matrix(fan, data.hourly[v][130]))
    assert set(record["hits"]) == set(day["intervals"])
    for (method, v, level), (lower, upper) in day["intervals"].items():
        np.testing.assert_array_equal(record["hits"][(method, v, level)],
                                      interval_hits(lower, upper, data.hourly[v][130]))
    # the limited benchmark settles on the realized price, so it joins last
    assert list(record["decisions"]) == [*day["decisions"], ("limited", None)]


def test_corrupt_after_cutoff_scope(panel_small):
    """Each series a panel file carries is garbage from its cut on: the TSO
    forecasts from the day after the target (they are published before the
    forecast is made), everything else from the target day."""
    day_idx = 120
    wrecked = corrupt_after_cutoff(panel_small, day_idx)
    columns = [(wrecked.hourly, panel_small.hourly, name, day_idx + (name in FORECASTS))
               for name in READ_SERIES]
    columns += [(wrecked.daily, panel_small.daily, name, day_idx) for name in DAILY_SERIES]
    for after, before, name, cut in columns:
        assert np.all(after[name][cut:] == 9.9e9), name
        np.testing.assert_array_equal(after[name][:cut], before[name][:cut], err_msg=name)
    assert set(FORECASTS) == {"FL", "FW", "FS"}
    assert np.array_equal(wrecked.hourly["RES"], wrecked.hourly["W"] + wrecked.hourly["S"])
    assert wrecked.dates == panel_small.dates


def test_leakage_check_is_all_zero(panel_small, tmp_path):
    cfg = _cfg(tmp_path / "leak")
    diffs = leakage_check(panel_small, cfg, panel_small.dates[133])
    assert diffs  # the audit covered something
    kinds = {key[0] for key in diffs}
    assert kinds == {"point", "fans", "intervals", "decisions"}
    assert ("fans", ("qr", "DA")) in diffs
    offenders = {k: v for k, v in diffs.items() if v != 0.0}
    assert offenders == {}


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(108, 139), st.sets(st.sampled_from(("point", "qr", "hist", "ms")), min_size=1),
       st.sampled_from((("corr",), ("uncorr",), ("corr", "uncorr"))))
def test_leakage_check_is_all_zero_across_days_and_methods(panel_small, tmp_path, day, methods,
                                                           ms_modes):
    trading = "ms" in methods and "corr" in ms_modes
    cfg = _cfg(tmp_path, methods=tuple(sorted(methods)), ms_modes=ms_modes, trading=trading)
    diffs = leakage_check(panel_small, cfg, panel_small.dates[day])
    expected = {"point"} if "point" in methods or trading else set()
    if methods - {"point"}:
        expected |= {"fans", "intervals"}
    if trading:
        expected.add("decisions")
    assert {key[0] for key in diffs} == expected
    assert {k: v for k, v in diffs.items() if v != 0.0} == {}


@st.composite
def _planned_configs(draw):
    """Validated configurations: methods in any order, trading when a method serves it."""
    methods = tuple(draw(st.permutations(("point", "qr", "hist", "ms"))))[:draw(st.integers(1, 4))]
    ms_modes = draw(st.sampled_from((("corr",), ("uncorr",), ("corr", "uncorr"),
                                     ("uncorr", "corr"))))
    traders = [m for m, ok in (("ms", "ms" in methods and "corr" in ms_modes),
                               ("hist", "hist" in methods)) if ok]
    trading = bool(traders) and draw(st.booleans())

    def subset(values, max_size=None):
        return tuple(draw(st.lists(st.sampled_from(values), unique=True, max_size=max_size)))

    return _cfg("unused", methods=methods, ms_modes=ms_modes, derived=subset(("SP", "RL")),
                qr_variables=subset(("L", "W", "RL"), 2), mv_variables=subset(("DA", "ID", "L"), 2),
                interval_levels=subset((0.8, 0.9, 0.95, 0.98), 3), n_splits=2, trading=trading,
                trading_method=draw(st.sampled_from(traders)) if trading else "ms").validate()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_planned_configs())
def test_the_day_engine_produces_the_plans_keys_in_its_order(data_small, cfg):
    plan = run_plan(cfg)
    day = forecast_day(data_small, cfg, 130)
    record = score_day(data_small, cfg, 130, day)
    assert list(day["point"]) == list(plan.point)
    assert list(day["fans"]) == list(record["crps"]) == list(plan.fans)
    assert list(day["intervals"]) == list(record["hits"]) == list(plan.intervals)
    assert list(day["ensembles"]) == list(plan.ensemble_methods)
    assert list(record["ranks"]) == list(plan.ranks)
    assert list(day["decisions"]) == list(plan.decisions[:-1])
    assert list(record["decisions"]) == list(plan.decisions)
    # QR serves every level but 0.95, whose tails are off the 1% grid
    served = {(v, level) for v in cfg.qr_variables for level in cfg.interval_levels
              if level != 0.95}
    assert {(v, level) for m, v, level in plan.intervals if m == "qr"} == (
        served if "qr" in cfg.methods else set())
