"""Split bookkeeping, ensemble construction, quantile interpolation."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitcast.ensembles
from splitcast.ensembles import (
    ForecastEnsemble,
    derived_ensemble,
    historical_ensembles_for_day,
    interpolated_quantile,
    interpolated_quantiles,
    ms_ensembles_for_day,
    random_split,
)
from splitcast.errors import EmptyEnsembleError, TooFewRowsError
from splitcast.features import KINDS, MarketData, ModelSpec, design_rows, row_length, targets
from splitcast.models import window_fits
from splitcast.quantreg import TAU_GRID


def _lstsq(X, y):
    """The replays' oracle: one lstsq fit, apart from the batched engine."""
    return np.linalg.lstsq(X, y, rcond=None)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 400), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2**32 - 1))
def test_random_split_partitions(n, ratio, seed):
    days = np.arange(100, 100 + n)
    plan = random_split(days, ratio, np.random.default_rng(seed))
    assert plan.estimation_days.size == round(ratio * n)
    assert plan.calibration_days.size == n - round(ratio * n)
    assert np.all(np.diff(plan.estimation_days) > 0)
    assert np.all(np.diff(plan.calibration_days) > 0)
    merged = np.concatenate([plan.estimation_days, plan.calibration_days])
    np.testing.assert_array_equal(np.sort(merged), days)


def test_split_sizes_use_bankers_rounding():
    # round(0.5 * 365) == 182, so the calibration part keeps 183 days
    days = np.arange(365)
    plan = random_split(days, 0.5, np.random.default_rng(0))
    assert plan.estimation_days.size == 182
    assert plan.calibration_days.size == 183


def test_random_split_degenerate_ratio():
    with pytest.raises(ValueError):
        random_split(np.arange(10), 0.01, np.random.default_rng(0))


def test_ms_pool_size_and_meta(data_small):
    sample = np.arange(20, 120)  # 100 days -> 50 calibration errors per split
    out = ms_ensembles_for_day(data_small, ("DA", "ID", "W"), sample, 120,
                               hours=(1, 12), n_splits=3, ratio=0.5,
                               rng=np.random.default_rng(4))
    assert set(out) == {1, 12}
    ens = out[12]
    assert ens.variables == ("DA", "ID", "W")
    assert ens.members.shape == (3 * 50, 3)
    assert ens.meta["calibration_size"] == 50
    assert ens.target_date == data_small.panel.dates[120]
    assert ens.hour == 12


def test_ms_deterministic(data_small):
    sample = np.arange(20, 120)
    a = ms_ensembles_for_day(data_small, ("DA",), sample, 120, [6], 4, 0.5,
                             np.random.default_rng(9))[6]
    b = ms_ensembles_for_day(data_small, ("DA",), sample, 120, [6], 4, 0.5,
                             np.random.default_rng(9))[6]
    np.testing.assert_array_equal(a.members, b.members)


def test_ms_members_recenter_on_target_point(data_small):
    """Each split chunk is the target point forecast plus calibration errors."""
    sample = np.arange(20, 120)
    rng = np.random.default_rng(21)
    ens = ms_ensembles_for_day(data_small, ("DA",), sample, 120, [12], 3, 0.5, rng)[12]
    # replay the splits, in order, with the same stream
    stream = np.random.default_rng(21)
    spec = ModelSpec("DA", 12)
    X, _ = design_rows(spec, data_small, np.append(sample, 120))
    y = targets(spec, data_small, np.append(sample, 120))
    chunks = []
    for _ in range(3):
        plan = random_split(sample, 0.5, stream)
        fit_pos = np.searchsorted(sample, plan.estimation_days)
        cal_pos = np.searchsorted(sample, plan.calibration_days)
        beta = _lstsq(X[fit_pos], y[fit_pos])
        chunks.append(X[-1] @ beta + (y[cal_pos] - X[cal_pos] @ beta))
    expected = np.concatenate(chunks)
    # batched normal equations against the lstsq replay
    np.testing.assert_allclose(ens.members[:, 0], expected, rtol=1e-9)
    assert ens.meta["ols_fallbacks"] == 0


def test_corr_mode_shares_plans_across_variables(data_small):
    """corr: one plan stream for all variables; uncorr: one per variable."""
    sample = np.arange(20, 120)
    joint = ms_ensembles_for_day(data_small, ("DA", "ID"), sample, 120, (12,),
                                 3, 0.5, np.random.default_rng(33))[12]
    alone = ms_ensembles_for_day(data_small, ("DA",), sample, 120, (12,),
                                 3, 0.5, np.random.default_rng(33))[12]
    np.testing.assert_array_equal(joint.column("DA"), alone.column("DA"))

    streams = [np.random.default_rng(33), np.random.default_rng(77)]
    un = ms_ensembles_for_day(data_small, ("DA", "ID"), sample, 120, (12,),
                              3, 0.5, streams, mode="uncorr")[12]
    # first variable consumed the same stream, so members agree with corr
    np.testing.assert_array_equal(un.column("DA"), joint.column("DA"))
    # the second variable used its own plans and must differ
    assert not np.array_equal(un.column("ID"), joint.column("ID"))


def test_uncorr_needs_one_stream_per_variable(data_small):
    sample = np.arange(20, 60)
    with pytest.raises(ValueError):
        ms_ensembles_for_day(data_small, ("DA", "ID"), sample, 60, (12,), 2, 0.5,
                             [np.random.default_rng(1)], mode="uncorr")
    with pytest.raises(ValueError):
        ms_ensembles_for_day(data_small, ("DA",), sample, 60, (12,), 2, 0.5,
                             np.random.default_rng(1), mode="sideways")
    with pytest.raises(EmptyEnsembleError):
        ms_ensembles_for_day(data_small, (), sample, 60, (12,), 2, 0.5,
                             np.random.default_rng(1))


def _both_builders(data, sample, target_day):
    """The ms and the hist builder on ``sample``, each as a call of no arguments."""
    yield lambda: ms_ensembles_for_day(data, ("DA", "W"), sample, target_day, (1, 12), 3, 0.5,
                                       np.random.default_rng(1))
    yield lambda: historical_ensembles_for_day(data, ("DA", "W"), sample, target_day, (1, 12))


def test_a_repeated_sample_day_is_rejected(data_small, no_fits):
    sample = np.sort(np.append(np.arange(20, 120), 54))
    for build in _both_builders(data_small, sample, 120):
        with pytest.raises(ValueError, match="sample day 54 appears more than once"):
            build()
    assert no_fits == []


def test_a_sample_day_at_or_after_the_target_is_rejected(data_small, no_fits):
    for build in _both_builders(data_small, np.arange(20, 120), 100):
        with pytest.raises(ValueError, match="sample day 100 is not before the target day 100"):
            build()
    assert no_fits == []


def test_corr_preserves_cross_correlation(data_small):
    """Joint splits keep the DA/ID error dependence, per variable splits lose it."""
    sample = np.arange(12, 132)  # 120 days -> 60 errors per split
    rng = np.random.default_rng(8)
    corr = ms_ensembles_for_day(data_small, ("DA", "ID"), sample, 132, (12,),
                                20, 0.5, rng)[12]
    streams = [np.random.default_rng(s) for s in (101, 202)]
    un = ms_ensembles_for_day(data_small, ("DA", "ID"), sample, 132, (12,),
                              20, 0.5, streams, mode="uncorr")[12]
    rho_corr = np.corrcoef(corr.column("DA"), corr.column("ID"))[0, 1]
    rho_un = np.corrcoef(un.column("DA"), un.column("ID"))[0, 1]
    assert rho_corr > 0.6
    assert abs(rho_un) < 0.25


def test_historical_member_count_and_windows(data_small):
    train = np.arange(20, 110)  # 90 days, inner window defaults to 45
    ens = historical_ensembles_for_day(data_small, ("DA", "ID"), train, 110, [12])[12]
    assert ens.members.shape == (45, 2)
    ens = historical_ensembles_for_day(data_small, ("W",), train, 110, [12], inner_window=25)[12]
    assert ens.members.shape == (65, 1)
    with pytest.raises(ValueError):
        historical_ensembles_for_day(data_small, ("W",), train, 110, [12], inner_window=90)


def test_historical_point_centering(data_small):
    """Members are the last window's point forecast plus walked errors."""
    train = np.arange(30, 60)
    ens = historical_ensembles_for_day(data_small, ("W",), train, 60, [5], inner_window=15)[5]
    spec = ModelSpec("W", 5)
    days = np.append(train, 60)
    X, _ = design_rows(spec, data_small, days)
    y = targets(spec, data_small, days)
    errors = []
    for pos in range(15, 30):
        beta = _lstsq(X[pos - 15:pos], y[pos - 15:pos])
        errors.append(y[pos] - X[pos] @ beta)
    point = X[-1] @ _lstsq(X[15:30], y[15:30])
    # batched normal equations against the lstsq replay
    np.testing.assert_allclose(ens.members[:, 0], point + np.array(errors), rtol=1e-9)
    assert ens.meta["ols_fallbacks"] == 0


def test_fits_do_not_depend_on_the_other_requests(data_small):
    """One (variable, hour) gets bit identical members alone or among others."""
    train = np.arange(20, 110)
    joint = historical_ensembles_for_day(data_small, ("W", "DA", "L"), train, 110, (1, 12, 24))
    alone = historical_ensembles_for_day(data_small, ("DA",), train, 110, (12,))
    np.testing.assert_array_equal(joint[12].column("DA"), alone[12].column("DA"))
    joint = ms_ensembles_for_day(data_small, ("DA", "W"), train, 110, (3, 12), 4, 0.5,
                                 [np.random.default_rng(5), np.random.default_rng(6)],
                                 mode="uncorr")
    alone = ms_ensembles_for_day(data_small, ("DA",), train, 110, (12,), 4, 0.5,
                                 [np.random.default_rng(5)], mode="uncorr")
    np.testing.assert_array_equal(joint[12].column("DA"), alone[12].column("DA"))


def test_hour_blocks_equal_a_per_hour_replay(panel_small, monkeypatch):
    """With a budget that splits each variable's hours into several blocks,
    hist and ms members at edge and interior hours of W and DA equal a
    replay that fits every (hour, window or split) alone with lstsq."""
    # W: two hours per block at 5 regressors, and at 4 for the edge hours;
    # DA: one hour per block
    monkeypatch.setattr(splitcast.ensembles, "_BLOCK_FLOATS", 6_000)
    stacks = []
    fits, windows = splitcast.ensembles.ols_fits, splitcast.ensembles.window_fits

    def recording_fits(X, y, rows):
        stacks.append(("splits", X.shape[0]))
        return fits(X, y, rows)

    def recording_windows(X, y, inner):
        stacks.append(("windows", X.shape[0]))
        return windows(X, y, inner)

    monkeypatch.setattr(splitcast.ensembles, "ols_fits", recording_fits)
    monkeypatch.setattr(splitcast.ensembles, "window_fits", recording_windows)
    data = MarketData.from_panel(panel_small)  # no window fits kept from other tests
    train = np.arange(20, 110)
    days = np.append(train, 110)
    hours = (1, 2, 12, 23, 24)
    hist = historical_ensembles_for_day(data, ("W", "DA"), train, 110, hours)
    # W at 1 and 24, at 2 and 12, at 23; DA hour by hour
    assert stacks == [("windows", k) for k in [2, 2, 1] + [1] * 5]
    stacks.clear()
    ms = ms_ensembles_for_day(data, ("W", "DA"), train, 110, hours, 4, 0.5,
                              np.random.default_rng(7))
    # 4 split fits of 45 rows an hour: W at 1 and 24, at 2 and 12, at 23; DA hour by hour
    assert stacks == [("splits", k) for k in [2, 2, 1] + [1] * 5]
    stream = np.random.default_rng(7)
    plans = [random_split(train, 0.5, stream) for _ in range(4)]
    for v in ("W", "DA"):
        for hour in hours:
            spec = ModelSpec(v, hour)
            X, _ = design_rows(spec, data, days)
            y = targets(spec, data, days)
            lstsq = lambda rows: np.linalg.lstsq(X[rows], y[rows], rcond=None)[0]  # noqa: E731
            point = X[-1] @ lstsq(slice(45, 90))
            errors = [y[pos] - X[pos] @ lstsq(slice(pos - 45, pos)) for pos in range(45, 90)]
            np.testing.assert_allclose(hist[hour].column(v), point + np.array(errors), rtol=1e-9)
            chunks = []
            for plan in plans:
                beta = lstsq(np.searchsorted(train, plan.estimation_days))
                cal = np.searchsorted(train, plan.calibration_days)
                chunks.append(X[-1] @ beta + (y[cal] - X[cal] @ beta))
            np.testing.assert_allclose(ms[hour].column(v), np.concatenate(chunks), rtol=1e-9)
            assert hist[hour].meta["ols_fallbacks"] == ms[hour].meta["ols_fallbacks"] == 0


def _near_copy_of_neighbour_forecast(panel, hour, rng):
    """The panel with FW at ``hour - 1`` a near copy of FW at ``hour``, so the
    W design of ``hour`` has two nearly collinear columns.  FRES follows FW."""
    fw = panel.hourly["FW"].copy()
    fw[:, hour - 2] = fw[:, hour - 1] * (1.0 + 1e-9 * rng.standard_normal(fw.shape[0]))
    return dataclasses.replace(panel, hourly=dict(panel.hourly, FW=fw, FRES=fw + panel.hourly["FS"]))


def test_near_collinear_design_counts_fallbacks(panel_small):
    """Every fit of a near collinear (variable, hour) goes back to lstsq and
    is counted in its ensemble's meta; the other hours stay batched."""
    data = MarketData.from_panel(
        _near_copy_of_neighbour_forecast(panel_small, 12, np.random.default_rng(3)))
    train = np.arange(20, 110)
    hist = historical_ensembles_for_day(data, ("DA", "W"), train, 110, (6, 12))
    assert hist[12].meta["ols_fallbacks"] == 45 + 1  # every window and the point fit
    assert hist[6].meta["ols_fallbacks"] == 0
    ms = ms_ensembles_for_day(data, ("W",), train, 110, (12,), 5, 0.5, np.random.default_rng(2))
    assert ms[12].meta["ols_fallbacks"] == 5
    # the fallback fits are the replay's lstsq fits; evaluating their large,
    # nearly cancelling coefficients in another order costs digits
    spec = ModelSpec("W", 12)
    days = np.append(train, 110)
    X, _ = design_rows(spec, data, days)
    y = targets(spec, data, days)
    point = X[-1] @ _lstsq(X[45:90], y[45:90])
    errors = [y[pos] - X[pos] @ _lstsq(X[pos - 45:pos], y[pos - 45:pos]) for pos in range(45, 90)]
    np.testing.assert_allclose(hist[12].column("W"), point + np.array(errors), rtol=1e-7)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(1, 24), st.integers(50, 110), st.floats(0.0, 1.0))
def test_a_window_fit_depends_on_its_rows_alone(data_small, kind, hour, n, share):
    """Each window of an n-day sample is fitted to the same bits alone, in a
    block of hours, and in the sample moved on by 1 and by 7 days."""
    p = row_length(kind, hour)
    inner = 2 * p + int(share * (n - 1 - 2 * p))
    days = np.arange(14, 14 + n + 7)
    other = next(h for h in range(1, 25) if h != hour and row_length(kind, h) == p)
    specs = [ModelSpec(kind, h) for h in (other, hour)]  # a block of two hours
    X = np.stack([design_rows(spec, data_small, days)[0] for spec in specs])
    y = np.stack([targets(spec, data_small, days) for spec in specs])
    coef, fallback = window_fits(X[1:, :n], y[1:, :n], inner)
    n_windows = n - inner + 1
    assert coef.shape == (1, n_windows, p) and not fallback.any()
    np.testing.assert_array_equal(window_fits(X[:, :n], y[:, :n], inner)[0][1:], coef)
    for shift in (1, 7):
        moved, _ = window_fits(X[1:, shift:shift + n], y[1:, shift:shift + n], inner)
        shared = max(0, n_windows - shift)
        np.testing.assert_array_equal(moved[:, :shared], coef[:, shift:])
    for j in sorted({0, n_windows // 2, n_windows - 1}):
        alone, _ = window_fits(X[1:, j:j + inner], y[1:, j:j + inner], inner)
        np.testing.assert_array_equal(alone[:, 0], coef[:, j])


def test_window_fits_match_lstsq_and_flag_fallbacks(rng):
    """Every window's fit is lstsq on its rows; a window whose two columns
    agree on all of its rows is refitted by lstsq and flagged."""
    X = rng.standard_normal((2, 60, 4))
    X[:, :, 0] = 1.0
    X[1, 40:, 3] = X[1, 40:, 2]  # design 1: windows from row 40 on are singular
    y = rng.standard_normal((2, 60))
    coef, fallback = window_fits(X, y, 20)
    assert fallback.tolist() == [[False] * 41, [False] * 40 + [True]]
    for h in range(2):
        for j in range(41):
            oracle = np.linalg.lstsq(X[h, j:j + 20], y[h, j:j + 20], rcond=None)[0]
            np.testing.assert_allclose(coef[h, j], oracle, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(coef[1, 40], _lstsq(X[1, 40:], y[1, 40:]))


def test_a_carried_day_equals_a_fresh_one(panel_small, monkeypatch):
    """The window fits of one target day serve the next calls on the same
    data at any shift: only the windows not kept are fitted, and every
    call's members equal those of a fresh ``MarketData``, bit for bit."""
    rows = []
    fits = splitcast.ensembles.window_fits
    monkeypatch.setattr(splitcast.ensembles, "window_fits",
                        lambda X, y, inner: rows.append(X.shape[1]) or fits(X, y, inner))
    data = MarketData.from_panel(panel_small)
    variables, hours = ("DA", "W"), (1, 12)
    # (target day, rows of each block's window_fits call): the first day fits
    # all 46 windows of 45 days, the others only those they do not share
    for day, fitted in ((110, 90), (111, 45), (104, 51), (111, 51), (139, 72)):
        train = np.arange(day - 90, day)
        rows.clear()
        carried = historical_ensembles_for_day(data, variables, train, day, hours)
        assert rows == [fitted] * 3  # DA at 1 and 12, W at 1, W at 12
        fresh = historical_ensembles_for_day(MarketData.from_panel(panel_small), variables,
                                             train, day, hours)
        for hour in hours:
            np.testing.assert_array_equal(carried[hour].members, fresh[hour].members)
        assert sorted(data.hist_windows) == [(v, h) for v in variables for h in hours]
        assert {w.first_day for w in data.hist_windows.values()} == {day - 90}
    # a sample that skips a day is fitted in full and leaves the kept windows alone
    gappy = np.delete(np.arange(40, 131), 50)
    rows.clear()
    historical_ensembles_for_day(data, ("W",), gappy, 131, (12,))
    assert rows == [gappy.size] and data.hist_windows[("W", 12)].first_day == 49


def test_a_carried_day_counts_the_fallbacks_of_its_windows(panel_small):
    """A near collinear (variable, hour) reports the same ``ols_fallbacks``
    on a day whose windows were mostly kept as on a fresh one."""
    panel = _near_copy_of_neighbour_forecast(panel_small, 12, np.random.default_rng(3))
    data = MarketData.from_panel(panel)
    historical_ensembles_for_day(data, ("DA", "W"), np.arange(19, 109), 109, (6, 12))
    carried = historical_ensembles_for_day(data, ("DA", "W"), np.arange(20, 110), 110, (6, 12))
    fresh = historical_ensembles_for_day(MarketData.from_panel(panel), ("DA", "W"),
                                         np.arange(20, 110), 110, (6, 12))
    assert carried[12].meta["ols_fallbacks"] == fresh[12].meta["ols_fallbacks"] == 45 + 1
    assert carried[6].meta["ols_fallbacks"] == fresh[6].meta["ols_fallbacks"] == 0
    for hour in (6, 12):
        np.testing.assert_array_equal(carried[hour].members, fresh[hour].members)


def test_two_modes_in_one_call_equal_two_calls(data_small):
    """Both ms modes from one pass over the designs equal each mode's own
    call bit for bit, in either order."""
    sample = np.arange(20, 120)
    args = (data_small, ("DA", "W"), sample, 120, (1, 12, 24), 4, 0.5)

    def streams():
        return {"corr": np.random.default_rng(3),
                "uncorr": [np.random.default_rng(4), np.random.default_rng(5)]}

    alone = {mode: ms_ensembles_for_day(*args, rng, mode=mode) for mode, rng in streams().items()}
    for modes in (("corr", "uncorr"), ("uncorr", "corr")):
        rngs = streams()
        both = ms_ensembles_for_day(*args, [rngs[m] for m in modes], mode=modes)
        assert tuple(both) == modes
        for mode in modes:
            for hour in (1, 12, 24):
                np.testing.assert_array_equal(both[mode][hour].members, alone[mode][hour].members)
                assert both[mode][hour].meta == alone[mode][hour].meta
    for modes, rngs in ((("corr", "corr"), [streams()["corr"]] * 2),
                        (("corr", "uncorr"), [streams()["corr"]])):
        with pytest.raises(ValueError):
            ms_ensembles_for_day(*args, rngs, mode=modes)


_THREADS_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from splitcast.ensembles import historical_ensembles_for_day, ms_ensembles_for_day
    from splitcast.features import MarketData
    from splitcast.panel import SyntheticConfig, generate_synthetic_panel

    data = MarketData.from_panel(generate_synthetic_panel(SyntheticConfig(days=375), seed=11))
    day = data.n_days - 1
    window = np.arange(day - 365, day)
    hist = historical_ensembles_for_day(data, ("DA", "W"), window, day, range(1, 25))
    ms = ms_ensembles_for_day(data, ("DA", "W"), window, day, range(1, 25), 20, 0.5,
                              np.random.default_rng(1))
    digest = hashlib.sha256()
    for ens in (*hist.values(), *ms.values()):
        digest.update(ens.members.tobytes())
    print(digest.hexdigest())
""")


def test_members_do_not_depend_on_the_blas_thread_count():
    """Each fit's normal equations are products of its own rows alone, 182
    or 183 at a 365-day window: too small for OpenBLAS to split over
    threads, so the members keep their bits."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitcast.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


@pytest.fixture
def no_fits(monkeypatch):
    """The builders' least squares fits, counted instead of run."""
    calls = []
    monkeypatch.setattr(splitcast.ensembles, "ols_fits",
                        lambda X, y, rows: calls.append(X.shape))
    monkeypatch.setattr(splitcast.ensembles, "window_fits",
                        lambda X, y, inner: calls.append(X.shape))
    return calls


def test_ms_row_budget_checked_before_any_fit(data_small, no_fits):
    # 60 sample days: round(0.5 * 60) = 30 estimation rows, DA needs 2 * 21 = 42
    sample = np.arange(20, 80)
    with pytest.raises(TooFewRowsError, match="30 rows for 21 regressors, need at least 42"):
        ms_ensembles_for_day(data_small, ("W", "DA"), sample, 80, (1, 12), 3, 0.5,
                             np.random.default_rng(1))
    # uncorr mode too: 16 days give 8 estimation rows, W needs 10 at hour 12
    with pytest.raises(TooFewRowsError, match="8 rows for 5 regressors"):
        ms_ensembles_for_day(data_small, ("W",), sample[:16], 36, (12,), 3, 0.5,
                             [np.random.default_rng(1)], mode="uncorr")
    assert no_fits == []


def test_hist_row_budget_checked_before_any_fit(data_small, no_fits):
    train = np.arange(20, 110)
    with pytest.raises(TooFewRowsError, match="40 rows for 21 regressors, need at least 42"):
        historical_ensembles_for_day(data_small, ("W", "ID"), train, 110, (12,),
                                     inner_window=40)
    # W at the edge hour has 4 regressors, so 8 rows pass there but not at hour 12
    with pytest.raises(TooFewRowsError, match="8 rows for 5 regressors"):
        historical_ensembles_for_day(data_small, ("W",), train, 110, (1, 12), inner_window=8)
    assert no_fits == []


# --------------------------------------------------------------------------
# quantile interpolation


def _oracle_quantile(values, tau):
    v = np.sort(np.asarray(values, dtype=np.float64))
    pos = (v.size - 1) * tau
    i = int(pos)
    if i >= v.size - 1:
        return float(v[-1])
    return float(v[i] + (pos - i) * (v[i + 1] - v[i]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 300), st.floats(0.0, 1.0))
def test_interpolated_quantile_matches_sort_oracle(seed, n, tau):
    values = np.random.default_rng(seed).standard_normal(n) * 10.0
    assert interpolated_quantile(values, tau) == _oracle_quantile(values, tau)


def test_interpolated_quantile_against_numpy(rng):
    for _ in range(100):
        values = rng.standard_normal(rng.integers(2, 50))
        tau = float(rng.uniform())
        np.testing.assert_allclose(interpolated_quantile(values, tau),
                                   np.quantile(values, tau), rtol=1e-12, atol=1e-12)


def test_vector_quantiles_match_scalar(rng):
    values = rng.standard_normal(37)
    taus = np.linspace(0.0, 1.0, 21)
    vec = interpolated_quantiles(values, taus)
    scal = np.array([interpolated_quantile(values, t) for t in taus])
    np.testing.assert_array_equal(vec, scal)


def test_quantile_validation():
    with pytest.raises(ValueError):
        interpolated_quantile(np.arange(5.0), 1.5)
    with pytest.raises(EmptyEnsembleError):
        interpolated_quantile(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        interpolated_quantiles(np.arange(5.0), np.array([-0.1]))
    with pytest.raises(ValueError):
        interpolated_quantiles(np.arange(5.0), np.array([0.5, np.nan]))


def test_quantiles_at_tau_one_and_along_rows():
    """tau = 1 is the sample maximum exactly, and a 2-D input interpolates
    every row as its own sample with the 1-D arithmetic."""
    # in small samples of mixed sign, v[n-2] + (v[n-1] - v[n-2]) often misses v[n-1]
    draws = np.random.default_rng(11).normal(0.0, 50.0, size=(500, 3))
    tops = [interpolated_quantiles(row, np.array([0.0, 1.0])) for row in draws]
    np.testing.assert_array_equal(tops, np.column_stack([draws.min(axis=1), draws.max(axis=1)]))
    assert [interpolated_quantile(row, 1.0) for row in draws] == list(draws.max(axis=1))
    taus = np.linspace(0.0, 1.0, 21)
    np.testing.assert_array_equal(interpolated_quantiles(draws, taus),
                                  [interpolated_quantiles(row, taus) for row in draws])
    np.testing.assert_array_equal(interpolated_quantiles(draws, 0.05),
                                  [interpolated_quantile(row, 0.05) for row in draws])


# --------------------------------------------------------------------------
# container, transforms, summaries


def _toy_ensemble(rng, m=50):
    members = np.column_stack([
        rng.standard_normal(m) + 30.0,
        rng.standard_normal(m) + 29.0,
        np.abs(rng.standard_normal(m)) + 5.0,
    ])
    import datetime as dt

    return ForecastEnsemble(variables=("DA", "ID", "W"), members=members,
                            target_date=dt.date(2021, 6, 1), hour=13, meta={"method": "toy"})


def test_container_validation(rng):
    with pytest.raises(EmptyEnsembleError):
        ForecastEnsemble(variables=("DA",), members=np.zeros((0, 1)),
                         target_date=None, hour=1, meta={})
    with pytest.raises(EmptyEnsembleError):
        ForecastEnsemble(variables=("DA", "ID"), members=np.zeros((5, 3)),
                         target_date=None, hour=1, meta={})
    ens = _toy_ensemble(rng)
    assert ens.n_members == 50
    np.testing.assert_array_equal(ens.column(1), ens.column("ID"))
    with pytest.raises(KeyError):
        ens.column("SP")


def _map_members(ens, fn, out_variables):
    """Member by member oracle: ``fn`` gets {variable: value} per member."""
    rows = np.empty((ens.n_members, len(out_variables)))
    for j in range(ens.n_members):
        result = fn({v: float(ens.members[j, k]) for k, v in enumerate(ens.variables)})
        rows[j] = result if np.ndim(result) else (result,)
    return rows


def test_map_matches_vectorized_derivation(rng):
    ens = _toy_ensemble(rng)
    mapped = _map_members(ens, lambda m: m["DA"] - m["ID"], ("SP",))
    direct = derived_ensemble(ens, "SP")
    np.testing.assert_array_equal(mapped, direct.members)
    assert direct.variables == ("SP",)
    with pytest.raises(KeyError):
        derived_ensemble(ens, "RL")  # needs L and RES columns
    with pytest.raises(ValueError):
        derived_ensemble(ens, "XX")


@pytest.mark.parametrize("name", ["SP", "RL"])
def test_derived_members_follow_the_panel_rule(data_small, name):
    """An ensemble whose members are realized parent rows derives exactly the
    realized derived series: one rule serves the panel and the ensembles."""
    parents = ("DA", "ID", "L", "RES")
    for hour in (1, 11, 24):
        members = np.stack([data_small.hourly[v][:, hour - 1] for v in parents], axis=1)
        ens = ForecastEnsemble(variables=parents, members=members, target_date=None,
                               hour=hour, meta={})
        np.testing.assert_array_equal(derived_ensemble(ens, name).members[:, 0],
                                      data_small.hourly[name][:, hour - 1])


def test_ensemble_summaries(rng):
    """The summaries the backtest reads off a member column: the 99 percentile
    fan and the interval bounds at any level, all from one interpolation."""
    ens = _toy_ensemble(rng)
    v = ens.column("DA")
    fan = interpolated_quantiles(v, TAU_GRID)
    assert fan.shape == (99,)
    assert np.all(np.diff(fan) >= 0.0)
    np.testing.assert_array_equal(fan, [interpolated_quantile(v, t) for t in TAU_GRID])
    lo, hi = interpolated_quantiles(v, np.array([0.025, 0.975]))  # any level works
    assert (lo, hi) == (interpolated_quantile(v, 0.025), interpolated_quantile(v, 0.975))
    assert lo < hi
    ends = interpolated_quantiles(v, np.array([0.0, 1.0]))
    assert (ends[0], ends[1]) == (v.min(), v.max())
