"""OLS fitting against a normal equations oracle, batched fits against lstsq."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcast.errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError
from splitcast.backtest import forecast_day
from splitcast.config import ExperimentConfig
from splitcast.ensembles import design_blocks
from splitcast.features import ModelSpec, design_rows, row_length, targets
from splitcast.models import check_design, ols_fit, ols_fits, window_fits


def _well_conditioned(rng, n=60, p=5):
    X = rng.standard_normal((n, p))
    X[:, 0] = 1.0
    return X


def test_matches_normal_equations(rng):
    X = _well_conditioned(rng)
    y = rng.standard_normal(60)
    beta = ols_fit(X, y)
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(beta, oracle, rtol=1e-10, atol=1e-12)


def test_recovers_noiseless_coefficients(rng):
    X = _well_conditioned(rng)
    beta0 = np.array([2.0, -1.0, 0.5, 0.0, 3.0])
    beta = ols_fit(X, X @ beta0)
    np.testing.assert_allclose(beta, beta0, atol=1e-10)


def test_deterministic_refit(rng):
    X = _well_conditioned(rng)
    y = rng.standard_normal(60)
    np.testing.assert_array_equal(ols_fit(X, y), ols_fit(X, y))


def test_check_design_errors(rng):
    X = _well_conditioned(rng, n=8, p=5)
    with pytest.raises(TooFewRowsError):
        check_design(X, np.zeros(8))
    X = _well_conditioned(rng)
    with pytest.raises(ShapeMismatchError):
        check_design(X, np.zeros(59))
    with pytest.raises(ShapeMismatchError):
        check_design(np.zeros(60), np.zeros(60))
    bad = X.copy()
    bad[3, 2] = np.nan
    with pytest.raises(DegenerateDesignError):
        check_design(bad, np.zeros(60))
    dead = X.copy()
    dead[:, 4] = 0.0
    with pytest.raises(DegenerateDesignError, match="column"):
        check_design(dead)
    y = np.zeros(60)
    y[7] = np.inf
    with pytest.raises(DegenerateDesignError):
        check_design(X, y)


def test_singular_design_takes_minimum_norm(rng):
    """A split missing a weekday leaves a dead dummy column: the fit is the
    minimum norm solution, zero on that column, not an error."""
    X = _well_conditioned(rng)
    X[:, 3] = 0.0
    y = rng.standard_normal(60)
    beta = ols_fit(X, y)
    assert abs(beta[3]) <= 1e-12
    keep = [0, 1, 2, 4]
    np.testing.assert_allclose(beta[keep], ols_fit(X[:, keep], y), rtol=1e-10, atol=1e-12)


def _weekday_design(rng, n, extra, repeats):
    """7 weekday dummies (no intercept, as in the price models) and ``extra``
    normal columns; the first ``repeats`` rows reappear at the end."""
    dow = np.arange(n) % 7
    scales = 10.0 ** rng.integers(-2, 3, size=extra)
    X = np.column_stack([(dow == d).astype(np.float64) for d in range(7)]
                        + [rng.standard_normal(n) * s for s in scales])
    X[n - repeats:] = X[:repeats]
    y = X @ rng.standard_normal(X.shape[1]) + rng.standard_normal(n)
    return X, y, X[:, :7].argmax(axis=1)


def _random_rows(rng, dow, count, size, dead_weekday):
    """``count`` sorted row sets of ``size`` rows each, drawn off one weekday if given."""
    pool = np.flatnonzero(dow != dead_weekday) if dead_weekday is not None else np.arange(dow.size)
    return np.sort([rng.choice(pool, size=size, replace=False) for _ in range(count)], axis=1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 90),
       st.sampled_from([None, 0, 3, 6]), st.integers(0, 10), st.integers(2, 4))
def test_ols_fits_match_lstsq_per_row_set(seed, extra, count, dead_weekday, repeats, stack):
    """Every batched fit of a stack of designs that share the row sets equals
    lstsq on its rows; a weekday missing from a fit's rows leaves a dead dummy
    whose coefficient is exactly 0."""
    rng = np.random.default_rng(seed)
    n = 80
    designs = [_weekday_design(rng, n, extra, repeats) for _ in range(stack)]
    X = np.stack([d[0] for d in designs])
    y = np.stack([d[1] for d in designs])
    dow = designs[0][2]  # every design has the same weekday dummies
    size = 2 * X.shape[2] + int(rng.integers(0, 20))
    rows = _random_rows(rng, dow, count, size, dead_weekday)
    coef, refitted = ols_fits(X, y, rows)
    assert coef.shape == (stack, count, X.shape[2])
    assert refitted.shape == (stack, count) and not refitted.any()
    for Xh, yh, ch in zip(X, y, coef):
        for r, c in zip(rows, ch):
            oracle = np.linalg.lstsq(Xh[r], yh[r], rcond=None)[0]
            np.testing.assert_allclose(c, oracle, rtol=1e-9, atol=1e-9 * np.abs(oracle).max())
            dead = ~Xh[r].any(axis=0)
            assert dead_weekday is None or dead[dead_weekday]
            assert np.all(c[dead] == 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 30), st.integers(2, 4),
       st.sampled_from([None, 0, 3, 6]))
def test_a_fit_depends_on_its_rows_alone(seed, extra, count, stack, dead_weekday):
    """A row set's coefficients are the same bits fitted alone, in a batch of
    other row sets, and inside a stack of other designs."""
    rng = np.random.default_rng(seed)
    designs = [_weekday_design(rng, 80, extra, 0) for _ in range(stack)]
    X = np.stack([d[0] for d in designs])
    y = np.stack([d[1] for d in designs])
    rows = _random_rows(rng, designs[0][2], count, 2 * X.shape[2] + 5, dead_weekday)
    coef, _ = ols_fits(X, y, rows)
    for h in (0, stack - 1):
        np.testing.assert_array_equal(ols_fits(X[h:h + 1], y[h:h + 1], rows)[0][0], coef[h])
        for i in (0, count // 2, count - 1):
            alone, _ = ols_fits(X[h:h + 1], y[h:h + 1], rows[i:i + 1])
            np.testing.assert_array_equal(alone[0, 0], coef[h, i])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(1e-12, 1e-5))
def test_near_collinear_fits_take_ols_fit(seed, count, eps):
    """A column that nearly copies another trips the guard: each fit is then
    lstsq on its rows, bit for bit, and flagged as refitted."""
    rng = np.random.default_rng(seed)
    X, y, dow = _weekday_design(rng, 80, 3, 0)
    X[:, 8] = X[:, 7] * (1.0 + eps * rng.standard_normal(80))
    rows = _random_rows(rng, dow, count, 40, None)
    coef, refitted = ols_fits(X[None], y[None], rows)
    assert np.count_nonzero(refitted) == count
    for r, c in zip(rows, coef[0]):
        np.testing.assert_array_equal(c, np.linalg.lstsq(X[r], y[r], rcond=None)[0])


def test_only_the_singular_row_set_is_refitted(rng):
    """Among several row sets, one singular: the fits come back in row set
    order, and only the singular one is refitted by lstsq."""
    X = _well_conditioned(rng)
    y = rng.standard_normal(60)
    rows = np.array([np.arange(4 * j, 4 * j + 30) for j in range(8)])
    X[30:, 4] = X[30:, 3]  # columns 3 and 4 agree on rows 30..59, which the last sets partly cover
    coef, refitted = ols_fits(X[None], y[None], rows)
    assert not refitted.any()
    rows[7] = np.arange(30, 60)  # columns 3 and 4 equal on every row: singular
    coef, refitted = ols_fits(X[None], y[None], rows)
    assert refitted.tolist() == [[False] * 7 + [True]]
    np.testing.assert_array_equal(coef[0, 7],
                                  np.linalg.lstsq(X[rows[7]], y[rows[7]], rcond=None)[0])
    for r, c in zip(rows[:7], coef[0, :7]):
        np.testing.assert_allclose(c, np.linalg.lstsq(X[r], y[r], rcond=None)[0],
                                   rtol=1e-9, atol=1e-12)


def test_design_blocks_validate_the_sample_only(data_small):
    """The builder stacks each hour's design rows and targets, the target day
    last, and validates the sample rows alone."""
    days = np.arange(30, 81)
    [(kind, hours, X, y)] = design_blocks(data_small, ("DA",), days[:-1], days[-1], (12, 3),
                                          days.size - 1)
    assert (kind, hours) == ("DA", [12, 3])
    for j, hour in enumerate(hours):
        spec = ModelSpec("DA", hour)
        np.testing.assert_array_equal(X[j], design_rows(spec, data_small, days)[0])
        np.testing.assert_array_equal(y[j], targets(spec, data_small, days))
    with pytest.raises(TooFewRowsError, match="41 rows for 21 regressors"):
        list(design_blocks(data_small, ("DA",), days[:41], days[41], (12,), 41))
    # 42 sample days pass: the target row does not count
    list(design_blocks(data_small, ("DA",), days[:42], days[42], (12,), 42))


def test_point_forecast_inner_product(data_small):
    """The engine's point forecast is the target row times the fit of its
    stack of hours that share a row length, and that fit is lstsq's up to
    rounding."""
    cfg = ExperimentConfig(calibration_window_days=50, methods=("point",), trading=False)
    day = 100
    point = forecast_day(data_small, cfg, day)["point"]
    assert set(point) == {"L", "W", "RES", "RL", "DA", "ID", "SP"}
    days = np.arange(day - 50, day + 1)
    for kind, hour in (("L", 9), ("W", 1), ("SP", 24)):
        hours = [h for h in range(1, 25) if row_length(kind, h) == row_length(kind, hour)]
        X = np.stack([design_rows(ModelSpec(kind, h), data_small, days)[0] for h in hours])
        y = np.stack([targets(ModelSpec(kind, h), data_small, days) for h in hours])
        j = hours.index(hour)
        assert point[kind][hour - 1] == X[j, -1] @ ols_fit(X[:, :-1], y[:, :-1])[j]
        beta = np.linalg.lstsq(X[j, :-1], y[j, :-1], rcond=None)[0]
        np.testing.assert_allclose(point[kind][hour - 1], X[j, -1] @ beta, rtol=1e-9)


def test_ols_fit_of_a_stack_is_its_window_fit(rng):
    """ols_fit of a stack is window_fits over all its rows, and a design's
    fit inside a stack is its fit alone, bit for bit."""
    X = rng.standard_normal((3, 60, 5))
    X[:, :, 0] = 1.0
    y = rng.standard_normal((3, 60))
    coef = ols_fit(X, y)
    np.testing.assert_array_equal(coef, window_fits(X, y, 60)[0][:, 0])
    for h in range(3):
        np.testing.assert_array_equal(coef[h], ols_fit(X[h], y[h]))


def test_a_singular_design_in_a_stack_takes_lstsq(rng):
    """A design with two equal columns, among full rank ones, gets lstsq's
    minimum norm bits; the others stay batched."""
    X = rng.standard_normal((3, 60, 5))
    X[:, :, 0] = 1.0
    X[1, :, 4] = X[1, :, 3]
    y = rng.standard_normal((3, 60))
    coef = ols_fit(X, y)
    np.testing.assert_array_equal(coef[1], np.linalg.lstsq(X[1], y[1], rcond=None)[0])
    assert window_fits(X, y, 60)[1][:, 0].tolist() == [False, True, False]
    np.testing.assert_allclose(coef[[0, 2]], [np.linalg.lstsq(X[h], y[h], rcond=None)[0]
                                              for h in (0, 2)], rtol=1e-9, atol=1e-12)


def test_fit_on_market_design(data_small):
    """Expert designs are full rank on synthetic data and fit closely."""
    spec = ModelSpec("DA", 12)
    ts = np.arange(30, 130)
    X, _ = design_rows(spec, data_small, ts)
    y = targets(spec, data_small, ts)
    beta = ols_fit(X, y)
    assert np.all(np.isfinite(beta))
    resid = y - X @ beta
    assert resid.std() < y.std()  # the model explains something
