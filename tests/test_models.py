"""OLS fitting against a normal equations oracle, batched fits against lstsq."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitcast.models
from splitcast.errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError
from splitcast.backtest import forecast_day
from splitcast.config import ExperimentConfig
from splitcast.features import ModelSpec, design_rows, targets
from splitcast.models import check_design, expert_design, ols_fit, ols_fits


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


def _random_masks(rng, dow, count, size, dead_weekday):
    """``count`` 0/1 rows with ``size`` ones each, drawn off one weekday if given."""
    pool = np.flatnonzero(dow != dead_weekday) if dead_weekday is not None else np.arange(dow.size)
    masks = np.zeros((count, dow.size), dtype=bool)
    for m in masks:
        m[rng.choice(pool, size=size, replace=False)] = True
    return masks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 90),
       st.sampled_from([None, 0, 3, 6]), st.integers(0, 10), st.integers(2, 4))
def test_ols_fits_match_lstsq_per_mask(seed, extra, count, dead_weekday, repeats, stack):
    """Every batched fit of a stack of designs that share the masks equals
    lstsq on its rows; a weekday missing from a fit's rows leaves a dead dummy
    whose coefficient is exactly 0.  A design alone is the stack's entry, bit
    for bit."""
    rng = np.random.default_rng(seed)
    n = 80
    designs = [_weekday_design(rng, n, extra, repeats) for _ in range(stack)]
    X = np.stack([d[0] for d in designs])
    y = np.stack([d[1] for d in designs])
    dow = designs[0][2]  # every design has the same weekday dummies
    size = 2 * X.shape[2] + int(rng.integers(0, 20))
    masks = _random_masks(rng, dow, count, size, dead_weekday)
    coef, fallbacks = ols_fits(X, y, masks)
    assert coef.shape == (stack, count, X.shape[2])
    assert fallbacks.tolist() == [0] * stack
    for Xh, yh, ch in zip(X, y, coef):
        for m, c in zip(masks, ch):
            oracle = np.linalg.lstsq(Xh[m], yh[m], rcond=None)[0]
            np.testing.assert_allclose(c, oracle, rtol=1e-9, atol=1e-9 * np.abs(oracle).max())
            dead = ~Xh[m].any(axis=0)
            assert dead_weekday is None or dead[dead_weekday]
            assert np.all(c[dead] == 0.0)
    alone, alone_fallbacks = ols_fits(X[-1], y[-1], masks)
    np.testing.assert_array_equal(alone, coef[-1])
    assert alone_fallbacks == 0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(1e-12, 1e-5))
def test_near_collinear_fits_take_ols_fit(seed, count, eps):
    """A column that nearly copies another trips the guard: each fit is then
    ols_fit on its rows, bit for bit, and counted as a fallback."""
    rng = np.random.default_rng(seed)
    X, y, dow = _weekday_design(rng, 80, 3, 0)
    X[:, 8] = X[:, 7] * (1.0 + eps * rng.standard_normal(80))
    masks = _random_masks(rng, dow, count, 40, None)
    coef, fallbacks = ols_fits(X, y, masks)
    assert fallbacks == count
    for m, c in zip(masks, coef):
        np.testing.assert_array_equal(c, ols_fit(X[m], y[m]))


def test_ols_fits_blocks_and_mixed_guard(rng, monkeypatch):
    """Fits spread over several blocks, one of them singular, come back in
    mask order; only the singular one is refitted by ols_fit."""
    monkeypatch.setattr(splitcast.models, "_PRODUCT_SIZE", 3 * 60 * 15)  # 3 Gram sums a product
    X = _well_conditioned(rng)
    y = rng.standard_normal(60)
    masks = np.zeros((8, 60), dtype=bool)
    for j, m in enumerate(masks):
        m[4 * j:4 * j + 30] = True
    X[40:, 4] = X[40:, 3]  # columns 3 and 4 agree on rows 40..59, which the last masks partly cover
    coef, fallbacks = ols_fits(X, y, masks)
    assert fallbacks == 0
    masks[7] = False
    masks[7, 40:] = True  # columns 3 and 4 equal on every row: singular
    coef, fallbacks = ols_fits(X, y, masks)
    assert fallbacks == 1
    np.testing.assert_array_equal(coef[7], ols_fit(X[40:], y[40:]))
    for m, c in zip(masks[:7], coef[:7]):
        np.testing.assert_allclose(c, np.linalg.lstsq(X[m], y[m], rcond=None)[0],
                                   rtol=1e-9, atol=1e-12)


def test_expert_design_validates_the_sample_only(data_small):
    spec = ModelSpec("DA", 12)
    days = np.arange(30, 81)
    X, y = expert_design(spec, data_small, days)
    np.testing.assert_array_equal(X, design_rows(spec, data_small, days)[0])
    np.testing.assert_array_equal(y, targets(spec, data_small, days))
    with pytest.raises(TooFewRowsError, match="41 rows for 21 regressors"):
        expert_design(spec, data_small, days[:42])  # 41 sample days and the target
    expert_design(spec, data_small, days[:43])  # the target row does not count


def test_point_forecast_inner_product(data_small):
    """The engine's point forecast is the target row times the window fit."""
    cfg = ExperimentConfig(calibration_window_days=50, methods=("point",), trading=False)
    day = 100
    point = forecast_day(data_small, cfg, day)["point"]
    assert set(point) == {"L", "W", "RES", "RL", "DA", "ID", "SP"}
    days = np.arange(day - 50, day + 1)
    for kind, hour in (("L", 9), ("W", 1), ("SP", 24)):
        spec = ModelSpec(kind, hour)
        X, _ = design_rows(spec, data_small, days)
        y = targets(spec, data_small, days)
        beta = np.linalg.lstsq(X[:-1], y[:-1], rcond=None)[0]
        assert point[kind][hour - 1] == float(X[-1] @ beta)


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
