"""OLS fitting against a normal equations oracle."""

import numpy as np
import pytest

from splitcast.errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError
from splitcast.backtest import _process_day
from splitcast.config import ExperimentConfig
from splitcast.features import ModelSpec, design_rows, targets
from splitcast.models import check_design, expert_design, ols_fit


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
    point = _process_day(data_small, cfg, day)["point"]
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
