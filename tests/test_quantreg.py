"""Interior point quantile regression against independent LP solutions.

The oracle is the primal linear program solved by scipy's HiGHS backend:
minimize tau 1'u + (1 - tau) 1'v subject to X beta + u - v = y.  Our
solver must reach the same pinball objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from splitcast.errors import (
    DegenerateDesignError,
    ShapeMismatchError,
    SolverFailureError,
)
from splitcast.quantreg import (
    TAU_GRID,
    QuantileFan,
    pinball,
    qr_fan,
    qr_fit,
    qr_fit_fan,
    tail_column,
)


def _objective(X, y, beta, tau):
    return float(pinball(y, X @ beta, tau).sum())


def _linprog_objective(X, y, tau):
    n, p = X.shape
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    A_eq = np.hstack([X, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _fixture(rng, n=80, p=4, heavy=False):
    X = rng.standard_normal((n, p))
    X[:, 0] = 1.0
    beta0 = rng.standard_normal(p) * 3.0
    noise = rng.standard_t(2, n) if heavy else rng.standard_normal(n)
    return X, X @ beta0 + noise


@pytest.mark.parametrize("tau", [0.01, 0.05, 0.5, 0.8, 0.95, 0.99])
def test_matches_linprog_objective(tau):
    rng = np.random.default_rng(42)
    for trial in range(3):
        X, y = _fixture(rng, heavy=trial == 2)
        beta = qr_fit(X, y, tau)
        ours = _objective(X, y, beta, tau)
        oracle = _linprog_objective(X, y, tau)
        assert ours <= oracle * (1.0 + 1e-6) + 1e-9


def test_intercept_only_matches_order_statistic_search():
    # with a constant design some order statistic is always optimal
    rng = np.random.default_rng(7)
    y = rng.standard_normal(41) * 5.0
    X = np.ones((41, 1))
    for tau in (0.1, 0.5, 0.9):
        beta = qr_fit(X, y, tau)
        ours = _objective(X, y, beta, tau)
        oracle = min(_objective(X, y, np.array([v]), tau) for v in y)
        assert ours <= oracle + 1e-8 * (1.0 + oracle)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]))
def test_local_perturbations_never_improve(seed, tau):
    rng = np.random.default_rng(seed)
    X, y = _fixture(rng, n=50, p=3)
    beta = qr_fit(X, y, tau)
    base = _objective(X, y, beta, tau)
    for _ in range(10):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        for eps in (1e-3, 1e-2):
            assert base <= _objective(X, y, beta + eps * d, tau) + 1e-7 * (1.0 + base)


def test_pinball_known_values():
    assert pinball(1.0, 0.0, 0.3) == pytest.approx(0.3)
    assert pinball(0.0, 1.0, 0.3) == pytest.approx(0.7)
    assert pinball(2.0, 2.0, 0.9) == 0.0
    np.testing.assert_allclose(pinball(np.array([1.0, -1.0]), 0.0, 0.25),
                               [0.25, 0.75])
    with pytest.raises(ValueError):
        pinball(1.0, 0.0, 1.0)


def test_tau_grid():
    assert TAU_GRID.shape == (99,)
    assert TAU_GRID[0] == 0.01 and TAU_GRID[-1] == 0.99
    np.testing.assert_allclose(np.diff(TAU_GRID), 0.01)


def test_tau_validation():
    X = np.ones((10, 1))
    y = np.arange(10.0)
    with pytest.raises(ValueError):
        qr_fit(X, y, 0.0)
    with pytest.raises(ValueError):
        qr_fit(X, y, 1.0)


def test_collinear_design_raises():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    X[:, 2] = X[:, 1]  # exactly collinear
    y = rng.standard_normal(40)
    with pytest.raises((DegenerateDesignError, SolverFailureError)):
        qr_fit(X, y, 0.5)


def test_fit_fan_shapes_and_fan_sorting():
    rng = np.random.default_rng(11)
    X, y = _fixture(rng, n=60, p=3)
    thetas = qr_fit_fan(X, y)
    assert thetas.shape == (99, 3)
    row = np.array([1.0, 0.2, -0.4])
    fan = qr_fan(thetas, row)
    assert isinstance(fan, QuantileFan)
    assert np.all(np.diff(fan.values) >= 0.0)
    # sorting is exactly a permutation of the raw evaluations
    np.testing.assert_array_equal(np.sort(thetas @ row), fan.values)


def test_fan_evaluation_errors():
    thetas = np.zeros((99, 3))
    with pytest.raises(ValueError):
        qr_fan(thetas[:5], np.zeros(3))
    with pytest.raises(ShapeMismatchError):
        qr_fan(thetas, np.zeros(4))


def test_tail_column_grid_levels():
    fan = np.arange(99.0)
    i = tail_column(0.8)
    assert (fan[i], fan[98 - i]) == (9.0, 89.0)  # p10 and p90
    assert tail_column(0.9) == 4
    assert tail_column(0.98) == 0
    assert tail_column(0.95) is None  # tails 2.5% are off the 1% grid
    assert tail_column(1.0) is None
    assert tail_column(0.0) is None


def test_extreme_tau_stability():
    """Near degenerate taus on a skewed sample stay finite and ordered."""
    rng = np.random.default_rng(17)
    X, y = _fixture(rng, n=120, p=5, heavy=True)
    lo = qr_fit(X, y, 0.01)
    hi = qr_fit(X, y, 0.99)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    assert np.mean(X @ lo) < np.mean(X @ hi)


def test_fan_matches_linprog_on_every_tau():
    rng = np.random.default_rng(23)
    X, y = _fixture(rng, n=60, p=3, heavy=True)
    thetas = qr_fit_fan(X, y)
    for tau, beta in zip(TAU_GRID, thetas):
        oracle = _linprog_objective(X, y, tau)
        assert _objective(X, y, beta, tau) <= oracle * (1.0 + 1e-6) + 1e-9, tau


def test_single_tau_fit_is_a_row_of_the_fan():
    rng = np.random.default_rng(29)
    X, y = _fixture(rng, n=90, p=4)
    thetas = qr_fit_fan(X, y)
    for k in (0, 17, 49, 80, 98):
        tau = TAU_GRID[k]
        ours = _objective(X, y, qr_fit(X, y, tau), tau)
        fan = _objective(X, y, thetas[k], tau)
        assert abs(ours - fan) <= 1e-10 * fan, tau


def test_reversed_taus_reverse_the_fan():
    rng = np.random.default_rng(31)
    X, y = _fixture(rng, n=70, p=3, heavy=True)
    forward = qr_fit_fan(X, y)
    backward = qr_fit_fan(X, y, TAU_GRID[::-1])
    np.testing.assert_allclose(backward[::-1], forward, rtol=1e-9, atol=1e-9)


def test_iteration_cap_names_the_open_taus():
    rng = np.random.default_rng(37)
    X, y = _fixture(rng, n=60, p=3)
    with pytest.raises(SolverFailureError) as info:
        qr_fit_fan(X, y, [0.05, 0.5, 0.95], max_iter=2)
    assert "after 2 iterations" in str(info.value)
    assert "0.05, 0.5, 0.95" in str(info.value)


def test_collinear_design_raises_from_the_fan():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    X[:, 2] = 2.0 * X[:, 1] - X[:, 0]
    y = rng.standard_normal(40)
    with pytest.raises(DegenerateDesignError):
        qr_fit_fan(X, y)
