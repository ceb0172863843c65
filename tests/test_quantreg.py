"""Quantile regression fans against independent LP solutions.

The oracle is the primal linear program solved by scipy's HiGHS backend:
minimize tau 1'u + (1 - tau) 1'v subject to X beta + u - v = y.  Our
solver must reach the same pinball objective.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import splitcast
from splitcast import quantreg
from splitcast.errors import (
    DegenerateDesignError,
    ShapeMismatchError,
    SolverFailureError,
)
from splitcast.quantreg import (
    TAU_GRID,
    QuantileFan,
    _Bases,
    _optimize,
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


def test_pinball_takes_an_array_of_taus():
    got = pinball(np.array([[1.0], [-2.0]]), 0.0, np.array([0.25, 0.5, 0.9]))
    np.testing.assert_allclose(got, [[0.25, 0.5, 0.9], [1.5, 1.0, 0.2]], rtol=1e-15)
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            pinball(1.0, 0.0, np.array([0.5, bad]))
    with pytest.raises(ValueError, match="outside"):
        pinball(1.0, 0.0, float("nan"))


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


def test_iteration_cap_names_the_open_taus(monkeypatch):
    rng = np.random.default_rng(37)
    X, y = _fixture(rng, n=60, p=3)
    monkeypatch.setattr(quantreg, "MAX_ITER", 2)
    with pytest.raises(SolverFailureError) as info:
        qr_fit_fan(X, y, [0.05, 0.5, 0.95])
    assert "after 2 iterations" in str(info.value)
    assert "0.05, 0.5, 0.95" in str(info.value)


@pytest.mark.parametrize("seed", [7, 9, 11, 14])
def test_ill_conditioned_designs_match_linprog(seed):
    """Two columns 1e-6 apart: full rank, but the interior point start meets
    singular weighted Gram matrices on these designs."""
    rng = np.random.default_rng(seed)
    n = 21
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x, x + 1e-6 * rng.standard_normal(n)])
    y = rng.standard_normal(n)
    taus = TAU_GRID[::7]
    for tau, beta in zip(taus, qr_fit_fan(X, y, taus)):
        oracle = _linprog_objective(X, y, tau)
        assert _objective(X, y, beta, tau) - oracle <= 1e-9 * max(oracle, 1.0), tau


def test_collinear_design_raises_from_the_fan():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    X[:, 2] = 2.0 * X[:, 1] - X[:, 0]
    y = rng.standard_normal(40)
    with pytest.raises(DegenerateDesignError):
        qr_fit_fan(X, y)


def _tie_heavy_stack(seed, fans, n, p):
    """Designs with weekday dummies, integer regressors, a near collinear pair
    and repeated rows, and integer targets: many tied residuals and flat faces."""
    rng = np.random.default_rng(seed)
    X = np.empty((fans, n, p))
    y = np.empty((fans, n))
    for f in range(fans):
        while True:
            dow = np.arange(n) % 7
            cols = [(dow == d).astype(float) for d in range(min(p - 1, 3))]
            cols.append(rng.integers(-3, 4, n).astype(float))
            while len(cols) < p:
                cols.append(cols[-1] + 1e-3 * rng.integers(-2, 3, n))
            Xf = np.column_stack(cols)
            rep = rng.integers(0, n, n // 3)
            Xf[:n // 3] = Xf[rep]
            if np.linalg.matrix_rank(Xf) == p:
                break
        X[f] = Xf
        y[f] = rng.integers(-4, 5, n)
        y[f, :n // 3] = y[f, rep]
    return X, y


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**31), st.integers(1, 3), st.integers(14, 40), st.integers(2, 5))
def test_tie_heavy_stacks_match_linprog(seed, fans, n, p):
    X, y = _tie_heavy_stack(seed, fans, max(n, 3 * p), p)
    taus = TAU_GRID[::14]
    thetas = qr_fit_fan(X, y, taus)
    assert thetas.shape == (fans, taus.size, p)
    for Xf, yf, fan in zip(X, y, thetas):
        for tau, beta in zip(taus, fan):
            oracle = _linprog_objective(Xf, yf, tau)
            assert _objective(Xf, yf, beta, tau) <= oracle + 1e-9 * max(oracle, 1.0), tau


def test_a_fan_is_the_same_alone_and_in_a_stack():
    rng = np.random.default_rng(41)
    fixtures = [_fixture(rng, n=90, p=4, heavy=k % 2 == 1) for k in range(5)]
    X = np.stack([Xf for Xf, _ in fixtures])
    y = np.stack([yf for _, yf in fixtures])
    stacked = qr_fit_fan(X, y)
    assert stacked.shape == (5, 99, 4)
    for f in range(5):
        np.testing.assert_array_equal(qr_fit_fan(X[f], y[f]), stacked[f])
    np.testing.assert_array_equal(qr_fit_fan(X[1:3], y[1:3]), stacked[1:3])


def test_start_pivots_reach_the_optimum_from_any_basis():
    # a random start basis is far from optimal: the fix-up pivots run past
    # the switch to Bland's rule
    rng = np.random.default_rng(43)
    X, y = _fixture(rng, n=60, p=4, heavy=True)
    for _ in range(3):
        h = rng.choice(60, size=4, replace=False)
        bases = _Bases(np.ascontiguousarray(X.T[None]), y[None], h[None])
        assert _optimize(bases, 0.3, 1000)
        beta = np.linalg.solve(X[bases.h[0]], y[bases.h[0]])
        oracle = _linprog_objective(X, y, 0.3)
        assert _objective(X, y, beta, 0.3) <= oracle + 1e-9 * oracle


_THREADS_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from splitcast.features import MarketData, ModelSpec, design_rows, targets
    from splitcast.panel import SyntheticConfig, generate_synthetic_panel
    from splitcast.quantreg import qr_fit_fan

    data = MarketData.from_panel(generate_synthetic_panel(SyntheticConfig(days=375), seed=11))
    days = np.arange(data.n_days - 366, data.n_days - 1)
    X = np.stack([design_rows(ModelSpec("DA", h), data, days)[0] for h in range(1, 25)])
    y = np.stack([targets(ModelSpec("DA", h), data, days) for h in range(1, 25)])
    print(hashlib.sha256(qr_fit_fan(X, y).tobytes()).hexdigest())
""")


def test_da_fans_do_not_depend_on_the_blas_thread_count():
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
