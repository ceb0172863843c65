"""The numpy kernels against plain reference forms written here."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcast import _kernels
from splitcast.scores import TAU_GRID


def _points_with_ties(rng, m=200, k=3):
    # one decimal place forces plenty of exact componentwise ties, and every
    # tenth row repeats an earlier one exactly
    pts = np.round(rng.normal(0.0, 1.0, (m, k)), 1)
    pts[::10] = pts[rng.integers(0, m, size=pts[::10].shape[0])]
    return pts


def _preranks_broadcast(points):
    """Domination counts from the 3-D ``(M, chunk, K)`` comparison."""
    m1, k = points.shape
    counts = np.empty(m1, dtype=np.int64)
    chunk = max(1, 4_000_000 // (m1 * k))
    for start in range(0, m1, chunk):
        blk = points[start:start + chunk]
        le = (points[:, None, :] <= blk[None, :, :]).all(axis=2)
        counts[start:start + blk.shape[0]] = le.sum(axis=0)
    return counts


def test_preranks_small_brute_force_oracle(rng):
    pts = _points_with_ties(rng, m=30, k=2)
    counts = _kernels.preranks(pts)
    for j in range(30):
        want = sum(bool(np.all(pts[i] <= pts[j])) for i in range(30))
        assert counts[j] == want
    assert counts.min() >= 1  # every row dominates itself


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m1", [1, 2, 129, 2101])
def test_preranks_matches_broadcast_oracle(rng, k, m1):
    pts = _points_with_ties(rng, m=m1, k=k)
    counts = _kernels.preranks(pts)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _preranks_broadcast(pts))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]),
       st.integers(1, 5), st.integers(1, 6), st.floats(0.0, 0.5))
def test_preranks_across_word_boundaries(seed, m1, k, levels, special):
    # point counts on both sides of the 64 bit words, with few distinct
    # values per column (ties), repeated rows, signed zeros and infinities
    rng = np.random.default_rng(seed)
    pts = rng.integers(-levels, levels + 1, (m1, k)).astype(np.float64)
    odd = rng.random((m1, k)) < special
    pts[odd] = rng.choice([-0.0, 0.0, np.inf, -np.inf], size=int(odd.sum()))
    pts[1::3] = pts[rng.integers(0, m1, size=pts[1::3].shape[0])]
    counts = _kernels.preranks(pts)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _preranks_broadcast(pts))


def test_preranks_signed_zeros_and_infinities(rng):
    pts = np.zeros((7, 3))
    pts[::2, 1] = -0.0  # -0.0 == 0.0, so all seven rows tie
    assert np.array_equal(_kernels.preranks(pts), np.full(7, 7))
    pts = _points_with_ties(rng, m=300, k=3)
    pts[::7, 0] = np.inf
    pts[3::11, 1] = -np.inf
    pts[5::13] = np.inf
    assert np.array_equal(_kernels.preranks(pts), _preranks_broadcast(pts))


def test_crps_fan_batch_and_profit_pools_match_loops(rng):
    fans = np.sort(rng.normal(30.0, 12.0, (50, 99)), axis=1)
    ys = rng.normal(30.0, 15.0, 50)
    got = _kernels.crps_fan_batch(fans, ys, TAU_GRID)
    for i in range(50):
        acc = 0.0
        for j in range(99):
            diff = ys[i] - fans[i, j]
            acc += (TAU_GRID[j] - 1.0) * diff if diff < 0.0 else TAU_GRID[j] * diff
        # numpy's pairwise mean and the running sum differ in rounding only
        assert got[i] == pytest.approx(acc / 99, rel=1e-13, abs=1e-15)

    m = 120
    da = rng.normal(35.0, 20.0, m)
    idp = da + rng.normal(0.0, 9.0, m)
    w = rng.normal(8.0, 6.0, m)  # some members land at w <= 0
    w[::17] = 0.0
    q_grid = np.round(np.arange(101) / 100.0, 2)
    pools = _kernels.profit_pools(da, idp, w, 7.5, q_grid, 10.0)
    assert pools.shape == (101, m)
    for j in range(m):
        for i in range(101):
            if w[j] <= 0.0:
                want = 0.0
            else:
                qw = q_grid[i] * (7.5 / w[j])
                want = (qw * da[j] + (1.0 - qw) * idp[j]) - 10.0
            assert pools[i, j] == want
