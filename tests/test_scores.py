"""Verification metrics against independent oracles.

Kupiec is recomputed with mpmath at 50 digits, CRPS against the closed
form for a Gaussian and against a fine tau grid integration, quantile and
rank logic against brute force reimplementations.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from splitcast.errors import EmptyEnsembleError, MisalignedError
from splitcast.quantreg import TAU_GRID, pinball
from splitcast.scores import (
    KUPIEC_CRITICAL,
    coverage_report,
    crps_fan_matrix,
    crps_from_fan,
    interval_hits,
    kupiec,
    multivariate_rank,
    preranks,
    reliability_index,
    univariate_rank,
)
from splitcast.quantreg import QuantileFan

mpmath.mp.dps = 50


def _kupiec_oracle(x, n, p):
    x, n, p = mpmath.mpf(x), mpmath.mpf(n), mpmath.mpf(p)
    ll_null = (n - x) * mpmath.log(1 - p) + (x * mpmath.log(p) if x > 0 else 0)
    ll_alt = mpmath.mpf(0)
    if x < n:
        ll_alt += (n - x) * mpmath.log(1 - x / n)
    if x > 0:
        ll_alt += x * mpmath.log(x / n)
    return float(max(-2 * ll_null + 2 * ll_alt, 0))


def test_kupiec_matches_mpmath():
    rng = np.random.default_rng(3)
    cases = [(int(rng.integers(0, n + 1)), n, p)
             for n in (30, 365, 730) for p in (0.8, 0.9, 0.95, 0.98)
             for _ in range(4)]
    cases += [(0, 100, 0.9), (100, 100, 0.9), (90, 100, 0.9)]
    for x, n, p in cases:
        assert kupiec(x, n, p).lr == pytest.approx(_kupiec_oracle(x, n, p), abs=1e-9)


def test_kupiec_critical_value():
    # 5% critical value of chi squared with one degree of freedom
    assert KUPIEC_CRITICAL == pytest.approx(stats.chi2.ppf(0.95, df=1), abs=1e-6)
    exact = kupiec(73, 100, 0.8)
    assert not exact.reject  # LR well under the threshold
    assert kupiec(60, 100, 0.8).reject


def test_kupiec_validation():
    with pytest.raises(ValueError):
        kupiec(-1, 10, 0.9)
    with pytest.raises(ValueError):
        kupiec(11, 10, 0.9)
    with pytest.raises(ValueError):
        kupiec(5, 10, 1.0)


def test_interval_hits_closed_intervals():
    lower = np.array([0.0, 0.0, 0.0, 0.0])
    upper = np.array([1.0, 1.0, 1.0, 1.0])
    realized = np.array([0.0, 1.0, 0.5, 1.0000001])
    hits = interval_hits(lower, upper, realized)
    assert hits.tolist() == [True, True, True, False]  # both boundaries count as covered
    assert coverage_report(hits, 0.9).picp == 0.75
    with pytest.raises(MisalignedError):
        interval_hits(lower, upper, realized[:2])


def test_coverage_report_grid():
    rng = np.random.default_rng(12)
    n, hours, nominal = 400, 6, 0.9
    realized = rng.standard_normal((n, hours))
    z = stats.norm.ppf(0.95)
    lower = np.full((n, hours), -z)
    upper = np.full((n, hours), z)
    lower[:, 0] = -0.1  # make the first hour badly undercover
    upper[:, 0] = 0.1
    hits = interval_hits(lower, upper, realized)
    report = coverage_report(hits, nominal)
    assert report.reject_by_hour[0]
    assert not report.reject_by_hour[1:].any()
    assert report.pass_rate == pytest.approx(5 / 6)
    shares = ((realized >= lower) & (realized <= upper)).mean(axis=0)
    np.testing.assert_allclose(report.picp_by_hour, shares)
    assert report.picp == pytest.approx(shares.mean())
    for h in range(hours):
        x = int(np.count_nonzero(hits[:, h]))
        assert report.lr_by_hour[h] == kupiec(x, n, nominal).lr


# --------------------------------------------------------------------------
# CRPS


def _gaussian_fan(mu, sigma):
    return stats.norm.ppf(TAU_GRID, loc=mu, scale=sigma)


def _crps_gaussian(y, mu, sigma):
    z = (y - mu) / sigma
    return sigma * (z * (2.0 * stats.norm.cdf(z) - 1.0)
                    + 2.0 * stats.norm.pdf(z) - 1.0 / math.sqrt(math.pi))


def test_crps_equals_mean_pinball():
    fan = QuantileFan(taus=TAU_GRID.copy(), values=np.sort(_gaussian_fan(1.0, 2.0)))
    y = 1.7
    direct = np.mean([pinball(y, q, t) for q, t in zip(fan.values, TAU_GRID)])
    assert crps_from_fan(fan, y) == pytest.approx(direct, rel=1e-12)


def test_crps_matches_fine_grid_integration():
    """The 99 point fan score tracks a tenfold finer pinball grid to 1e-3.

    The percentile average carries an O(1/99) normalisation bias relative
    to the exact pinball integral, so the oracle refines the same grid
    construction rather than integrating over [0, 1].
    """
    fine = np.arange(1, 1000) / 1000.0
    fan = QuantileFan(taus=TAU_GRID.copy(), values=np.sort(_gaussian_fan(0.0, 1.0)))
    ours = crps_from_fan(fan, 0.0)
    diff = 0.0 - stats.norm.ppf(fine)
    oracle = np.where(diff < 0.0, (fine - 1.0) * diff, fine * diff).mean()
    assert ours == pytest.approx(oracle, abs=1e-3)
    # Twice the pinball integral is the closed form CRPS; the grid bias
    # keeps the fan score within ~1% of it, never closer.
    for mu, sigma, y in [(0.0, 1.0, 0.0), (0.0, 1.0, 1.3), (2.0, 0.5, 1.8)]:
        fan = QuantileFan(taus=TAU_GRID.copy(), values=np.sort(_gaussian_fan(mu, sigma)))
        assert crps_from_fan(fan, y) == pytest.approx(
            _crps_gaussian(y, mu, sigma) / 2.0, rel=2e-2)


def test_crps_fan_matrix_batches(rng):
    fans = np.sort(rng.standard_normal((7, 99)), axis=1)
    ys = rng.standard_normal(7)
    batch = crps_fan_matrix(fans, ys)
    for i in range(7):
        fan = QuantileFan(taus=TAU_GRID.copy(), values=fans[i])
        assert batch[i] == pytest.approx(crps_from_fan(fan, ys[i]), rel=1e-12)
    with pytest.raises(MisalignedError):
        crps_fan_matrix(fans, ys[:3])


def test_crps_fan_matrix_matches_a_loop(rng):
    fans = np.sort(rng.normal(30.0, 12.0, (50, 99)), axis=1)
    ys = rng.normal(30.0, 15.0, 50)
    got = crps_fan_matrix(fans, ys, TAU_GRID)
    for i in range(50):
        acc = 0.0
        for j in range(99):
            diff = ys[i] - fans[i, j]
            acc += (TAU_GRID[j] - 1.0) * diff if diff < 0.0 else TAU_GRID[j] * diff
        # numpy's pairwise mean and the running sum differ in rounding only
        assert got[i] == pytest.approx(acc / 99, rel=1e-13, abs=1e-15)


def test_crps_rejects_unsorted_fan():
    values = np.arange(99.0)
    values[50] = 0.0
    with pytest.raises(ValueError):
        crps_from_fan(QuantileFan(taus=TAU_GRID.copy(), values=values), 1.0)


def test_crps_prefers_the_true_distribution(rng):
    """Sharper-but-wrong and shifted fans score worse on average."""
    n = 4000
    ys = rng.standard_normal(n)
    true_fan = np.tile(_gaussian_fan(0.0, 1.0), (n, 1))
    shifted = true_fan + 1.0
    assert crps_fan_matrix(true_fan, ys).mean() < crps_fan_matrix(shifted, ys).mean()


# --------------------------------------------------------------------------
# ranks and reliability


def test_univariate_rank_basics():
    members = np.array([1.0, 2.0, 3.0, 4.0])
    assert univariate_rank(members, 2.5) == 0.5
    assert univariate_rank(members, 0.0) == 0.0
    assert univariate_rank(members, 9.0) == 1.0
    assert univariate_rank(members, 2.0) == 0.5  # at or below
    with pytest.raises(EmptyEnsembleError):
        univariate_rank(np.array([]), 1.0)


def test_multivariate_rank_reduces_to_univariate(rng):
    """K = 1 without ties: domination counting is the empirical CDF."""
    for _ in range(50):
        members = rng.standard_normal((17, 1))
        y = rng.standard_normal()
        mv = multivariate_rank(members, np.array([y]), rng)
        assert mv == univariate_rank(members[:, 0], y)


def test_multivariate_rank_tie_randomization(rng):
    members = np.ones((9, 2))
    y = np.ones(2)
    draws = {multivariate_rank(members, y, rng) for _ in range(400)}
    # all ten tie positions are reachable and nothing else
    assert draws == {i / 9 for i in range(10)}


def test_multivariate_rank_extremes(rng):
    members = np.tile(np.array([[1.0, 1.0]]), (10, 1))
    below = multivariate_rank(members, np.array([0.0, 0.0]), rng)
    above = multivariate_rank(members, np.array([2.0, 2.0]), rng)
    assert below == 0.0
    assert above == 1.0
    with pytest.raises(MisalignedError):
        multivariate_rank(members, np.array([1.0]), rng)
    with pytest.raises(EmptyEnsembleError):
        multivariate_rank(np.zeros((0, 2)), np.zeros(2), rng)


def test_reliability_one_bin_exact():
    ranks = np.full(200, 0.05)
    for m_bins in (4, 10, 20):
        report = reliability_index(ranks, m_bins=m_bins)
        assert report.delta == 2.0 * (1.0 - 1.0 / m_bins)  # exact


def test_reliability_uniform_is_zero():
    m = 10
    ranks = np.repeat((np.arange(m) + 0.5) / m, 30)
    assert reliability_index(ranks, m_bins=m).delta == 0.0


def test_reliability_bin_edges():
    # bins are left closed; rank 1.0 folds into the last bin
    report = reliability_index(np.array([0.1, 0.1, 0.1]), m_bins=10)
    assert report.delta == 2.0 * (1.0 - 1.0 / 10)
    report = reliability_index(np.array([1.0, 1.0]), m_bins=10)
    assert report.delta == 2.0 * (1.0 - 1.0 / 10)
    with pytest.raises(ValueError):
        reliability_index(np.array([1.2]))


def test_reliability_per_hour_average(rng):
    ranks = np.column_stack([np.full(100, 0.05), rng.uniform(size=100)])
    report = reliability_index(ranks, m_bins=10)
    assert report.delta_by_hour.shape == (2,)
    assert report.delta_by_hour[0] == 1.8
    assert report.delta == pytest.approx(report.delta_by_hour.mean())


@pytest.mark.parametrize("m_bins", [2, 3, 7, 10, 40])
def test_reliability_equals_the_full_histogram_formula(rng, m_bins):
    # ranks on a coarse grid leave some bins empty and pile others up
    ranks = np.round(rng.uniform(size=(60, 4)), 1)
    ranks[:, 0] = 0.5
    report = reliability_index(ranks, m_bins=m_bins)
    bins = np.minimum((ranks * m_bins).astype(np.intp), m_bins - 1)
    for h in range(4):
        counts = np.bincount(bins[:, h], minlength=m_bins)
        want = np.abs(counts * m_bins - 60).sum() / (60 * m_bins)
        assert report.delta_by_hour[h] == want


def test_reliability_rejects_an_overflowing_numerator(rng):
    ranks = rng.uniform(size=(730, 2))
    with pytest.raises(ValueError, match="overflow"):
        reliability_index(ranks, m_bins=10**17)  # 730 * 10**17 >= 2**63
    with pytest.raises(ValueError, match="overflow"):
        reliability_index(ranks, m_bins=2**63 // 730 + 1)
    report = reliability_index(ranks, m_bins=2**63 // 730)
    assert np.all((report.delta_by_hour >= 0.0) & (report.delta_by_hour <= 2.0))


def test_reliability_memory_does_not_grow_with_m_bins(rng):
    ranks = rng.uniform(size=(200, 3))
    tracemalloc.start()
    try:
        report = reliability_index(ranks, m_bins=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a full histogram alone would take 80 MB
    assert report.delta_by_hour.shape == (3,)
    assert np.all(report.delta_by_hour == 2.0 * (10**7 - 200) / 10**7)


def _brute_force_rank(members, y0, rng):
    """The multivariate rank from plain O(M^2 K) pre-ranks and its draw."""
    points = np.vstack([y0[None, :], members])
    counts = (points[:, None, :] <= points[None, :, :]).all(axis=2).sum(axis=0)
    s = int((counts < counts[0]).sum())
    u = int((counts == counts[0]).sum())
    return (int(rng.integers(s + 1, s + u + 1)) - 1) / members.shape[0]


@pytest.mark.parametrize("m", [90, 1260])
def test_multivariate_rank_equals_brute_force_draws(m):
    # rounded members tie in single components and as whole rows; some
    # observations repeat a member, so the random tie break has work to do
    gen = np.random.default_rng(m)
    pools = []
    for j in range(12):
        members = np.round(gen.normal(0.0, 1.0, (m, 4)), 0)
        y0 = members[gen.integers(m)].copy() if j % 2 else np.round(gen.normal(size=4), 0)
        pools.append((members, y0))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    got = [multivariate_rank(members, y0, ours) for members, y0 in pools]
    want = [_brute_force_rank(members, y0, theirs) for members, y0 in pools]
    assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def _multivariate_reliability(cells, rng, m_bins):
    """The backtest's per-cell path: one rank per (day, hour), then the index."""
    ranks = np.array([[multivariate_rank(members, y0, rng) for members, y0 in row]
                      for row in cells])
    return reliability_index(ranks, m_bins=m_bins, mode="multivariate")


def test_multivariate_reliability_grid(rng):
    members = rng.standard_normal((30, 2))
    cells = [[(members, rng.standard_normal(2)) for _ in range(3)] for _ in range(40)]
    report = _multivariate_reliability(cells, rng, m_bins=5)
    assert report.mode == "multivariate"
    assert report.delta_by_hour.shape == (3,)
    # an observation far outside every member lands in one end bin
    outside = [[(members, np.full(2, 10.0)) for _ in range(3)] for _ in range(20)]
    by_hour = _multivariate_reliability(outside, rng, m_bins=5).delta_by_hour
    assert np.all(by_hour == 2.0 * (1.0 - 1.0 / 5))


def test_multivariate_rank_rejects_nan(rng):
    members = rng.standard_normal((12, 3))
    with pytest.raises(ValueError, match="NaN"):
        multivariate_rank(members, np.array([0.0, np.nan, 0.0]), rng)
    members[4, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        multivariate_rank(members, np.zeros(3), rng)
    members[4, 1] = np.inf  # infinities order like any other value
    assert multivariate_rank(members, np.full(3, 1e300), rng) == 1.0
    with pytest.raises(EmptyEnsembleError):
        multivariate_rank(np.zeros((5, 0)), np.zeros(0), rng)


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
    counts = preranks(pts)
    for j in range(30):
        want = sum(bool(np.all(pts[i] <= pts[j])) for i in range(30))
        assert counts[j] == want
    assert counts.min() >= 1  # every row dominates itself


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m1", [1, 2, 129, 2101])
def test_preranks_matches_broadcast_oracle(rng, k, m1):
    pts = _points_with_ties(rng, m=m1, k=k)
    counts = preranks(pts)
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
    counts = preranks(pts)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _preranks_broadcast(pts))


def test_preranks_signed_zeros_and_infinities(rng):
    pts = np.zeros((7, 3))
    pts[::2, 1] = -0.0  # -0.0 == 0.0, so all seven rows tie
    assert np.array_equal(preranks(pts), np.full(7, 7))
    pts = _points_with_ties(rng, m=300, k=3)
    pts[::7, 0] = np.inf
    pts[3::11, 1] = -np.inf
    pts[5::13] = np.inf
    assert np.array_equal(preranks(pts), _preranks_broadcast(pts))
