"""Verification metrics for interval, fan and ensemble forecasts.

Conventions shared by all metrics:

* prediction intervals are closed, so an observation on the boundary
  counts as covered;
* empirical coverage is computed per delivery hour first and averaged
  over hours afterwards;
* histogram ranks live in [0, 1]; bin j of M covers [(j-1)/M, j/M) with
  the last bin closed at 1.
"""

from dataclasses import dataclass

import math
import numpy as np

from .errors import EmptyEnsembleError, MisalignedError
from .quantreg import TAU_GRID, pinball

# 5% critical value of the chi squared distribution with one degree of freedom
KUPIEC_CRITICAL = 3.841459


def _as_grid(arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise MisalignedError(f"expected 1-D or 2-D array, got shape {arr.shape}")
    return arr


def interval_hits(lower, upper, realized):
    """Whether each realized value lies in its closed interval [lower, upper]."""
    lower, upper, realized = (np.asarray(a, dtype=np.float64) for a in (lower, upper, realized))
    if not lower.shape == upper.shape == realized.shape:
        raise MisalignedError(
            f"shapes differ: {lower.shape}, {upper.shape}, {realized.shape}")
    return (realized >= lower) & (realized <= upper)


@dataclass(frozen=True)
class KupiecResult:
    lr: float
    reject: bool
    n: int
    hits: int


def kupiec(hits, n, nominal):
    """Unconditional coverage likelihood ratio test.

    ``LR = -2 ln[(1-p)^(n-x) p^x] + 2 ln[(1-x/n)^(n-x) (x/n)^x]`` with the
    convention 0 ln 0 = 0; rejection at the 5% level.
    """
    x = int(hits)
    n = int(n)
    if not 0 <= x <= n or n <= 0:
        raise ValueError(f"hits {x} outside 0..{n}")
    p = float(nominal)
    if not 0.0 < p < 1.0:
        raise ValueError(f"nominal coverage {p} outside (0, 1)")
    xhat = x / n
    ll_null = (n - x) * math.log1p(-p) + x * math.log(p)
    ll_alt = 0.0
    if x < n:
        ll_alt += (n - x) * math.log1p(-xhat)
    if x > 0:
        ll_alt += x * math.log(xhat)
    lr = max(-2.0 * ll_null + 2.0 * ll_alt, 0.0)
    return KupiecResult(lr=lr, reject=bool(lr > KUPIEC_CRITICAL), n=n, hits=x)


@dataclass(frozen=True)
class CoverageReport:
    nominal: float
    picp_by_hour: np.ndarray
    picp: float
    lr_by_hour: np.ndarray
    reject_by_hour: np.ndarray
    pass_rate: float


def coverage_report(hits, nominal):
    """PICP and per hour Kupiec tests of :func:`interval_hits`, (n, hours) or
    1-D, in one report."""
    hits = _as_grid(hits)
    per_hour = hits.mean(axis=0)
    results = [kupiec(int(x), hits.shape[0], nominal) for x in hits.sum(axis=0)]
    lr = np.array([r.lr for r in results])
    reject = np.array([r.reject for r in results])
    return CoverageReport(
        nominal=float(nominal), picp_by_hour=per_hour, picp=float(per_hour.mean()),
        lr_by_hour=lr, reject_by_hour=reject,
        pass_rate=float(1.0 - reject.mean()),
    )


def score_fans(method, variable, crps, hits):
    """Coverage and CRPS of one method's fans of one variable over some days.

    ``crps`` is the (days, 24) CRPS of the fans, and ``hits`` maps each
    interval level to its (days, 24) interval hits.  Returns the coverage
    reports by level, the CRPS entry (``per_hour`` and ``overall``), and the
    rows of ``coverage.csv`` and of ``crps.csv``.
    """
    coverage, coverage_rows = {}, []
    for level, level_hits in hits.items():
        report = coverage_report(level_hits, level)
        coverage[level] = report
        for h in range(24):
            coverage_rows.append((method, variable, level, str(h + 1), report.picp_by_hour[h],
                                  report.lr_by_hour[h], report.reject_by_hour[h]))
        coverage_rows.append((method, variable, level, "all", report.picp, float("nan"), ""))
    per_hour = crps.mean(axis=0)
    overall = float(crps.mean())
    crps_rows = [(method, variable, str(h + 1), per_hour[h]) for h in range(24)]
    crps_rows.append((method, variable, "all", overall))
    return coverage, {"per_hour": per_hour, "overall": overall}, coverage_rows, crps_rows


# --------------------------------------------------------------------------
# CRPS


def crps_from_fan(fan, y):
    """Mean pinball score of a 99 percentile fan, a discretized CRPS."""
    values = np.asarray(fan.values, dtype=np.float64)
    taus = np.asarray(fan.taus, dtype=np.float64)
    if values.shape != taus.shape:
        raise MisalignedError("fan values and taus differ in length")
    if np.any(np.diff(values) < 0.0):
        raise ValueError("fan values must be non decreasing; sort the fan first")
    return float(crps_fan_matrix(values[None, :], np.array([float(y)]), taus)[0])


def crps_fan_matrix(fans, ys, taus=TAU_GRID):
    """Batch CRPS: one fan per row of ``fans`` against ``ys``."""
    fans = np.ascontiguousarray(fans, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if fans.shape[0] != ys.shape[0]:
        raise MisalignedError("one observation per fan required")
    return pinball(ys[:, None], fans, taus).mean(axis=1)


# --------------------------------------------------------------------------
# rank histograms


def univariate_rank(members, y):
    """Fraction of members at or below the observation."""
    members = np.asarray(members, dtype=np.float64)
    if members.ndim != 1 or members.size == 0:
        raise EmptyEnsembleError("univariate rank needs a non empty 1-D member array")
    return float(np.count_nonzero(members <= y) / members.size)


def preranks(points):
    """Componentwise domination counts for each row of ``points``.

    ``counts[j]`` is the number of rows i (including j itself) with
    ``points[i, d] <= points[j, d]`` for every component d.  ``points``
    must have at least one component and hold no NaN.

    Each row set is a bitset of ``ceil(M / 64)`` words.  Per component the
    rows are sorted and a prefix matrix is built by OR-accumulating one bit
    per sorted row, so prefix row t holds the first t + 1 rows of the order.
    Row j's set ``{i : points[i, d] <= points[j, d]}`` is the prefix row at
    the end of j's run of ties; any sort serves, since that row holds the
    whole run.  The gathered sets of all components are ANDed and counted,
    so the work is about ``K * M * M / 64`` word operations for M rows of
    K components, in three ``(M, ceil(M / 64))`` arrays.
    """
    cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    m1 = cols.shape[1]
    rows = np.arange(m1)
    word = rows // 64
    bit = np.left_shift(np.uint64(1), (rows % 64).astype(np.uint64))
    # one allocation for the three bitset arrays: three separate ones of a
    # few MB were handed back to the OS and faulted in again on every call
    prefix, acc, gathered = np.empty((3, m1, -(-m1 // 64)), dtype=np.uint64)
    run_end = np.empty(m1, dtype=np.intp)
    last = np.empty(m1, dtype=np.intp)
    for d, col in enumerate(cols):
        order = np.argsort(col)
        ordered = col[order]
        prefix.fill(0)
        prefix[rows, word[order]] = bit[order]
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        # sorted position of the last tie of each sorted position
        run_end.fill(m1)
        ends = np.flatnonzero(ordered[1:] != ordered[:-1])
        run_end[ends] = ends
        run_end[-1:] = m1 - 1
        last[order] = np.minimum.accumulate(run_end[::-1])[::-1]
        # the indices are in range; "clip" spares the checked mode's buffer
        if d == 0:
            np.take(prefix, last, axis=0, out=acc, mode="clip")
        else:
            np.take(prefix, last, axis=0, out=gathered, mode="clip")
            acc &= gathered
    return np.bitwise_count(acc).sum(axis=1, dtype=np.int64)


def multivariate_rank(members, y0, rng):
    """Componentwise domination rank of a vector observation in a pool.

    Pre ranks count, for each element of pool + observation, how many
    elements it componentwise dominates (weakly, itself included).  The
    observation's position among the pre ranks, with ties broken uniformly
    at random, is normalized to [0, 1].
    """
    members = np.asarray(members, dtype=np.float64)
    if members.ndim != 2 or 0 in members.shape:
        raise EmptyEnsembleError("multivariate rank needs a non empty (M, K) member array")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (members.shape[1],):
        raise MisalignedError(
            f"observation shape {y0.shape} does not match {members.shape[1]} variables")
    m = members.shape[0]
    points = np.vstack([y0[None, :], members])
    if np.isnan(points).any():
        raise ValueError("multivariate rank is undefined for NaN members or observation")
    counts = preranks(points)
    rho0 = counts[0]
    s = int(np.count_nonzero(counts < rho0))
    u = int(np.count_nonzero(counts == rho0))
    r_int = int(rng.integers(s + 1, s + u + 1))
    return (r_int - 1) / m


@dataclass(frozen=True)
class ReliabilityReport:
    mode: str
    m_bins: int
    delta_by_hour: np.ndarray
    delta: float


def reliability_index(ranks, m_bins=10, mode="univariate"):
    """Sum of absolute deviations of the rank histogram from uniformity.

    ``ranks`` is (n, hours) or 1-D; the index is computed per column and
    averaged.  A histogram entirely inside one bin scores 2 (1 - 1/M); a
    perfectly uniform one scores 0.
    """
    ranks = _as_grid(ranks)
    if ranks.min() < 0.0 or ranks.max() > 1.0:
        raise ValueError("ranks must lie in [0, 1]")
    n = ranks.shape[0]
    if n * int(m_bins) >= 2 ** 63:
        raise ValueError(f"{n} ranks in {m_bins} bins overflow the int64 numerator")
    # one row of sorted bins per hour
    bins = np.sort(np.minimum((ranks.T * m_bins).astype(np.intp), m_bins - 1), axis=1)
    # The deviations c * m_bins - n of all bins sum to zero, so their
    # absolute sum is twice the positive part, which only occupied bins
    # have: memory follows the ranks, not m_bins.  A bin's count c is its
    # run length in the sorted row, read at the run's last entry.  The
    # integer numerator keeps degenerate histograms exact in floats.
    pos = np.arange(n)
    first = np.ones(bins.shape, dtype=bool)
    first[:, 1:] = bins[:, 1:] != bins[:, :-1]
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    counts = np.where(last, pos + 1 - np.maximum.accumulate(np.where(first, pos, 0), axis=1), 0)
    deltas = 2 * (np.maximum(counts * m_bins - n, 0).sum(axis=1) / (n * m_bins))
    return ReliabilityReport(mode=mode, m_bins=int(m_bins),
                             delta_by_hour=deltas, delta=float(deltas.mean()))
