"""Hot numeric kernels in numpy.

``preranks`` counts componentwise dominations for the multivariate rank
histogram, ``crps_fan_batch`` scores quantile fans and ``profit_pools``
prices every ensemble member at every bid fraction.  Each is one numpy
function; ``benchmarks/bench_kernels.py`` times them at backtest sizes.
"""

import numpy as np

# the package has one numpy kernel path; the flag stays for result records
USE_NUMBA = False


# ----------------------------------------------------------------- pre-ranks

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


# ------------------------------------------------------- pinball score batch

def crps_fan_batch(fans, ys, taus):
    """Mean pinball score of each quantile fan against its observation."""
    fans = np.asarray(fans, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    diff = ys[:, None] - fans
    ps = np.where(diff < 0.0, (taus - 1.0) * diff, taus * diff)
    return ps.mean(axis=1)


# ------------------------------------------------------------- profit pools

def profit_pools(da, idp, w, w_hat, q_grid, c_om):
    """Per MWh profit of every ensemble member at every bid fraction q.

    Members with non positive wind are set to exactly zero profit for all q.
    Returns an array of shape ``(len(q_grid), len(da))``, computed in it and
    one more array of that shape.
    """
    da = np.asarray(da, dtype=np.float64)
    idp = np.asarray(idp, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    pos = w > 0.0
    ratio = np.zeros_like(w)
    ratio[pos] = w_hat / w[pos]
    qw = np.multiply(np.asarray(q_grid, dtype=np.float64)[:, None], ratio[None, :])
    pools = np.multiply(qw, da[None, :])
    np.subtract(1.0, qw, out=qw)
    qw *= idp[None, :]
    pools += qw  # q w_hat / w DA + (1 - q w_hat / w) ID
    pools -= c_om
    pools[:, ~pos] = 0.0
    return pools
