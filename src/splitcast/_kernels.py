"""Hot numeric kernels in numpy.

``preranks`` counts componentwise dominations for the multivariate rank
histogram, ``crps_fan_batch`` scores quantile fans and ``profit_pools``
prices every ensemble member at every bid fraction.  Each is one numpy
function; ``benchmarks/bench_kernels.py`` times them at backtest sizes.
"""

import numpy as np

# the package has one numpy kernel path; the flag stays for result records
USE_NUMBA = False

# pre-rank blocks: at most this many query rows, and about this many cells
_PRERANK_ROWS = 128
_PRERANK_CELLS = 4_000_000


# ----------------------------------------------------------------- pre-ranks

def preranks(points):
    """Componentwise domination counts for each row of ``points``.

    ``counts[j]`` is the number of rows i (including j itself) with
    ``points[i, d] <= points[j, d]`` for every component d.  ``points``
    must hold no NaN.

    Rows are sorted by component 0 and taken in blocks of query rows.  A
    block compares only rows up to the last one whose component 0 is at
    most the block's largest (no query of the block dominates a later row),
    and rows before the block need no component 0 comparison at all.  The
    block's boolean matrix starts from component 0 and ANDs each further
    component into it in place, so no ``(M, M, K)`` array is ever built.
    """
    points = np.asarray(points, dtype=np.float64)
    m1 = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    first, *rest = np.ascontiguousarray(points[order].T)
    counts = np.empty(m1, dtype=np.int64)
    chunk = max(1, min(_PRERANK_ROWS, _PRERANK_CELLS // max(m1, 1)))
    for s in range(0, m1, chunk):
        e = min(s + chunk, m1)
        r = int(np.searchsorted(first, first[e - 1], side="right"))
        le = np.empty((e - s, r), dtype=bool)
        le[:, :s] = True
        np.less_equal(first[None, s:r], first[s:e, None], out=le[:, s:r])
        for col in rest:
            le &= col[None, :r] <= col[s:e, None]
        counts[order[s:e]] = np.count_nonzero(le, axis=1)
    return counts


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
