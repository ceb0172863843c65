"""Linear quantile regression fitted by an interior point method.

The fit solves the standard linear program of quantile regression (split
the residual into positive and negative parts, weight them by tau and
1 - tau) by a deterministic primal dual interior point iteration on the
bounded variable dual formulation with a Mehrotra style corrector step.
One iteration advances a block of up to ``_TAU_BLOCK`` taus, each with its
own step lengths, barrier and corrector: one product with the packed column
products of the design gives the weighted Gram matrices, one batched solve
the Newton steps, and a tau whose duality gap has closed leaves the block.

A fan is the vector of all 99 percentile forecasts tau = 0.01 .. 0.99.
Quantile crossing is repaired by sorting the fan values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, ShapeMismatchError, SolverFailureError
from .models import check_design, packed_products

TAU_GRID = np.round(np.arange(1, 100) / 100.0, 2)
TAU_GRID.flags.writeable = False

MAX_ITER = 500
DUALITY_TOL = 1e-8
_STEP_DAMP = 0.9995
_TAU_BLOCK = 20  # taus per batched iteration: bounds the (taus, n) working arrays


def pinball(y, q, tau):
    """Pinball (check) loss of quantile forecast ``q`` against outcome ``y``."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau {tau} outside (0, 1)")
    diff = np.asarray(y, dtype=np.float64) - q
    return np.where(diff < 0.0, (tau - 1.0) * diff, tau * diff)


def _step(v, dv, u, du):
    """Damped step length per row, at most 1, that keeps ``v`` and ``u`` positive."""
    t = -np.fmin(np.fmin.reduce(dv / v, axis=1, keepdims=True),
                 np.fmin.reduce(du / u, axis=1, keepdims=True))
    return _STEP_DAMP / np.maximum(t, _STEP_DAMP)


def _newton(gram, X, q, v):
    """Newton directions in theta and in the dual ``a`` for right hand side ``v``."""
    dtheta = np.linalg.solve(gram, ((q * v) @ X)[:, :, None])[:, :, 0]
    return dtheta, q * (dtheta @ X.T - v)


# expected: 0 / 0 in a zero step (fmin skips the nan), z / a at a vanishing bound (q = 0)
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _fit_block(X, XX, unpack, y, taus, start, max_iter, tol):
    """Coefficients per tau, nan where the gap stayed open.  ``XX[:, unpack]``
    holds the column products of ``X``; ``start`` the first theta, z and w."""
    n, p = X.shape
    # dual: max y'a subject to X'a = (1 - tau) X'1, 0 <= a <= 1
    a = np.repeat(1.0 - taus[:, None], n, axis=1)
    s = 1.0 - a
    theta, z, w = (np.tile(v, (taus.size, 1)) for v in start)
    rows = np.arange(taus.size)
    out = np.full((taus.size, p), np.nan)
    for it in range(max_iter + 1):
        # the gap is the complementarity (feasibility holds by construction): unlike
        # the objective difference it has no cancellation floor; a closed tau is frozen
        gap = np.einsum("ij,ij->i", z, a) + np.einsum("ij,ij->i", w, s)
        done = gap <= tol * (1.0 + np.abs(a @ y))
        if done.any():
            out[rows[done]] = -theta[done]
            rows, a, s, z, w, theta, gap = (v[~done] for v in (rows, a, s, z, w, theta, gap))
        if rows.size == 0 or it == max_iter:
            return out
        q = 1.0 / (z / a + w / s)
        r = z - w
        gram = (q @ XX)[:, unpack]
        dtheta, da = _newton(gram, X, q, r)
        dz, dw = -z * (1.0 + da / a), -w * (1.0 - da / s)
        fp, fd = _step(a, da, s, -da), _step(z, dz, w, dw)
        cut = np.minimum(fp, fd)[:, 0] < 1.0
        if cut.any():
            # Mehrotra corrector where the affine step is cut short:
            # retarget the barrier from the affine step
            g = (np.einsum("ij,ij->i", z + fd * dz, a + fp * da)
                 + np.einsum("ij,ij->i", w + fd * dw, s - fp * da))
            mu = (gap * np.maximum(g / gap, 0.0) ** 3 / (2.0 * n))[:, None]
            ainv, sinv = 1.0 / a, 1.0 / s
            dadz, dsdw = da * dz * ainv, -da * dw * sinv
            corr = mu * (ainv - sinv) - dadz + dsdw
            ct, ca = _newton(gram, X, q, r - corr)
            cz = mu * ainv - z - z * ainv * ca - dadz
            cw = mu * sinv - w + w * sinv * ca - dsdw
            dtheta, da, dz, dw = (np.where(cut[:, None], new, old) for new, old in
                                  ((ct, dtheta), (ca, da), (cz, dz), (cw, dw)))
            fp, fd = _step(a, da, s, -da), _step(z, dz, w, dw)
        a, s, z, w = a + fp * da, s - fp * da, z + fd * dz, w + fd * dw
        theta = theta + fd * dtheta


def qr_fit_fan(X, y, taus=TAU_GRID, max_iter=MAX_ITER, tol=DUALITY_TOL):
    """Coefficients per tau, shape (len(taus), p).  Raises :class:`DegenerateDesignError`
    for a rank deficient design, :class:`SolverFailureError` naming any tau still open."""
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError(f"tau outside (0, 1) in {taus.tolist()}")
    X, y = check_design(X, y)
    theta, _, rank, _ = np.linalg.lstsq(X, -y, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateDesignError(f"design of rank {rank} with {X.shape[1]} columns")
    r = -y - X @ theta
    pad = 1e-5 * (np.abs(r) < 1e-5)
    start = (theta, np.maximum(r, 0.0) + pad, np.maximum(-r, 0.0) + pad)
    XX, unpack = packed_products(X)
    # column major: how the products with XX round depends on its layout, and
    # this layout keeps the fans' bits
    XX = np.asfortranarray(XX)
    try:
        thetas = np.concatenate([_fit_block(X, XX, unpack, y, taus[i:i + _TAU_BLOCK], start,
                                            max_iter, tol)
                                 for i in range(0, taus.size, _TAU_BLOCK)])
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError("singular weighted design in quantile regression") from exc
    failed = np.isnan(thetas).any(axis=1)
    if failed.any():
        raise SolverFailureError(f"duality gap open after {max_iter} iterations at tau "
                                 + ", ".join(f"{t:g}" for t in taus[failed]))
    return thetas


def qr_fit(X, y, tau, max_iter=MAX_ITER, tol=DUALITY_TOL):
    """Coefficients minimizing the pinball loss at level ``tau``: a fan of one tau."""
    return qr_fit_fan(X, y, [tau], max_iter, tol)[0]


@dataclass(frozen=True)
class QuantileFan:
    """99 percentile forecasts, non decreasing in tau."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.taus.flags.writeable = False
        self.values.flags.writeable = False


def qr_fan(thetas, row, taus=TAU_GRID):
    """Evaluate per tau coefficients on one row, sorting away any crossing."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape[0] != len(taus):
        raise ValueError("one coefficient vector per tau required")
    values = np.asarray(row, dtype=np.float64)
    if thetas.shape[1] != values.shape[0]:
        raise ShapeMismatchError(
            f"row has {values.shape[0]} values, coefficients have {thetas.shape[1]}")
    return QuantileFan(taus=np.asarray(taus, dtype=np.float64).copy(),
                       values=np.sort(thetas @ values))


def tail_column(level):
    """Fan column of the lower tail of the central interval at nominal ``level``
    (the upper tail is column ``98 - i``), or None when the tails are off the
    1% grid, e.g. at 0.95."""
    pos = (1.0 - level) / 2.0 * 100.0
    if abs(pos - round(pos)) > 1e-9 or not 1 <= round(pos) <= 49:
        return None
    return int(round(pos)) - 1
