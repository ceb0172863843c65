"""Linear quantile regression fans by the quantile process.

The regression quantile beta(tau) is piecewise constant in tau (Portnoy
1991).  Each piece is a basic solution: p observations, the basis, fitted
exactly.  It stays optimal while the duals of the basis rows stay inside
[tau - 1, tau], and simplex pivots follow beta(tau) from one breakpoint to
the next (Koenker and d'Orey 1987).  A fan is found by walking that path:

* an interior point solve at ``_TAU_START``, or at the tau of a one tau
  fit (primal dual, Mehrotra corrector, batched over a stack of designs),
  gives residuals (the least squares ones where its weighted Gram matrices
  are singular); a crossover takes as the start basis the rows in order
  of |residual| that span the design's columns, and fixed tau simplex
  pivots make it optimal;
* from there each design is walked upwards in tau twice, on (X, y) and on
  (X, -y), since beta_tau(X, y) = -beta_{1 - tau}(X, -y): one pivot per
  breakpoint, every walk of the stack in the same numpy round;
* each requested tau takes the basis that is optimal at it, and its
  coefficients come from one p x p solve on that basis.

The pivot decisions see the targets plus a fixed perturbation of 1e-9 of
their scale, which breaks the ties of integer targets and repeated rows;
the coefficients are solved on the targets as given.  Every tau thus gets
an exact vertex of the pinball linear program; where the optimum is a flat
face it is one of the face's vertices.  The interior point bits do not
reach a fan (the optimal basis of the perturbed problem is unique), so a
fan is the same alone and inside a stack, at any BLAS thread count.

A fan is the vector of all 99 percentile forecasts tau = 0.01 .. 0.99.
Quantile crossing is repaired by sorting the fan values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, ShapeMismatchError, SolverFailureError
from .models import check_design

TAU_GRID = np.round(np.arange(1, 100) / 100.0, 2)
TAU_GRID.flags.writeable = False

MAX_ITER = 500  # interior point iterations of the start
DUALITY_TOL = 1e-8
_STEP_DAMP = 0.9995
_IP_BLOCK = 8  # designs per interior point solve: bounds its (designs, p, n) arrays
_TAU_START = 0.495  # taus below it are walked on (X, -y), upwards from 1 - _TAU_START
_JITTER = 1e-9  # tie breaking perturbation of the targets, relative to max |y| + 1
_RANK_TOL = 1e-9  # crossover: least new direction of a basis row, relative to its norm
_PIVOT_TOL = 1e-11  # ratio test: least |x_i' delta|, relative to |x_i| |delta|
_DUAL_TOL = 1e-9  # start: dual infeasibility a basis may keep
_REFACTOR = 64  # pivots between fresh inverses of the bases
_BLAND_AFTER = 8  # start pivots by the most violated dual before Bland's rule
_ROUNDS_PER_ROW = 20  # cap on the pivot rounds of a stack, per observation


def pinball(y, q, tau):
    """Pinball (check) loss of quantile forecast ``q`` against outcome ``y``."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau {tau} outside (0, 1)")
    diff = np.asarray(y, dtype=np.float64) - q
    return np.where(diff < 0.0, (tau - 1.0) * diff, tau * diff)


# --------------------------------------------------------------------------
# start: interior point at one tau


def _step(v, dv, u, du):
    """Damped step length per row, at most 1, that keeps ``v`` and ``u`` positive."""
    t = -np.fmin(np.fmin.reduce(dv / v, axis=1, keepdims=True),
                 np.fmin.reduce(du / u, axis=1, keepdims=True))
    return _STEP_DAMP / np.maximum(t, _STEP_DAMP)


def _newton(gram, XT, q, v):
    """Newton directions in theta and in the dual ``a`` for right hand side ``v``."""
    dtheta = np.linalg.solve(gram, XT @ (q * v)[:, :, None])[:, :, 0]
    return dtheta, q * ((dtheta[:, None, :] @ XT)[:, 0] - v)


# expected: 0 / 0 in a zero step (fmin skips the nan), z / a at a vanishing bound (q = 0)
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _interior_point(XT, y, theta, tau):
    """Coefficients at ``tau`` per design of the stack ``XT`` (F, p, n), the
    designs transposed, from the least squares fits ``-theta``; nan where the
    gap stayed open after ``MAX_ITER`` iterations."""
    n = XT.shape[2]
    r = -y - (theta[:, None, :] @ XT)[:, 0]
    pad = 1e-5 * (np.abs(r) < 1e-5)
    z, w = np.maximum(r, 0.0) + pad, np.maximum(-r, 0.0) + pad
    # dual: max y'a subject to X'a = (1 - tau) X'1, 0 <= a <= 1
    a = np.full(y.shape, 1.0 - tau)
    s = 1.0 - a
    rows = np.arange(y.shape[0])
    out = np.full(theta.shape, np.nan)
    for it in range(MAX_ITER + 1):
        # the gap is the complementarity (feasibility holds by construction): unlike
        # the objective difference it has no cancellation floor; a closed design is frozen
        gap = np.einsum("ij,ij->i", z, a) + np.einsum("ij,ij->i", w, s)
        done = gap <= DUALITY_TOL * (1.0 + np.abs(np.einsum("ij,ij->i", a, y)))
        if done.any():
            out[rows[done]] = -theta[done]
            rows, XT, y, a, s, z, w, theta, gap = (
                v[~done] for v in (rows, XT, y, a, s, z, w, theta, gap))
        if rows.size == 0 or it == MAX_ITER:
            return out
        q = 1.0 / (z / a + w / s)
        r = z - w
        gram = (XT * q[:, None, :]) @ XT.transpose(0, 2, 1)
        dtheta, da = _newton(gram, XT, q, r)
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
            ct, ca = _newton(gram, XT, q, r - corr)
            cz = mu * ainv - z - z * ainv * ca - dadz
            cw = mu * sinv - w + w * sinv * ca - dsdw
            dtheta, da, dz, dw = (np.where(cut[:, None], new, old) for new, old in
                                  ((ct, dtheta), (ca, da), (cz, dz), (cw, dw)))
            fp, fd = _step(a, da, s, -da), _step(z, dz, w, dw)
        a, s, z, w = a + fp * da, s - fp * da, z + fd * dz, w + fd * dw
        theta = theta + fd * dtheta


def _start(XT, y, theta, tau):
    """:func:`_interior_point` on a block of designs.  Where its weighted Gram
    matrices are singular, as on full rank but ill conditioned designs, the
    block is redone one design at a time, and a design that still fails
    starts from its least squares fit: the crossover and the fixed tau
    pivots reach the optimum from any basis."""
    try:
        return _interior_point(XT, y, theta, tau)
    except np.linalg.LinAlgError:
        if len(y) == 1:
            return -theta
        return np.concatenate([_start(XT[f:f + 1], y[f:f + 1], theta[f:f + 1], tau)
                               for f in range(len(y))])


def _crossover(X, r):
    """Start basis: the rows in order of |r| that each add a new direction, until
    they span the columns (the p smallest |r| alone are singular on weekday
    dummies or repeated rows)."""
    p = X.shape[1]
    Q = np.empty((0, p))
    picked = []
    for i in np.argsort(np.abs(r), kind="stable"):
        x = X[i]
        v = x - (x @ Q.T) @ Q
        v -= (v @ Q.T) @ Q  # twice is enough for orthogonality
        norm = np.linalg.norm(v)
        if norm > _RANK_TOL * np.linalg.norm(x):
            Q = np.vstack([Q, v / norm])
            picked.append(i)
            if len(picked) == p:
                return np.array(picked)
    raise DegenerateDesignError("no nonsingular basis among the design rows")


# --------------------------------------------------------------------------
# simplex bases of a stack of designs


class _Bases:
    """The simplex state of ``m`` walks on each design of the stack ``XT``
    (F, p, n), the designs transposed.  Walk ``i = f m + s`` runs on design
    ``f`` with targets ``y[i]``.  ``lab`` is +1 for a row outside the basis
    whose dual is tau, -1 where it is tau - 1, and 0 in the basis; without it
    each row starts on its residual's side.  ``dist`` is ``lab`` times the
    residual: how far each row is from zero on its side."""

    def __init__(self, XT, y, h, lab=None):
        F, p, n = XT.shape
        self.XT, self.y, self.h, self.lab = XT, y, h, lab
        self.m = y.shape[0] // F
        self.rows = np.arange(y.shape[0])
        self.fan = self.rows // self.m
        # (below sums, column sums): the duals of the basis rows are ``V @ B``
        self.V = np.empty((y.shape[0], 2, p))
        self.V[:, 1] = XT.sum(axis=2)[self.fan]
        self.thr = _PIVOT_TOL * np.sqrt(np.einsum("fpn,fpn->fn", XT, XT))[self.fan]
        # work arrays of the rounds, (walks, n) each: numpy's fresh temporaries of
        # this size go through mmap, which costs more than the arithmetic
        self.speed, self.num, self.den = np.empty((3,) + y.shape)
        self.outer = np.empty((y.shape[0], p, p))
        self.refactor()

    def products(self, D):
        """``X d`` for the direction ``d`` of every walk, (walks, n)."""
        F, p, n = self.XT.shape
        return (D.reshape(F, self.m, p) @ self.XT).reshape(-1, n)

    def refactor(self):
        """Fresh basis inverses, distances and below sums from ``h`` and ``lab``."""
        F, p, n = self.XT.shape
        try:
            self.B = np.linalg.inv(self.XT[self.fan[:, None], :, self.h])
        except np.linalg.LinAlgError as exc:
            raise DegenerateDesignError("singular basis in quantile regression") from exc
        yh = np.take_along_axis(self.y, self.h, axis=1)
        r = self.y - self.products((self.B @ yh[:, :, None])[:, :, 0])
        if self.lab is None:
            self.lab = np.where(r > 0.0, 1.0, -1.0)
            np.put_along_axis(self.lab, self.h, 0.0, axis=1)
        self.dist = self.lab * r
        below = (self.lab < 0.0).reshape(F, self.m, n).transpose(0, 2, 1).astype(np.float64)
        self.V[:, 0] = (self.XT @ below).transpose(0, 2, 1).reshape(-1, p)

    def duals(self):
        """(g, a): the duals of the basis rows are g + (1 - a) tau."""
        ga = self.V @ self.B
        return ga[:, 0], ga[:, 1]

    def direction(self, j, sigma):
        """The unit move of every walk that takes basis row ``j`` off zero to the
        side ``sigma``: the speed ``lab * (X delta)`` at which each row nears
        zero (a row blocks where it exceeds ``thr``), and the rate at which
        the move takes row ``j`` off zero.  The speed is a work array, valid
        until the next call."""
        delta = self.B[self.rows, :, j]
        rate = 1.0 / np.sqrt(np.einsum("ij,ij->i", delta, delta))
        delta *= (-sigma * rate)[:, None]
        F, p, n = self.XT.shape
        np.matmul(delta.reshape(F, self.m, p), self.XT, out=self.speed.reshape(F, self.m, n))
        return np.multiply(self.lab, self.speed, out=self.speed), rate

    def pivot(self, j, sigma, k, t, speed, rate):
        """Row ``h[j]`` leaves to side ``sigma`` and row ``k`` enters after a step
        ``t`` along the move of ``direction``; ``k = h[j]`` with ``t = 0`` and
        ``sigma = 1`` leaves a walk as it is."""
        rows, lab, B, dist = self.rows, self.lab, self.B, self.dist
        dist -= np.multiply(speed, t[:, None], out=self.num)
        leave = self.h[rows, j]
        was = lab[rows, k]
        x_leave, x_k = self.XT[self.fan, :, leave], self.XT[self.fan, :, k]
        self.V[:, 0] += (sigma < 0.0)[:, None] * x_leave - (was < 0.0)[:, None] * x_k
        lab[rows, leave] = sigma
        lab[rows, k] = 0.0
        dist[rows, leave] = t * rate
        dist[rows, k] = 0.0
        # product form update of the inverse: row j of the basis becomes x_k
        row = (x_k[:, None, :] @ B)[:, 0]
        col = B[rows, :, j] / row[rows, j][:, None]
        B -= np.einsum("wi,wj->wij", col, row, out=self.outer)
        B[rows, :, j] = col
        self.h[rows, j] = k


def _fail(message, taus):
    raise SolverFailureError(message + " at tau " + ", ".join(f"{t:g}" for t in taus))


def _unbounded(t):
    if not np.isfinite(t).all():
        raise DegenerateDesignError("unbounded pinball loss: the design is near singular")


@np.errstate(divide="ignore", invalid="ignore")
def _optimize(bases, tau, cap):
    """Fixed ``tau`` pivots until every basis is dual feasible, each along its
    most violated dual (Bland's rule, least row index, after ``_BLAND_AFTER``)
    with the full line search: every row crossed before the slope turns
    nonnegative changes side.  Returns False when ``cap`` rounds do not do."""
    rows, h = bases.rows, bases.h
    for it in range(cap):
        g, a = bases.duals()
        u = g - tau * a  # feasible in [-1, 0]
        viol = np.maximum(u, -1.0 - u)
        bad = viol > _DUAL_TOL
        active = bad.any(axis=1)
        if not active.any():
            return True
        if it < _BLAND_AFTER:
            j = np.argmax(np.where(bad, viol, -np.inf), axis=1)
        else:
            j = np.argmin(np.where(bad, h, bases.dist.shape[1]), axis=1)
        sigma = np.where(active & (u[rows, j] < 0.0), -1.0, 1.0)
        speed, rate = bases.direction(j, sigma)
        # inf or nan where the row does not block (+ 0.0 turns a -0.0 into 0.0)
        ratio = bases.dist / (speed * (speed > bases.thr) + 0.0)
        order = np.argsort(ratio, axis=1, kind="stable")
        slope = np.cumsum(np.take_along_axis(np.abs(speed), order, axis=1), axis=1)
        reach = slope >= (viol[rows, j] * rate)[:, None]
        at = np.argmax(reach, axis=1)
        k = np.where(active, order[rows, at], h[rows, j])
        t = np.where(active, np.where(reach[rows, at], ratio[rows, k], np.inf), 0.0)
        _unbounded(t)
        crossed = np.zeros(ratio.shape, dtype=bool)
        np.put_along_axis(crossed, order, np.arange(ratio.shape[1]) < at[:, None], axis=1)
        bases.lab[crossed & active[:, None]] *= -1.0
        bases.pivot(j, sigma, k, np.maximum(t, 0.0), speed, rate)
        bases.refactor()
    return False


@np.errstate(divide="ignore", invalid="ignore")
def _walk(bases, tau, targets, cap):
    """Walk every basis up in tau from ``tau`` past its ascending ``targets``
    (inf padded); returns the basis taken at each target, and the targets
    left open after ``cap`` rounds."""
    rows, h = bases.rows, bases.h
    taken = np.zeros(targets.shape + h.shape[1:], dtype=np.intp)
    open_ = np.isfinite(targets)
    active = open_.any(axis=1)
    for it in range(cap):
        if it and it % _REFACTOR == 0:
            bases.refactor()
        g, a = bases.duals()
        # the dual of basis row j reaches tau where a_j < 0, tau - 1 where a_j > 0
        cross = np.where(a < 0.0, g, np.where(a > 0.0, g + 1.0, np.inf)) / a
        j = np.argmin(cross, axis=1)
        nxt = np.maximum(cross[rows, j], tau)
        now = open_ & (targets < nxt[:, None])
        if now.any():
            wi, ti = np.nonzero(now)
            taken[wi, ti] = h[wi]
            open_ &= ~now
            active = open_.any(axis=1)
            if not active.any():
                break
        sigma = np.where(active & (a[rows, j] > 0.0), -1.0, 1.0)
        speed, rate = bases.direction(j, sigma)
        # the first blocking row to reach zero: the least dist / speed; the
        # threshold only ranks rows barely above it lower, |dist| ranks a row
        # that drifted past zero first, and 1e-300 keeps 0 / 0 off the basis rows
        num, den = bases.num, bases.den
        np.subtract(speed, bases.thr, out=num)
        np.abs(bases.dist, out=den)
        den += 1e-300
        k = np.argmax(np.divide(num, den, out=num), axis=1)
        blocks = speed[rows, k] > bases.thr[rows, k]
        t = np.where(active, np.where(blocks, bases.dist[rows, k] / speed[rows, k], np.inf), 0.0)
        _unbounded(t)
        bases.pivot(j, sigma, np.where(active, k, h[rows, j]), np.maximum(t, 0.0), speed, rate)
        tau = np.where(active, nxt, tau)
    return taken, open_


def qr_fit_fan(X, y, taus=TAU_GRID):
    """Coefficients per tau: shape (len(taus), p) for a design ``X`` (n, p), and
    (F, len(taus), p) for a stack ``X`` (F, n, p) with targets ``y`` (F, n).

    Raises :class:`DegenerateDesignError` for a rank deficient design and
    :class:`SolverFailureError` naming the taus still open at a cap."""
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError(f"tau outside (0, 1) in {taus.tolist()}")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    stacked = X.ndim == 3
    if stacked and (y.ndim != 2 or len(y) != len(X)):
        raise ShapeMismatchError(f"targets shape {y.shape} does not match {len(X)} designs")
    if not stacked:
        X, y = X[None], y[None]
    for Xf, yf in zip(X, y):
        check_design(Xf, yf)
    F, n, p = X.shape

    theta = np.empty((F, p))
    for f in range(F):
        theta[f], _, rank, _ = np.linalg.lstsq(X[f], -y[f], rcond=None)
        if rank < p:
            raise DegenerateDesignError(f"design of rank {rank} with {p} columns")
    grid, back = np.unique(taus, return_inverse=True)
    tau_s = grid[0] if grid.size == 1 else _TAU_START
    XT = X.transpose(0, 2, 1)
    if XT.strides[2] != XT.itemsize:  # the products want unit stride (p, n) rows
        XT = np.ascontiguousarray(XT)
    beta = np.concatenate([
        _start(XT[i:i + _IP_BLOCK], y[i:i + _IP_BLOCK], theta[i:i + _IP_BLOCK], tau_s)
        for i in range(0, F, _IP_BLOCK)])
    if np.isnan(beta).any():
        _fail(f"duality gap open after {MAX_ITER} iterations", taus)

    # the pivots see the targets perturbed, which breaks ties
    xi = (np.arange(n) * 0.6180339887498949) % 1.0 - 0.5
    yp = y + _JITTER * (np.abs(y).max(axis=1, keepdims=True) + 1.0) * xi
    h = np.stack([_crossover(X[f], y[f] - X[f] @ beta[f]) for f in range(F)])
    start = _Bases(XT, yp, h)
    cap = _ROUNDS_PER_ROW * n
    if not _optimize(start, tau_s, cap):
        _fail(f"no optimal start basis after {cap} pivots", taus)

    # walk 2f goes up from tau_s on y_f, walk 2f + 1 up from 1 - tau_s on -y_f
    low = grid < tau_s
    ends = (grid[~low], grid[low][::-1])  # the taus of each side, in walking order
    targets = np.full((F, 2, max(e.size for e in ends)), np.inf)
    targets[:, 0, :ends[0].size] = ends[0]
    targets[:, 1, :ends[1].size] = 1.0 - ends[1]
    walks = _Bases(XT, np.stack([yp, -yp], axis=1).reshape(2 * F, n),
                   np.repeat(start.h, 2, axis=0),
                   np.stack([start.lab, -start.lab], axis=1).reshape(2 * F, n))
    taken, open_ = _walk(walks, np.tile([tau_s, 1.0 - tau_s], F),
                         targets.reshape(2 * F, -1), cap)
    if open_.any():
        open_ = open_.reshape(F, 2, -1).any(axis=0)
        _fail(f"no optimal basis after {cap} pivots",
              np.sort(np.concatenate([e[o[:e.size]] for e, o in zip(ends, open_)])))

    # the coefficients of each tau from its bases, on the targets as given
    taken = taken.reshape(F, 2, -1, p)
    fans = np.arange(F)[:, None]
    n_low = low.sum()
    thetas = np.empty((F, grid.size, p))
    for g in range(grid.size):
        h_g = taken[:, 1, n_low - 1 - g] if low[g] else taken[:, 0, g - n_low]
        try:
            thetas[:, g] = np.linalg.solve(XT[fans, :, h_g], y[fans, h_g][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise DegenerateDesignError("singular basis in quantile regression") from exc
    thetas = thetas[:, back]
    return thetas if stacked else thetas[0]


def qr_fit(X, y, tau):
    """Coefficients minimizing the pinball loss at level ``tau``: a fan of one tau."""
    return qr_fit_fan(X, y, [tau])[0]


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
