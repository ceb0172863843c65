"""Ordinary least squares fitting of the expert models.

The ensembles refit one small design on many row subsets: a window per
historical simulation step, an estimation side per random split.
:func:`window_fits` and :func:`ols_fits` batch those refits through the
normal equations, with a guard that sends each ill-conditioned one to
:func:`ols_fit`.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError
from .features import design_rows, targets

# multiply-adds of one masked product: with OpenBLAS 0.3.31 a product of about
# 1.02e6 or more comes out with other bits on 2 threads than on 1; half that
_PRODUCT_SIZE = 1 << 19
# smallest Cholesky pivot of a unit diagonal Gram matrix that stays batched; a
# pivot is 1 - R^2 of its column on the columns before it, within the fit's rows
_MIN_PIVOT = 1e-6


def check_design(X, y=None):
    """Shared fit preconditions: finite values, enough rows, no dead column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"design must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if n < 2 * p:
        raise TooFewRowsError(f"{n} rows for {p} regressors, need at least {2 * p}")
    if not np.all(np.isfinite(X)):
        raise DegenerateDesignError("non finite values in design matrix")
    dead = np.flatnonzero(~X.any(axis=0))
    if dead.size:
        raise DegenerateDesignError(f"all zero design column(s) at {dead.tolist()}")
    if y is not None:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise ShapeMismatchError(f"targets shape {y.shape} does not match {n} rows")
        if not np.all(np.isfinite(y)):
            raise DegenerateDesignError("non finite values in targets")
        return X, y
    return X


def expert_design(spec, data, days, out=None):
    """Design rows and targets of ``spec`` for ``days``, whose last entry is the
    target day; the rows are built in ``out`` when it is given.  The sample
    before the target day is validated here, once, so the fits on its subsets
    go straight to :func:`ols_fit`."""
    X, _ = design_rows(spec, data, days, out)
    y = targets(spec, data, days)
    check_design(X[:-1], y[:-1])
    return X, y


def ols_fit(X, y):
    """Least squares coefficients; the minimum norm solution when the design is
    singular, e.g. a split whose estimation days miss a weekday.

    Unchecked: validate the sample once with :func:`check_design`.
    Deterministic: refitting identical inputs is bit identical.
    """
    return np.linalg.lstsq(X, y, rcond=None)[0]


def packed_products(X):
    """Column products of ``X`` (..., n, p) packed one column per pair i <= j,
    and the (p, p) index array that unpacks a row of them into a symmetric
    matrix: ``(w @ XX)[..., unpack]`` is the Gram matrix of the rows weighted
    by ``w``."""
    *lead, n, p = X.shape
    XX = np.empty((*lead, n, p * (p + 1) // 2))
    k = 0
    for i in range(p):  # slice by slice: no gathered (n, pairs) temporaries
        np.multiply(X[..., i:i + 1], X[..., i:], out=XX[..., k:k + p - i])
        k += p - i
    iu = np.triu_indices(p)
    unpack = np.empty((p, p), dtype=np.intp)
    unpack[iu] = unpack.T[iu] = np.arange(iu[0].size)
    return XX, unpack


def ols_fits(X, y, masks, products=None):
    """Least squares coefficients of ``y`` on ``X`` over the rows each 0/1 row
    of ``masks`` selects.  For one design ``X`` (n, p) with targets ``y`` (n,)
    it returns ``(coefficients of shape (len(masks), p), number of fits sent
    to ols_fit)``; for a stack ``X`` (H, n, p) with targets ``y`` (H, n),
    whose designs share the masks, ``(coefficients (H, len(masks), p), fits
    sent to ols_fit per design (H,))``.  ``products`` is the stack's
    :func:`packed_products`, when the caller fits several sets of masks on it.

    Every fit of the stack is solved by :func:`_solve_normal_equations`, in
    one batched solve, so the caller bounds the stack's size.

    Unchecked, like :func:`ols_fit`.
    """
    stacked = X.ndim == 3
    if not stacked:
        X, y = X[None], y[None]
    XX, unpack = packed_products(X) if products is None else products
    m = np.asarray(masks, dtype=np.float64)
    gram = _masked_sums(m, XX)[..., unpack]  # (H, fits, p, p)
    del XX  # as large as the Gram matrices: when made here, freed before they are factorized
    # zero on a dead column: its products are exact zeros
    rhs = _masked_sums(m, X * y[:, :, None])

    def refit(h, i):
        rows = m[i] != 0.0
        return ols_fit(X[h, rows], y[h, rows])

    coef, bad = _solve_normal_equations(gram, rhs, refit)
    fallbacks = np.count_nonzero(bad, axis=1)
    return (coef, fallbacks) if stacked else (coef[0], int(fallbacks[0]))


def window_fits(X, y, inner):
    """Least squares coefficients of ``y`` on ``X`` over every window of
    ``inner`` consecutive rows, for a stack ``X`` (H, n, p) with targets
    ``y`` (H, n): ``(coefficients (H, n - inner + 1, p), fallback flags
    (H, n - inner + 1))``, window ``j`` covering rows ``j .. j + inner - 1``
    and flagged where :func:`ols_fit` refitted it.

    A window's normal equations are one product of its own rows alone, so
    its fit does not depend on the rows around it: the same rows give the
    same bits alone, in a longer run of rows, and at any offset.

    Unchecked, like :func:`ols_fit`.
    """
    windows = sliding_window_view(X, inner, axis=1)  # (H, windows, p, inner), no copy
    gram = windows @ windows.swapaxes(-1, -2)  # one product per window
    rhs = (windows @ sliding_window_view(y, inner, axis=1)[..., None])[..., 0]

    def refit(h, j):
        return ols_fit(X[h, j:j + inner], y[h, j:j + inner])

    return _solve_normal_equations(gram, rhs, refit)


def _solve_normal_equations(gram, rhs, refit):
    """Coefficients of the normal equations ``gram`` (H, fits, p, p) and
    ``rhs`` (H, fits, p), and the (H, fits) flags of the fits that
    ``refit(h, i)`` redid.

    All fits are scaled to a unit diagonal and solved in one batched solve.
    A column that is zero on all of a fit's rows gets a unit pivot and a
    zero right hand side, so its coefficient is 0: the minimum norm answer
    of :func:`ols_fit`.  A fit whose Cholesky factor fails or has a pivot
    below ``_MIN_PIVOT`` is refitted by ``refit``, :func:`ols_fit` on its
    rows.  ``gram`` is overwritten.
    """
    p = gram.shape[-1]
    diag = gram.reshape(*gram.shape[:2], p * p)[..., ::p + 1]
    scale = np.sqrt(diag)
    scale[scale == 0.0] = 1.0
    gram /= scale[..., :, None]
    gram /= scale[..., None, :]
    diag[...] = 1.0  # the unit pivot of a dead column; 1 up to rounding elsewhere
    bad = ~_well_conditioned(gram)
    gram[bad] = np.eye(p)  # a solvable stand-in: refit redoes these fits
    coef = np.linalg.solve(gram, (rhs / scale)[..., None])[..., 0]
    coef /= scale
    for h, i in zip(*np.nonzero(bad)):
        coef[h, i] = refit(h, i)
    return coef, bad


def _masked_sums(m, A):
    """``m @ A`` for masks ``m`` (fits, n) and a stack ``A`` (H, n, k), taken in
    products of a few rows of ``m`` each, small enough that BLAS runs them
    on one thread: the bits then do not depend on the BLAS thread count."""
    out = np.empty((A.shape[0], len(m), A.shape[2]))
    rows = max(1, _PRODUCT_SIZE // (A.shape[1] * A.shape[2]))
    for s in range(0, len(m), rows):
        np.matmul(m[s:s + rows], A, out=out[:, s:s + rows])
    return out


def _well_conditioned(gram):
    """Per matrix of the stack (..., p, p): its Cholesky factor exists and has
    no pivot below ``_MIN_PIVOT``."""
    try:
        pivots = np.einsum("...ii->...i", np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:  # some matrix is not positive definite: find which
        flat = gram.reshape(-1, *gram.shape[-2:])
        pivots = np.zeros(flat.shape[:2])
        for i, g in enumerate(flat):
            try:
                pivots[i] = np.diag(np.linalg.cholesky(g)) ** 2
            except np.linalg.LinAlgError:
                pass
        pivots = pivots.reshape(gram.shape[:-1])
    return pivots.min(axis=-1) >= _MIN_PIVOT
