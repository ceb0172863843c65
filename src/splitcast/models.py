"""Ordinary least squares fitting of the expert models, by one engine:
:func:`ols_fit` fits designs on all their rows (the point forecasts),
:func:`window_fits` on every window of consecutive rows (historical
simulation) and :func:`ols_fits` on given row sets (random splits).  All
go through one batched solve of the normal equations, with a guard that
refits each ill-conditioned fit by ``np.linalg.lstsq``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError

# smallest Cholesky pivot of a unit diagonal Gram matrix that stays batched; a
# pivot is 1 - R^2 of its column on the columns before it, within the fit's rows
_MIN_PIVOT = 1e-6


def min_rows(p):
    """Rows a fit of ``p`` regressors needs: 2 per regressor."""
    return 2 * p


def check_rows(n, p):
    """Raise TooFewRowsError when ``n`` rows are short of :func:`min_rows` ``p``."""
    if n < min_rows(p):
        raise TooFewRowsError(f"{n} rows for {p} regressors, need at least {min_rows(p)}")


def check_design(X, y=None):
    """Shared fit preconditions: finite values, enough rows, no dead column."""
    if X.ndim != 2:
        raise ShapeMismatchError(f"design must be 2-D, got shape {X.shape}")
    n, p = X.shape
    check_rows(n, p)
    if not np.all(np.isfinite(X)):
        raise DegenerateDesignError("non finite values in design matrix")
    dead = np.flatnonzero(~X.any(axis=0))
    if dead.size:
        raise DegenerateDesignError(f"all zero design column(s) at {dead.tolist()}")
    if y is not None:
        if y.shape != (n,):
            raise ShapeMismatchError(f"targets shape {y.shape} does not match {n} rows")
        if not np.all(np.isfinite(y)):
            raise DegenerateDesignError("non finite values in targets")


def ols_fit(X, y):
    """Least squares coefficients of ``y`` on all rows of ``X``: (p,) for one
    design (n, p) with targets (n,), (H, p) for a stack (H, n, p) with
    targets (H, n).  A design's fit is the one window of :func:`window_fits`
    over its n rows, so it gets the same bits alone and in a stack; a
    singular design gets the minimum norm solution of ``np.linalg.lstsq``.

    Unchecked: validate the sample once with :func:`check_design`.
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, p = X.shape[-2:]
    return window_fits(X.reshape(-1, n, p), y.reshape(-1, n), n)[0].reshape(*X.shape[:-2], p)


def ols_fits(X, y, rows):
    """Least squares coefficients of ``y`` on ``X`` over each row of ``rows``,
    for a stack ``X`` (H, n, p) with targets ``y`` (H, n) and the sorted
    sample rows of each fit, (fits, k): ``(coefficients (H, fits, p),
    fallback flags (H, fits))``, flagged where ``np.linalg.lstsq`` refitted
    the fit.  The fits' rows are gathered, H * fits * k * (p + 1) floats,
    so the caller bounds the stack's size.

    Unchecked, like :func:`ols_fit`.
    """
    return _fits(np.take(X, rows, axis=1).swapaxes(-1, -2), np.take(y, rows, axis=1))


def window_fits(X, y, inner):
    """Least squares coefficients of ``y`` on ``X`` over every window of
    ``inner`` consecutive rows, for a stack ``X`` (H, n, p) with targets
    ``y`` (H, n): ``(coefficients (H, n - inner + 1, p), fallback flags
    (H, n - inner + 1))``, window ``j`` covering rows ``j .. j + inner - 1``.
    The windows are views of ``X``, nothing is gathered, and a window's fit
    gets the same bits at any offset in a longer run of rows.

    Unchecked, like :func:`ols_fit`.
    """
    return _fits(sliding_window_view(X, inner, axis=1), sliding_window_view(y, inner, axis=1))


def _fits(A, b):
    """Coefficients of the fits whose rows are the columns of ``A`` (H, fits,
    p, k), with targets ``b`` (H, fits, k), and the (H, fits) flags of the
    fits that ``np.linalg.lstsq`` redid.

    A fit's normal equations are one product of its own rows, so it gets
    the same bits alone, among other fits and in a stack of designs; each
    Gram matrix is scaled to a unit diagonal.  A column that is zero on all
    of a fit's rows gets a unit pivot and a zero right hand side, so its
    coefficient is 0: the minimum norm answer of ``np.linalg.lstsq``.  A fit
    whose Cholesky factor fails or has a pivot below ``_MIN_PIVOT`` is
    refitted by ``np.linalg.lstsq``.
    """
    gram = A @ A.swapaxes(-1, -2)
    rhs = (A @ b[..., None])[..., 0]
    p = gram.shape[-1]
    diag = gram.reshape(*gram.shape[:2], p * p)[..., ::p + 1]
    scale = np.sqrt(diag)
    scale[scale == 0.0] = 1.0
    gram /= scale[..., :, None]
    gram /= scale[..., None, :]
    diag[...] = 1.0  # the unit pivot of a dead column; 1 up to rounding elsewhere
    bad = ~_well_conditioned(gram)
    gram[bad] = np.eye(p)  # a solvable stand-in: lstsq redoes these fits
    coef = np.linalg.solve(gram, (rhs / scale)[..., None])[..., 0]
    coef /= scale
    for h, i in zip(*np.nonzero(bad)):
        coef[h, i] = np.linalg.lstsq(A[h, i].T, b[h, i], rcond=None)[0]
    return coef, bad


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
