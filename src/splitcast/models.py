"""Ordinary least squares fitting of the expert models."""

import numpy as np

from .errors import DegenerateDesignError, ShapeMismatchError, TooFewRowsError
from .features import design_rows, targets


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


def expert_design(spec, data, days):
    """Design rows and targets of ``spec`` for ``days``, whose last entry is the
    target day.  The sample before it is validated here, once, so the fits on
    its subsets go straight to :func:`ols_fit`."""
    X, _ = design_rows(spec, data, days)
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
