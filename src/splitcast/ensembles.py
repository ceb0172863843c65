"""Joint forecast ensembles built by resampling model errors.

Two constructions share the same carrier type:

* historical simulation: a moving inner window walks through the training
  sample, each step refits the models one day ahead and keeps the whole
  error vector of that day;

* split resampling: the training sample is split at random into an
  estimation and a calibration part, the models are fitted on the
  estimation days and their joint calibration errors are recentred on the
  target day point forecast.  Repeating the split N times and pooling the
  members gives the multiple split ensemble.

Splits operate on whole days so the cross variable and cross hour error
structure of a day survives inside each member.  In ``corr`` mode all
variables share the same split plans; ``uncorr`` mode draws independent
plans per variable, which deliberately destroys cross variable
correlation.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyEnsembleError
from .features import KINDS, ModelSpec, design_rows, row_length, targets
from .models import check_design, check_rows, ols_fits, window_fits
from .panel import DERIVED

# floats of one block of hours' fits (about 1 MB): their Gram matrices,
# Cholesky factors and errors, and for split fits the gathered rows
# (``_hours_per_block``); a block holds at least one whole hour
_BLOCK_FLOATS = 1 << 17


@dataclass(frozen=True)
class SplitPlan:
    """One random partition of the sample days (panel day indices)."""

    estimation_days: np.ndarray
    calibration_days: np.ndarray

    def __post_init__(self):
        self.estimation_days.flags.writeable = False
        self.calibration_days.flags.writeable = False


@dataclass(frozen=True)
class ForecastEnsemble:
    """Members of a joint predictive distribution for one (day, hour).

    ``members`` has one row per member and one column per variable.
    """

    variables: tuple
    members: np.ndarray
    target_date: object
    hour: int
    meta: dict

    def __post_init__(self):
        if self.members.ndim != 2 or self.members.shape[1] != len(self.variables):
            raise EmptyEnsembleError(
                f"members shape {self.members.shape} does not match {len(self.variables)} variables")
        if self.members.shape[0] == 0:
            raise EmptyEnsembleError("ensemble has no members")
        self.members.flags.writeable = False

    @property
    def n_members(self):
        return self.members.shape[0]

    def column(self, variable):
        return self.members[:, self._index(variable)]

    def _index(self, variable):
        if isinstance(variable, numbers.Integral):
            return int(variable)
        try:
            return self.variables.index(variable)
        except ValueError:
            raise KeyError(f"variable {variable!r} not in ensemble {self.variables}") from None


def random_split(days, ratio, rng):
    """Uniform random partition of ``days`` into estimation and calibration.

    The estimation part has ``round(ratio * len(days))`` elements (banker's
    rounding); both parts come back sorted, disjoint, and exhaustive.
    """
    days = np.asarray(days, dtype=np.intp)
    n = days.size
    n_estim = round(ratio * n)
    if not 0 < n_estim < n:
        raise ValueError(f"ratio {ratio} leaves an empty side for {n} days")
    perm = rng.permutation(n)
    return SplitPlan(
        estimation_days=np.sort(days[perm[:n_estim]]),
        calibration_days=np.sort(days[perm[n_estim:]]),
    )


def _check_variables(variables):
    variables = tuple(variables)
    if not variables:
        raise EmptyEnsembleError("no variables requested")
    for v in variables:
        if v not in KINDS:
            raise ValueError(f"unknown variable {v!r}, expected one of {KINDS}")
    return variables


def _check_sample(days, target_day):
    """The sample ``days`` sorted; a day it repeats, or one at or after
    ``target_day``, raises ValueError."""
    days = np.sort(np.asarray(days, dtype=np.intp))
    repeated = days[1:][days[1:] == days[:-1]]
    if repeated.size:
        raise ValueError(f"sample day {repeated[0]} appears more than once")
    late = days[days >= target_day]
    if late.size:
        raise ValueError(f"sample day {late[0]} is not before the target day {target_day}")
    return days


def _hours_per_block(n, p, n_fits, fit_rows=None):
    """Hours of one block of ``n_fits`` fits per hour at ``n`` sample rows and
    ``p`` regressors: as many as ``_BLOCK_FLOATS`` holds, at least one.

    A split fit (``fit_rows`` estimation rows) counts the hour's design and
    targets, (n + 1)(p + 1) floats, and per fit its gathered rows and
    targets, Gram matrix, Cholesky factor, and residuals on the ``n`` rows
    with the product they come from.  A window fit (``fit_rows`` None), a
    view of the design, counts its Gram matrix, Cholesky factor and
    coefficients, and an hour its ``n_fits - 1`` errors."""
    if fit_rows is None:
        return max(1, _BLOCK_FLOATS // (n_fits * (2 * p * p + p) + n_fits - 1))
    per_fit = fit_rows * (p + 1) + 2 * p * p + 2 * n
    return max(1, _BLOCK_FLOATS // ((n + 1) * (p + 1) + n_fits * per_fit))


def design_blocks(data, kinds, sample_days, target_day, hours, fit_rows, n_splits=None):
    """``(kind, block hours, X (hours, days, p), y (hours, days))`` stacks of
    the experts of ``kinds`` over the sorted ``sample_days`` and, last,
    ``target_day``: each kind's ``hours`` grouped by row length and cut into
    blocks of ``_hours_per_block``, each hour's sample validated once.  The
    fits are the windows of ``fit_rows`` consecutive rows, or ``n_splits``
    gathered sets of ``fit_rows`` rows; too few rows for some (kind, hour)
    raise TooFewRowsError before the first block."""
    n = len(sample_days)
    check_rows(fit_rows, max((row_length(k, h) for k in kinds for h in hours), default=0))
    all_days = np.append(sample_days, target_day)
    for kind in kinds:
        by_p = {}
        for hour in hours:
            by_p.setdefault(row_length(kind, hour), []).append(hour)
        for p, kind_hours in by_p.items():
            size = (_hours_per_block(n, p, n - fit_rows + 1) if n_splits is None
                    else _hours_per_block(n, p, n_splits, fit_rows))
            for start in range(0, len(kind_hours), size):
                block = kind_hours[start:start + size]
                X = np.empty((len(block), all_days.size, p))
                y = np.empty((len(block), all_days.size))
                for j, hour in enumerate(block):
                    spec = ModelSpec(kind, hour)
                    design_rows(spec, data, all_days, out=X[j])
                    y[j] = targets(spec, data, all_days)
                    check_design(X[j, :-1], y[j, :-1])
                yield kind, block, X, y


def _ensembles_by_hour(data, variables, target_day, hours, blocks, outputs, members_of):
    """One ``{hour: ForecastEnsemble}`` per entry ``(n_members, meta)`` of
    ``outputs``, from the :func:`design_blocks` ``blocks`` of ``variables``.
    ``members_of(v, block_hours, X, y)`` gives, for each output, the members
    of variable ``v`` at the block's hours, (hours, n_members), and the count
    of each hour's fits sent to lstsq, which ``meta["ols_fallbacks"]`` sums."""
    built = [{int(h): [np.empty((n, len(variables))), 0] for h in hours} for n, _ in outputs]
    for v, block, X, y in blocks:
        for by_hour, (columns, counts) in zip(built, members_of(v, block, X, y)):
            for hour, column, count in zip(block, columns, counts):
                by_hour[hour][0][:, variables.index(v)] = column
                by_hour[hour][1] += int(count)
    target_date = data.panel.dates[int(target_day)]
    return [{hour: ForecastEnsemble(variables=variables, members=m, target_date=target_date,
                                    hour=hour, meta=dict(meta, ols_fallbacks=f))
             for hour, (m, f) in by_hour.items()}
            for (_, meta), by_hour in zip(outputs, built)]


def ms_ensembles_for_day(data, variables, sample_days, target_day, hours,
                         n_splits, ratio, rng, mode="corr"):
    """Multiple split ensembles for one target day, batched over hours.

    Split plans are drawn once per (split, variable stream) and shared by
    all hours, matching the whole day split granularity.  ``rng`` is a
    Generator in ``corr`` mode and a sequence of per variable Generators in
    ``uncorr`` mode.  Returns ``{hour: ForecastEnsemble}``.

    ``mode`` may also be a tuple of modes, with ``rng`` the sequence of
    their streams in that order.  Then it returns ``{mode: {hour:
    ForecastEnsemble}}``, each mode's equal to its own call, bit for bit:
    every (variable, hour block) design is built once, and each mode's
    split plans are fitted on it.

    ``sample_days`` must hold distinct days before ``target_day``, else
    ValueError.
    """
    variables = _check_variables(variables)
    sample_days = _check_sample(sample_days, target_day)
    if n_splits < 1:
        raise ValueError("need at least one split")
    single = isinstance(mode, str)
    modes, rngs = ((mode,), (rng,)) if single else (tuple(mode), tuple(rng))
    if not modes or len(set(modes)) != len(modes) or len(rngs) != len(modes):
        raise ValueError(f"modes {modes} need one rng each and no repeats")
    for m, stream in zip(modes, rngs):
        if m not in ("corr", "uncorr"):
            raise ValueError(f"unknown mode {m!r}")
        if m == "uncorr" and len(stream) != len(variables):
            raise ValueError("uncorr mode needs one rng stream per variable")
    n_estim = round(ratio * sample_days.size)

    def split_rows(stream):
        """The sorted estimation and calibration row positions of each split
        in the sample, (splits, estimation days) and (splits, calibration days)."""
        splits = [random_split(sample_days, ratio, stream) for _ in range(n_splits)]
        return (np.searchsorted(sample_days, [plan.estimation_days for plan in splits]),
                np.searchsorted(sample_days, [plan.calibration_days for plan in splits]))

    plans = []  # per mode: variable -> row positions
    for m, stream in zip(modes, rngs):
        if m == "corr":
            shared = split_rows(stream)
            plans.append({v: shared for v in variables})
        else:
            plans.append({v: split_rows(s) for v, s in zip(variables, stream)})

    def members_of(v, block_hours, X, y):
        sample_X, sample_y = X[:, :-1], y[:, :-1]
        for plan in plans:
            fit, calib = plan[v]
            betas, refitted = ols_fits(sample_X, sample_y, fit)  # (hours, splits, p)
            resid = sample_y[:, None] - betas @ sample_X.transpose(0, 2, 1)
            errors = np.take_along_axis(resid, calib[None], axis=2)
            yield ((betas @ X[:, -1, :, None] + errors).reshape(len(X), -1),
                   np.count_nonzero(refitted, axis=1))

    n_calib = sample_days.size - n_estim
    meta = {"calibration_size": int(n_calib)}
    blocks = design_blocks(data, variables, sample_days, target_day, hours, n_estim, n_splits)
    by_mode = _ensembles_by_hour(data, variables, target_day, hours, blocks,
                                 [(n_splits * n_calib, meta)] * len(modes), members_of)
    return by_mode[0] if single else dict(zip(modes, by_mode))


class _Windows(NamedTuple):
    """One (variable, hour)'s historical simulation window fits of a day:
    window ``j`` covers the ``inner`` days from ``first_day + j`` on."""

    first_day: int
    inner: int
    coef: np.ndarray  # (windows, p)
    fallback: np.ndarray  # (windows,) bool: refitted by lstsq


def historical_ensembles_for_day(data, variables, train_days, target_day, hours,
                                 inner_window=None):
    """Historical simulation ensembles for one target day, all hours.

    A window of ``inner_window`` days (default: half the training sample,
    floored) slides over the training days; each position is fitted and the
    next day's joint forecast error becomes one member.  The target point
    forecast comes from the window ending on the last training day.

    A window's fit depends on its own days alone (:func:`models.window_fits`).
    When ``train_days`` are consecutive, the fits are kept in
    ``data.hist_windows``, one day's per (variable, hour), and a later call
    on the same ``data`` takes the windows it shares with them from there,
    at any shift of the days, and fits only the others.

    ``train_days`` must hold distinct days before ``target_day``, else
    ValueError.
    """
    variables = _check_variables(variables)
    train_days = _check_sample(train_days, target_day)
    n = train_days.size
    inner = n // 2 if inner_window is None else int(inner_window)
    if not 0 < inner < n:
        raise ValueError(f"inner window {inner} must be inside the {n} training days")

    # window j covers sample rows j .. j + inner - 1; the last one gives the point forecast
    n_windows = n - inner + 1
    first_day = int(train_days[0])
    carry = data.hist_windows if train_days[-1] - first_day == n - 1 else None

    def kept_windows(v, block_hours):
        """The windows [lo, hi) of this call that the carry holds for ``v``
        at every hour of the block; (0, 0) when there are none."""
        lo, hi = 0, n_windows
        for hour in block_hours:
            kept = None if carry is None else carry.get((v, hour))
            if kept is None or kept.inner != inner:
                return 0, 0
            shift = first_day - kept.first_day
            lo, hi = max(lo, -shift), min(hi, len(kept.coef) - shift)
        return (lo, hi) if lo < hi else (0, 0)

    def members_of(v, block_hours, X, y):
        betas = np.empty((len(block_hours), n_windows, X.shape[2]))
        fallback = np.empty((len(block_hours), n_windows), dtype=bool)
        lo, hi = kept_windows(v, block_hours)
        for k, hour in enumerate(block_hours if lo < hi else ()):
            kept = carry[(v, hour)]
            at = slice(lo + first_day - kept.first_day, hi + first_day - kept.first_day)
            betas[k, lo:hi], fallback[k, lo:hi] = kept.coef[at], kept.fallback[at]
        for a, b in ((0, lo), (hi, n_windows)):  # the windows fitted here
            if a < b:
                rows = slice(a, b + inner - 1)
                betas[:, a:b], fallback[:, a:b] = window_fits(X[:, rows], y[:, rows], inner)
        if carry is not None:
            for k, hour in enumerate(block_hours):
                carry[(v, hour)] = _Windows(first_day, inner, betas[k].copy(), fallback[k].copy())
        errors = y[:, inner:n] - np.einsum("hij,hij->hi", X[:, inner:n], betas[:, :-1])
        members = (X[:, -1, None, :] @ betas[:, -1, :, None])[:, 0] + errors
        return [(members, np.count_nonzero(fallback, axis=1))]

    blocks = design_blocks(data, variables, train_days, target_day, hours, inner)
    return _ensembles_by_hour(data, variables, target_day, hours, blocks, [(n - inner, {})],
                              members_of)[0]


# --------------------------------------------------------------------------
# transformations and summaries


def derived_ensemble(ens, name):
    """The ensemble of a derived series of ``panel.DERIVED``, member by member."""
    if name not in DERIVED:
        raise ValueError(f"no derived rule for {name!r}")
    a, b = DERIVED[name]
    return ForecastEnsemble(variables=(name,), members=(ens.column(a) - ens.column(b))[:, None],
                            target_date=ens.target_date, hour=ens.hour, meta=dict(ens.meta))


def interpolated_quantile(values, tau, presorted=False):
    """:func:`interpolated_quantiles` of one sample at one tau, as a float."""
    return float(interpolated_quantiles(values, tau, presorted))


def interpolated_quantiles(values, taus, presorted=False):
    """Empirical quantiles by linear interpolation of the order statistics.

    Each row along the last axis of ``values`` is one sample; the result has
    the sample's leading axes followed by the axes of ``taus``.  Position
    1 + (n - 1) tau in 1 based indexing; tau = 0 and tau = 1 yield the
    extremes exactly.  ``presorted`` says the samples are already in
    ascending order, which saves the sort.
    """
    v = np.asarray(values, dtype=np.float64)
    if not presorted:
        v = np.sort(v, axis=-1)
    n = v.shape[-1]
    if n < 2:
        raise EmptyEnsembleError("need at least two values to interpolate")
    taus = np.asarray(taus, dtype=np.float64)
    if not np.all((taus >= 0.0) & (taus <= 1.0)):
        raise ValueError(f"tau {taus} outside [0, 1]")
    pos = (n - 1) * taus
    i = pos.astype(np.intp)  # pos <= n - 1, so i indexes the sample
    frac = pos - i
    lo, hi = v[..., i], v[..., np.minimum(i + 1, n - 1)]
    return lo + frac * (hi - lo)
