"""Wind farm bidding: per MWh profit, bid fraction choice, stopping rule.

A producer with point forecast ``w_hat`` for its wind in feed bids the
fraction ``q`` of it on the day ahead market and settles the imbalance
against the intraday price.  Per MWh of realized wind the profit is

    pi(q) = q (w_hat / w) DA + (1 - q w_hat / w) ID - c_om

and exactly zero when realized wind is zero.  Applying this member wise to
a joint (DA, ID, W) ensemble turns the predictive distribution into a
profit distribution per candidate q, from which the bid is chosen:

* ``epi``: maximize the pool median,
* ``var``: maximize the pool 5% quantile,
* ``sr``: maximize mean over standard deviation (ddof 1).

Ties go to the smallest q.  The stopping rule curtails the hour when the
chosen pool's tau quantile is negative; tau = 1 means never curtail.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyEnsembleError, MisalignedError
from .ensembles import interpolated_quantile, interpolated_quantiles

C_OM_DEFAULT = 10.0
Q_GRID_DEFAULT = np.round(np.arange(101) / 100.0, 2)
Q_GRID_DEFAULT.flags.writeable = False

STRATEGIES = ("epi", "var", "sr")


def _per_mwh(q, w_hat, w, da, idp, c_om):
    """Per MWh profit ``q (w_hat / w) DA + (1 - q w_hat / w) ID - c_om``,
    exactly zero unless ``w > 0``.

    The arguments broadcast against each other, ``w`` is 1-D along the
    result's last axis, and ``q`` times ``w`` takes the result's shape.
    The result is computed in place, in it and one more array of its shape.
    """
    pos = w > 0.0
    ratio = np.divide(w_hat, w, out=np.zeros(np.broadcast(w_hat, w).shape), where=pos)
    qw = np.multiply(q, ratio)
    profit = np.multiply(qw, da)
    np.subtract(1.0, qw, out=qw)
    qw *= idp
    profit += qw
    profit -= c_om
    profit[..., ~pos] = 0.0
    return profit


def realized_profit(q, w_hat, w, da, idp, c_om=C_OM_DEFAULT):
    """Per MWh profit from realized wind; zero wind yields exactly zero."""
    return float(_per_mwh(*np.atleast_1d(q, w_hat, w, da, idp), c_om)[0])


def plant_profit(q, w_hat, w, da, idp, c_om=C_OM_DEFAULT):
    """Whole plant profit: q w_hat DA + (w - q w_hat) ID - w c_om."""
    return q * w_hat * da + (w - q * w_hat) * idp - w * c_om


def profit_pools(ens, w_hat, q_grid=Q_GRID_DEFAULT, c_om=C_OM_DEFAULT):
    """Member profits for every candidate q; shape (len(q_grid), M)."""
    da, idp, w = (np.ascontiguousarray(ens.column(v)) for v in ("DA", "ID", "W"))
    q = np.asarray(q_grid, dtype=np.float64)[:, None]
    return _per_mwh(q, float(w_hat), w, da, idp, float(c_om))


@dataclass(frozen=True)
class TradeDecision:
    strategy: str
    q: float
    curtail: bool = False
    tau: float = None
    criterion: float = None
    stop_quantile: float = None
    degenerate_sr: bool = False


def choose_q(strategy, pools, q_grid=Q_GRID_DEFAULT, var_level=0.05, sorted_pools=None):
    """Pick the bid fraction maximizing the strategy criterion.

    ``pools`` is the (len(q_grid), M) profit member matrix.  The quantile
    criteria read ``sorted_pools``, the pools sorted along each row, when
    the caller has it; ``sr`` reads the pools in member order.  An all zero
    dispersion makes ``sr`` undefined; it falls back to the ``epi`` rule
    and flags the decision.
    """
    pools = np.asarray(pools, dtype=np.float64)
    q_grid = np.asarray(q_grid, dtype=np.float64)
    if pools.ndim != 2 or pools.shape[0] != q_grid.size:
        raise EmptyEnsembleError(
            f"pool matrix {pools.shape} does not match {q_grid.size} candidate bids")
    presorted = sorted_pools is not None
    ordered = sorted_pools if presorted else pools
    degenerate = False
    if strategy == "epi":
        crit = interpolated_quantiles(ordered, 0.5, presorted)
    elif strategy == "var":
        crit = interpolated_quantiles(ordered, var_level, presorted)
    elif strategy == "sr":
        if pools.shape[1] < 2:
            raise EmptyEnsembleError("sr needs at least two members")
        stds = pools.std(axis=1, ddof=1)
        if np.all(stds == 0.0):
            degenerate = True
            crit = interpolated_quantiles(ordered, 0.5, presorted)
        else:
            means = pools.mean(axis=1)
            crit = np.where(stds > 0.0, means / np.where(stds > 0.0, stds, 1.0), -np.inf)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    j = int(np.argmax(crit))  # first maximum: ties resolve to the smallest q
    return TradeDecision(strategy=strategy, q=float(q_grid[j]),
                         criterion=float(crit[j]), degenerate_sr=degenerate)


def stopping_rule(decision, pool_at_q, tau, presorted=False):
    """Curtail when the profit pool's tau quantile is negative.

    ``tau = 1`` is read as never curtail and reproduces the plain decision.
    ``presorted`` says ``pool_at_q`` is already in ascending order.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau {tau} outside (0, 1]")
    if tau >= 1.0:
        return replace(decision, tau=1.0, curtail=False, stop_quantile=None)
    q_tau = interpolated_quantile(pool_at_q, tau, presorted)
    return replace(decision, tau=float(tau), curtail=bool(q_tau < 0.0), stop_quantile=q_tau)


def naive_decision(mode, realized_da=None):
    """Benchmarks: always bid everything; ``limited`` curtails at DA < 0.

    The limited variant models a bid with price floor zero: the order does
    not fill when the day ahead price settles strictly below zero.
    """
    if mode == "naive":
        return TradeDecision(strategy="naive", q=1.0)
    if mode == "limited":
        if realized_da is None:
            raise ValueError("limited mode needs the realized day ahead price")
        return TradeDecision(strategy="limited", q=1.0, curtail=bool(realized_da < 0.0))
    raise ValueError(f"unknown naive mode {mode!r}")


@dataclass(frozen=True)
class StrategyOutcome:
    profits: np.ndarray
    traded: np.ndarray
    trade_frequency: float
    avg_profit: float
    profit_per_trade: float
    var5: float
    n_trades: int


def evaluate_strategy(decisions, da, idp, w, w_hat, c_om=C_OM_DEFAULT):
    """Realized outcome of a decision stream.

    Curtailed hours contribute zero profit to the overall average; per
    trade statistics run over traded hours only and are NaN when every
    hour was curtailed.
    """
    da = np.asarray(da, dtype=np.float64).ravel()
    idp = np.asarray(idp, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    w_hat = np.asarray(w_hat, dtype=np.float64).ravel()
    n = da.size
    if not (idp.size == w.size == w_hat.size == n and len(decisions) == n):
        raise MisalignedError("decision stream and realized arrays differ in length")
    traded = np.array([not dec.curtail for dec in decisions], dtype=bool)
    profits = _per_mwh(np.array([dec.q for dec in decisions], dtype=np.float64),
                       w_hat, w, da, idp, c_om)
    profits[~traded] = 0.0
    n_trades = int(traded.sum())
    if n_trades == 0:
        per_trade = float("nan")
        var5 = float("nan")
    else:
        traded_profits = profits[traded]
        per_trade = float(traded_profits.mean())
        var5 = float(traded_profits[0]) if n_trades == 1 else \
            interpolated_quantile(traded_profits, 0.05)
    return StrategyOutcome(
        profits=profits, traded=traded,
        trade_frequency=float(n_trades / n),
        avg_profit=float(profits.mean()),
        profit_per_trade=per_trade,
        var5=var5,
        n_trades=n_trades,
    )


def relative_pct(value, base):
    """Percentage difference against a benchmark, NaN when degenerate."""
    if base == 0.0 or not np.isfinite(base) or not np.isfinite(value):
        return float("nan")
    return 100.0 * (value - base) / base
