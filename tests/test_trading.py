"""Bidding arithmetic, strategy selection, stopping, and realized outcomes."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcast.ensembles import ForecastEnsemble, interpolated_quantile
from splitcast.errors import EmptyEnsembleError, MisalignedError
from splitcast.trading import (
    Q_GRID_DEFAULT,
    STRATEGIES,
    TradeDecision,
    choose_q,
    evaluate_strategy,
    naive_decision,
    plant_profit,
    profit_pools,
    realized_profit,
    relative_pct,
    stopping_rule,
)


def _joint(rng, m=60, id_equals_da=False, price_loc=40.0, price_scale=15.0):
    da = rng.normal(price_loc, price_scale, m)
    idp = da.copy() if id_equals_da else da + rng.normal(0.0, 8.0, m)
    w = np.abs(rng.normal(12.0, 4.0, m)) + 0.5
    return ForecastEnsemble(
        variables=("DA", "ID", "W"),
        members=np.column_stack([da, idp, w]),
        target_date=dt.date(2020, 3, 14),
        hour=11,
        meta={},
    )


def _per_mwh_loop(q, w_hat, w, da, idp, c_om=10.0):
    """The per MWh profit of one member or hour, written out."""
    if w <= 0.0:
        return 0.0
    qw = q * (w_hat / w)
    return (qw * da + (1.0 - qw) * idp) - c_om


def test_realized_profit_values():
    # q w_hat/w = 0.4: 0.4*50 + 0.6*30 - 10
    assert realized_profit(0.5, 8.0, 10.0, 50.0, 30.0) == pytest.approx(28.0, rel=1e-12)
    assert realized_profit(0.0, 8.0, 10.0, 50.0, 30.0) == pytest.approx(20.0, rel=1e-12)
    assert realized_profit(0.5, 8.0, float("nan"), 50.0, 30.0) == 0.0


def test_realized_profit_zero_wind_is_exactly_zero():
    assert realized_profit(0.7, 10.0, 0.0, 55.0, 44.0) == 0.0
    assert realized_profit(0.7, 10.0, -3.0, 55.0, 44.0) == 0.0
    got = realized_profit(0.7, 10.0, 8.0, 55.0, 44.0)
    assert got == _per_mwh_loop(0.7, 10.0, 8.0, 55.0, 44.0)


@settings(max_examples=300, deadline=None)
@given(
    q=st.floats(0.0, 1.0),
    w_hat=st.floats(0.0, 60.0),
    w=st.floats(0.01, 60.0),
    da=st.floats(-150.0, 150.0),
    idp=st.floats(-150.0, 150.0),
)
def test_plant_profit_is_wind_times_per_mwh(q, w_hat, w, da, idp):
    whole = plant_profit(q, w_hat, w, da, idp)
    per_mwh = realized_profit(q, w_hat, w, da, idp)
    assert whole == pytest.approx(w * per_mwh, rel=1e-9, abs=1e-9)


def test_plant_profit_zero_wind():
    # With w = 0 the plant formula still charges the imbalance leg.
    assert plant_profit(0.5, 10.0, 0.0, 50.0, 30.0) == pytest.approx(
        0.5 * 10.0 * 50.0 - 0.5 * 10.0 * 30.0)
    assert realized_profit(0.5, 10.0, 0.0, 50.0, 30.0) == 0.0


def test_profit_pools_matches_scalar_oracle(rng):
    m = 120
    da = rng.normal(35.0, 20.0, m)
    idp = da + rng.normal(0.0, 9.0, m)
    w = rng.normal(8.0, 6.0, m)  # some members land at w <= 0
    w[::17] = 0.0
    ens = ForecastEnsemble(variables=("DA", "ID", "W"), members=np.column_stack([da, idp, w]),
                           target_date=dt.date(2020, 3, 14), hour=4, meta={})
    pools = profit_pools(ens, 7.5)
    assert pools.shape == (Q_GRID_DEFAULT.size, m)
    for j in range(Q_GRID_DEFAULT.size):
        for i in range(m):
            assert pools[j, i] == _per_mwh_loop(Q_GRID_DEFAULT[j], 7.5, w[i], da[i], idp[i])


def test_profit_pools_zero_wind_members_exact(rng):
    members = np.column_stack([
        rng.normal(40.0, 10.0, 12),
        rng.normal(40.0, 10.0, 12),
        np.where(np.arange(12) % 3 == 0, 0.0, 9.0),
    ])
    ens = ForecastEnsemble(variables=("DA", "ID", "W"), members=members,
                           target_date=dt.date(2020, 3, 14), hour=4, meta={})
    pools = profit_pools(ens, 7.0)
    dead = np.arange(12) % 3 == 0
    assert np.all(pools[:, dead] == 0.0)
    assert np.all(pools[:, ~dead] != 0.0)


def test_choose_q_epi_matches_median_oracle(rng):
    pools = rng.normal(5.0, 20.0, (Q_GRID_DEFAULT.size, 51))
    dec = choose_q("epi", pools)
    medians = np.array([interpolated_quantile(row, 0.5) for row in pools])
    j = int(np.argmax(medians))
    assert dec.q == Q_GRID_DEFAULT[j]
    assert dec.criterion == medians[j]
    assert dec.strategy == "epi" and not dec.degenerate_sr


def test_choose_q_var_quantile_oracle(rng):
    pools = rng.normal(5.0, 20.0, (Q_GRID_DEFAULT.size, 51))
    for level in (0.05, 0.2):
        dec = choose_q("var", pools, var_level=level)
        crit = np.array([interpolated_quantile(row, level) for row in pools])
        assert dec.q == Q_GRID_DEFAULT[int(np.argmax(crit))]
        assert dec.criterion == crit.max()


def test_choose_q_sr_oracle_and_degenerate(rng):
    pools = rng.normal(5.0, 20.0, (Q_GRID_DEFAULT.size, 51))
    dec = choose_q("sr", pools)
    crit = pools.mean(axis=1) / pools.std(axis=1, ddof=1)
    assert dec.q == Q_GRID_DEFAULT[int(np.argmax(crit))]
    assert dec.criterion == pytest.approx(crit.max(), rel=1e-12)
    # an all zero pool (every member at zero wind) has no spread anywhere;
    # the ratio is undefined and the median rule takes over
    flat = np.zeros((Q_GRID_DEFAULT.size, 10))
    dec = choose_q("sr", flat)
    assert dec.degenerate_sr
    assert dec.q == choose_q("epi", flat).q == 0.0


def test_choose_q_sr_skips_constant_rows(rng):
    # a riskless row with huge mean would win on mean alone; zero spread
    # removes it from the ratio ranking
    pools = rng.normal(2.0, 6.0, (Q_GRID_DEFAULT.size, 30))
    pools[17] = 1000.0
    dec = choose_q("sr", pools)
    assert dec.q != Q_GRID_DEFAULT[17]
    assert not dec.degenerate_sr


def test_choose_q_tie_resolves_to_smallest_q(rng):
    pools = rng.normal(0.0, 1.0, (Q_GRID_DEFAULT.size, 21))
    best = pools.max(axis=1).max() + np.arange(21) / 20.0
    pools[30] = best
    pools[60] = best
    for strat in STRATEGIES:
        assert choose_q(strat, pools).q == Q_GRID_DEFAULT[30]


def test_choose_q_validation(rng):
    with pytest.raises(EmptyEnsembleError):
        choose_q("epi", rng.normal(size=(5, 3)))
    with pytest.raises(ValueError):
        choose_q("mystery", rng.normal(size=(Q_GRID_DEFAULT.size, 3)))
    with pytest.raises(EmptyEnsembleError):
        choose_q("sr", rng.normal(size=(Q_GRID_DEFAULT.size, 1)))
    with pytest.raises(EmptyEnsembleError):
        choose_q("epi", rng.normal(size=(Q_GRID_DEFAULT.size, 1)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.sampled_from([0.0, 0.2, 1.0]),
       st.sampled_from([0.01, 0.05, 0.5]))
def test_one_sort_decisions_equal_the_raw_pool_decisions(seed, m, dead_share, var_level):
    """Reading every quantile off one sort of the hour's pools gives the very
    decisions of ``choose_q`` and ``stopping_rule`` on the raw pools, with
    tied prices and zero wind members, and when every member has zero wind
    (the degenerate sr fallback)."""
    rng = np.random.default_rng(seed)
    da = np.round(rng.normal(40.0, 15.0, m))  # whole prices: many ties
    idp = np.where(rng.random(m) < 0.3, da, np.round(rng.normal(40.0, 18.0, m)))
    w = np.where(rng.random(m) < dead_share, -rng.random(m) * (rng.random(m) < 0.5),
                 np.round(rng.uniform(0.5, 20.0, m)))
    ens = ForecastEnsemble(variables=("DA", "ID", "W"), members=np.column_stack([da, idp, w]),
                           target_date=dt.date(2020, 3, 14), hour=11, meta={})
    pools = profit_pools(ens, float(np.round(rng.uniform(0.0, 15.0))))
    ordered = np.sort(pools, axis=1)
    for strategy in STRATEGIES:
        base = choose_q(strategy, pools, Q_GRID_DEFAULT, var_level, ordered)
        assert base == choose_q(strategy, pools, Q_GRID_DEFAULT, var_level)
        assert base.degenerate_sr == (strategy == "sr" and np.all(w <= 0.0))
        j = int(round(base.q * 100))
        for tau in (0.05, 0.3, 0.5, 0.7, 0.95, 1.0):
            assert (stopping_rule(base, ordered[j], tau, presorted=True)
                    == stopping_rule(base, pools[j], tau))


def test_stopping_tau_one_is_bit_exact_no_stopping(rng):
    base_profits = None
    for case in range(2):
        decisions, stopped = [], []
        n = 50
        da = rng.normal(20.0, 30.0, n)
        idp = da + rng.normal(0.0, 10.0, n)
        w = np.abs(rng.normal(10.0, 3.0, n)) + 0.2
        w_hat = np.abs(w + rng.normal(0.0, 2.0, n))
        for _ in range(n):
            pools = rng.normal(-2.0, 15.0, (Q_GRID_DEFAULT.size, 40))
            dec = choose_q("epi", pools)
            decisions.append(dec)
            row = pools[int(round(dec.q * 100))]
            stopped.append(stopping_rule(dec, row, 1.0))
        for dec in stopped:
            assert dec.tau == 1.0 and dec.curtail is False and dec.stop_quantile is None
        plain = evaluate_strategy(decisions, da, idp, w, w_hat)
        ruled = evaluate_strategy(stopped, da, idp, w, w_hat)
        assert np.array_equal(plain.profits, ruled.profits)
        assert np.array_equal(plain.traded, ruled.traded)
        assert plain.avg_profit == ruled.avg_profit
        assert plain.profit_per_trade == ruled.profit_per_trade
        base_profits = plain.profits if case == 0 else base_profits


def test_stopping_quantile_sign_controls_curtailment():
    dec = TradeDecision(strategy="epi", q=0.5)
    pool = np.array([2.0, -5.0, 8.0, -1.0])
    low = stopping_rule(dec, pool, 0.25)
    assert low.curtail and low.tau == 0.25
    assert low.stop_quantile == interpolated_quantile(pool, 0.25)
    high = stopping_rule(dec, pool, 0.9)
    assert not high.curtail
    assert high.stop_quantile == interpolated_quantile(pool, 0.9)


def test_stopping_tau_validation():
    dec = TradeDecision(strategy="epi", q=0.5)
    pool = np.array([1.0, 2.0])
    for tau in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            stopping_rule(dec, pool, tau)


def test_trade_frequency_monotone_in_tau(rng):
    dec = TradeDecision(strategy="epi", q=1.0)
    pools = [rng.normal(rng.uniform(-6.0, 6.0), 10.0, 80) for _ in range(200)]
    taus = (0.05, 0.2, 0.4, 0.7, 0.95)
    curtailed = [sum(stopping_rule(dec, p, t).curtail for p in pools) for t in taus]
    # raising tau moves the tested quantile up, so stopping can only relax
    assert all(a >= b for a, b in zip(curtailed, curtailed[1:]))
    assert curtailed[0] > curtailed[-1]


def test_naive_decisions():
    dec = naive_decision("naive")
    assert dec.q == 1.0 and not dec.curtail
    assert naive_decision("limited", realized_da=-0.01).curtail
    assert not naive_decision("limited", realized_da=0.0).curtail
    with pytest.raises(ValueError):
        naive_decision("limited")
    with pytest.raises(ValueError):
        naive_decision("market")


def test_evaluate_strategy_hand_fixture():
    decisions = [
        TradeDecision(strategy="epi", q=0.5),
        TradeDecision(strategy="epi", q=0.5, curtail=True),
        TradeDecision(strategy="epi", q=1.0),
        TradeDecision(strategy="epi", q=0.8),
    ]
    da = [50.0, 40.0, 30.0, -20.0]
    idp = [30.0, 35.0, 25.0, -5.0]
    w = [10.0, 8.0, 0.0, 5.0]
    w_hat = [8.0, 8.0, 2.0, 5.0]
    out = evaluate_strategy(decisions, da, idp, w, w_hat)
    assert out.profits == pytest.approx([28.0, 0.0, 0.0, -27.0], rel=1e-12)
    assert out.profits[1] == 0.0 and out.profits[2] == 0.0
    assert list(out.traded) == [True, False, True, True]
    assert out.n_trades == 3 and out.trade_frequency == 0.75
    # curtailed hours stay in the overall average at exactly zero
    assert out.avg_profit == pytest.approx((28.0 - 27.0) / 4.0, rel=1e-12)
    assert out.profit_per_trade == pytest.approx((28.0 - 27.0) / 3.0, rel=1e-12)
    assert out.var5 == pytest.approx(-24.3, rel=1e-12)


def test_evaluate_strategy_no_trades():
    decisions = [TradeDecision(strategy="var", q=0.3, curtail=True)] * 3
    arrays = ([10.0] * 3,) * 4
    out = evaluate_strategy(decisions, *arrays)
    assert out.n_trades == 0 and out.trade_frequency == 0.0
    assert out.avg_profit == 0.0
    assert np.isnan(out.profit_per_trade) and np.isnan(out.var5)


def test_evaluate_strategy_single_trade_var5():
    decisions = [TradeDecision(strategy="epi", q=1.0),
                 TradeDecision(strategy="epi", q=1.0, curtail=True)]
    out = evaluate_strategy(decisions, [50.0, 50.0], [30.0, 30.0],
                            [10.0, 10.0], [10.0, 10.0])
    assert out.n_trades == 1
    assert out.var5 == out.profits[0] == out.profit_per_trade


def test_evaluate_strategy_misaligned():
    decisions = [TradeDecision(strategy="epi", q=1.0)] * 3
    with pytest.raises(MisalignedError):
        evaluate_strategy(decisions, [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(MisalignedError):
        evaluate_strategy(decisions, [1.0] * 3, [1.0] * 3, [1.0] * 2, [1.0] * 3)


_HOURS = st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),  # q
    st.booleans(),  # curtail
    st.one_of(st.just(0.0), st.floats(-20.0, -1e-3), st.floats(1e-3, 40.0)),  # w
    st.floats(0.0, 40.0),  # w_hat
    st.floats(-300.0, 300.0),  # DA
    st.floats(-300.0, 300.0),  # ID
), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_HOURS)
def test_evaluate_strategy_equals_an_hourly_loop(hours):
    """The hourly profits are, bit for bit, the written-out formula of each
    traded hour and exactly zero for curtailed and windless hours."""
    q, curtail, w, w_hat, da, idp = map(list, zip(*hours))
    decisions = [TradeDecision(strategy="epi", q=qi, curtail=c) for qi, c in zip(q, curtail)]
    out = evaluate_strategy(decisions, da, idp, w, w_hat)
    want = [0.0 if c else _per_mwh_loop(qi, wh, wi, d, i) for qi, c, wi, wh, d, i in hours]
    assert out.profits.tolist() == want
    assert out.traded.tolist() == [not c for c in curtail]


def test_profits_equal_when_both_markets_settle_identically(rng):
    # q becomes irrelevant when DA and ID coincide, so every strategy and
    # the benchmark realize the same stream
    ens = _joint(rng, m=80, id_equals_da=True)
    pools = profit_pools(ens, 9.0)
    n = 30
    da = rng.normal(45.0, 12.0, n)
    idp = da
    w = np.abs(rng.normal(10.0, 3.0, n)) + 0.5
    w_hat = np.abs(w + rng.normal(0.0, 1.5, n))
    outcomes = []
    for strat in STRATEGIES:
        dec = choose_q(strat, pools)
        outcomes.append(evaluate_strategy([dec] * n, da, idp, w, w_hat))
    outcomes.append(evaluate_strategy([naive_decision("naive")] * n, da, idp, w, w_hat))
    ref = outcomes[0]
    for out in outcomes[1:]:
        assert out.profits == pytest.approx(ref.profits, rel=1e-12)
        assert out.avg_profit == pytest.approx(ref.avg_profit, rel=1e-12)


def test_relative_pct():
    assert relative_pct(110.0, 100.0) == pytest.approx(10.0)
    assert relative_pct(90.0, 100.0) == pytest.approx(-10.0)
    assert np.isnan(relative_pct(5.0, 0.0))
    assert np.isnan(relative_pct(float("nan"), 3.0))
    assert np.isnan(relative_pct(3.0, float("inf")))
