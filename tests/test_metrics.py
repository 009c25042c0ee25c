import json
import math
import re
from collections import deque
from dataclasses import astuple
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantrl.metrics import (
    EquityCurve,
    Fill,
    MetricsReport,
    RoundTripTrade,
    _holding_days,
    adtv,
    average_daily_return,
    average_holding_period,
    compute_report,
    cumulative_return,
    decode_metric,
    encode_metric,
    match_trades,
    max_drawdown,
    profit_factor,
    sharpe,
    sharpe_from_daily,
    winning_percentage,
)


def curve_of(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return EquityCurve(dates, np.asarray(values, dtype=float))


def trade_with_profit(profit, days=1.0):
    return RoundTripTrade(
        entry_date=date(2020, 1, 1),
        exit_date=date(2020, 1, 1) + timedelta(days=int(days)),
        shares=1,
        entry_price=10.0,
        exit_price=10.0 + profit,
        profit=float(profit),
        holding_days=float(days),
    )


def brute_force_drawdown(values):
    """Independent oracle: scan every peak/trough index pair, one peak's troughs at a time."""
    v = np.asarray(values, dtype=float)
    return max([0.0, *(float(((v[i] - v[i + 1:]) / v[i]).max()) for i in range(len(v) - 1))])


def sequential_cumulative_return(returns):
    """Reference: the running product of 1 + r, one factor at a time."""
    total = 1.0
    for r in returns:
        if r <= -1.0:
            raise ValueError(f"return {r} is <= -1")
        total *= 1.0 + r
    return total - 1.0


class TestEquityCurve:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            curve_of([])
        with pytest.raises(ValueError, match="positive"):
            curve_of([100.0, -1.0])
        with pytest.raises(ValueError, match="align"):
            EquityCurve((date(2020, 1, 1),), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            EquityCurve((date(2020, 1, 2), date(2020, 1, 1)), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_the_first_bad_value_is_named_with_its_date(self, bad):
        dates = tuple(date(2020, 1, d) for d in (1, 2, 3, 6))
        with pytest.raises(ValueError, match=rf"^equity on 2020-01-03 is {bad}, not finite and positive$"):
            EquityCurve(dates, np.array([100.0, 110.0, bad, math.inf]))

    def test_roi_and_returns(self):
        curve = curve_of([100.0, 110.0, 99.0])
        assert curve.roi() == pytest.approx(-0.01, rel=1e-12)
        assert curve.daily_returns() == pytest.approx([0.10, -0.10], rel=1e-12)


D1, D2 = date(2020, 1, 1), date(2020, 1, 2)

# id -> (call, message) of each refusal of a fill, a trade or a matching setting
REFUSALS = {
    "fill-side": (lambda: Fill(D1, "hold", 1, 10.0), "side must be 'buy' or 'sell', got 'hold'"),
    "fill-price": (lambda: Fill(D1, "buy", 1, 0.0), "fill price must be positive"),
    "fill-price-nan": (lambda: Fill(D1, "buy", 1, math.nan), "fill price must be positive"),
    "fill-cost": (lambda: Fill(D1, "buy", 1, 10.0, cost=-0.5), "fill cost must be non-negative"),
    "trade-exit-before-entry": (lambda: trade_with_profit(1.0, days=-1), "exit date before entry date"),
    "trade-date-off-calendar": (
        lambda: match_trades([Fill(D1, "buy", 1, 10.0), Fill(D2, "sell", 1, 11.0)],
                             day_count="trading", trading_dates=(D1,)),
        "trade date 2020-01-02 missing from trading calendar"),
    "unknown-day-count": (lambda: match_trades([], day_count="business"),
                          "unknown day_count 'business'"),
    "final-price-without-date": (lambda: match_trades([Fill(D1, "buy", 1, 10.0)], final_price=11.0),
                                 "final_price given without final_date"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_a_value_error_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


class TestCumulativeReturn:
    def test_compounding_product(self):
        # oracle: explicit product of the three factors
        expected = 1.05 * 1.10 * 0.97 - 1.0
        result = cumulative_return([0.05, 0.10, -0.03])
        assert result == pytest.approx(expected, rel=1e-12)
        assert type(result) is float

    def test_empty_is_zero(self):
        assert cumulative_return([]) == 0.0

    def test_single_factor(self):
        assert cumulative_return([0.10]) == pytest.approx(0.10, rel=1e-12)

    def test_total_loss_rejected(self):
        with pytest.raises(ValueError, match="<= -1"):
            cumulative_return([0.05, -1.0])

    def test_matches_curve_roi(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            values = 1000.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=50)))
            curve = curve_of(values)
            assert cumulative_return(curve.daily_returns()) == pytest.approx(
                curve.roi(), rel=1e-10
            )

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20_000),
           scale=st.sampled_from([1e-3, 0.05, 0.5]), ruin=st.none() | st.floats(-1e3, -1.0))
    def test_is_the_sequential_product_bit_for_bit(self, seed, n, scale, ruin):
        rng = np.random.default_rng(seed)
        returns = np.maximum(rng.normal(0.0, scale, size=n), -0.999).tolist()
        if ruin is not None and n:
            returns[int(rng.integers(n))] = ruin  # refused, naming the return
        try:
            want = sequential_cumulative_return(returns)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                cumulative_return(returns)
            assert str(info.value) == str(exc)
        else:
            got = cumulative_return(returns)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


class TestSharpe:
    def test_scalar_form(self):
        assert sharpe(0.10, 0.02, 0.08) == pytest.approx(1.0, rel=1e-12)

    def test_zero_excess(self):
        assert sharpe(0.05, 0.05, 0.3) == 0.0

    def test_degenerate_stdev(self):
        assert sharpe(0.10, 0.02, 0.0) is None
        assert sharpe(0.10, 0.02, -1.0) is None

    def test_series_form_oracle(self):
        daily = np.array([0.01, -0.02, 0.015, 0.0, 0.005])
        rf = 0.001
        excess = daily - rf
        expected = excess.mean() / excess.std(ddof=1) * math.sqrt(252.0)
        assert sharpe_from_daily(daily, rf) == pytest.approx(expected, rel=1e-12)

    def test_series_constant_returns_undefined(self):
        assert sharpe_from_daily([0.01, 0.01, 0.01]) is None

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            sharpe_from_daily([0.01])


class TestMaxDrawdown:
    def test_peak_to_trough(self):
        assert max_drawdown(curve_of([100_000.0, 70_000.0])) == pytest.approx(0.30, rel=1e-9)

    def test_monotonic_no_drawdown(self):
        assert max_drawdown(curve_of([1.0, 2.0, 3.0])) == 0.0

    def test_interior_trough(self):
        # brute-force oracle over all pairs gives (120 - 60) / 120 = 0.5
        values = [100.0, 80.0, 120.0, 60.0]
        assert brute_force_drawdown(values) == 0.5
        assert max_drawdown(curve_of(values)) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        lengths = [*rng.integers(1, 60, size=100), 1_000, 5_000, 20_000]
        for n in lengths:
            values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, size=n)))
            curve = curve_of(values)
            assert max_drawdown(curve) == brute_force_drawdown(values.tolist())

    def test_scale_invariance(self):
        values = [100.0, 80.0, 120.0, 60.0, 90.0]
        base = max_drawdown(curve_of(values))
        assert max_drawdown(curve_of([4.0 * v for v in values])) == base  # power of two
        assert max_drawdown(curve_of([3.0 * v for v in values])) == pytest.approx(base, rel=1e-12)


class TestAverageDailyReturn:
    def test_basic(self):
        assert average_daily_return(100.0, 110.0, 10) == pytest.approx(0.01, rel=1e-12)

    def test_flat(self):
        assert average_daily_return(100.0, 100.0, 5) == 0.0

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            average_daily_return(100.0, 110.0, 0)

    def test_non_positive_initial(self):
        with pytest.raises(ValueError, match="positive"):
            average_daily_return(0.0, 1.0, 5)


class TestAdtv:
    def test_worked_example(self):
        assert adtv(10_000_000, 250) == pytest.approx(40_000.0, rel=1e-9)

    def test_single_day(self):
        assert adtv(1234.0, 1) == 1234.0

    def test_zero_volume(self):
        assert adtv(0.0, 10) == 0.0

    def test_zero_days(self):
        with pytest.raises(ValueError, match=">= 1"):
            adtv(100.0, 0)


class TestProfitFactor:
    def test_interpretation(self):
        assert profit_factor([trade_with_profit(30.0), trade_with_profit(-20.0)]) == pytest.approx(
            1.5, rel=1e-9
        )

    def test_two_wins_one_loss(self):
        trades = [trade_with_profit(10.0), trade_with_profit(20.0), trade_with_profit(-15.0)]
        assert profit_factor(trades) == pytest.approx(2.0, rel=1e-12)

    def test_all_winners_infinity(self):
        assert profit_factor([trade_with_profit(5.0)]) == math.inf

    def test_all_losers_zero(self):
        assert profit_factor([trade_with_profit(-5.0)]) == 0.0

    def test_no_trades_undefined(self):
        assert profit_factor([]) is None

    def test_zero_profit_trades_in_neither_sum(self):
        trades = [trade_with_profit(0.0), trade_with_profit(30.0), trade_with_profit(-20.0)]
        assert profit_factor(trades) == pytest.approx(1.5, rel=1e-12)
        assert profit_factor([trade_with_profit(0.0)]) is None

    def test_above_one_iff_net_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            profits = rng.normal(0, 50, size=int(rng.integers(2, 12)))
            trades = [trade_with_profit(p) for p in profits]
            wins = any(p > 0 for p in profits)
            losses = any(p < 0 for p in profits)
            if wins and losses:
                assert (profit_factor(trades) > 1.0) == (profits.sum() > 0)


class TestWinningPercentage:
    def test_worked_example(self):
        trades = [trade_with_profit(1.0)] * 60 + [trade_with_profit(-1.0)] * 40
        assert winning_percentage(trades) == pytest.approx(60.0, rel=1e-9)

    def test_all_winners(self):
        assert winning_percentage([trade_with_profit(1.0)] * 3) == 100.0

    def test_zero_profit_counts_as_loss(self):
        trades = [trade_with_profit(0.0), trade_with_profit(2.0)]
        assert winning_percentage(trades) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no trades"):
            winning_percentage([])


class TestAverageHoldingPeriod:
    def test_mean_of_periods(self):
        periods = [10, 20, 30, 15, 25, 10, 20, 15, 30, 25]
        trades = [trade_with_profit(1.0, days=p) for p in periods]
        assert average_holding_period(trades) == pytest.approx(sum(periods) / len(periods), rel=1e-12)

    def test_single_trade(self):
        assert average_holding_period([trade_with_profit(1.0, days=5)]) == 5.0

    def test_same_day_round_trip(self):
        assert average_holding_period([trade_with_profit(1.0, days=0)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no trades"):
            average_holding_period([])


def reference_match_trades(
    fills, final_price=None, final_date=None, day_count="calendar", trading_dates=None,
    opening_lot=None,
):
    """The earlier matcher, kept as the reference: an opening lot held apart
    from the fills, and a second loop that closes the open lots."""
    index_of = {d: i for i, d in enumerate(trading_dates)} if day_count == "trading" else None
    open_lots = deque()  # [date, shares_left, price, cost_left]
    trades = []
    position = 0
    previous = None
    if opening_lot is not None:
        previous, position, price = opening_lot
        open_lots.append([previous, position, price, 0.0])
    for fill in fills:
        assert previous is None or fill.date >= previous
        previous = fill.date
        if fill.side == "buy":
            open_lots.append([fill.date, fill.shares, fill.price, fill.cost])
            position += fill.shares
            continue
        assert fill.shares <= position
        remaining = fill.shares
        while remaining > 0:
            lot = open_lots[0]
            take = min(lot[1], remaining)
            buy_cost = lot[3] * (take / lot[1])
            sell_cost = fill.cost * (take / fill.shares)
            trades.append(RoundTripTrade(
                entry_date=lot[0],
                exit_date=fill.date,
                shares=take,
                entry_price=lot[2],
                exit_price=fill.price,
                profit=take * (fill.price - lot[2]) - buy_cost - sell_cost,
                holding_days=_holding_days(lot[0], fill.date, day_count, index_of),
            ))
            lot[1] -= take
            lot[3] -= buy_cost
            if lot[1] == 0:
                open_lots.popleft()
            remaining -= take
        position -= fill.shares
    if open_lots and final_price is not None:
        for lot in open_lots:
            trades.append(RoundTripTrade(
                entry_date=lot[0],
                exit_date=final_date,
                shares=lot[1],
                entry_price=lot[2],
                exit_price=final_price,
                profit=lot[1] * (final_price - lot[2]) - lot[3],
                holding_days=_holding_days(lot[0], final_date, day_count, index_of),
                mark_to_market=True,
            ))
    return trades


PRICES = st.floats(0.01, 1e4)


@st.composite
def ledgers(draw):
    """(calendar, opening lot or None, fills): chronological, never selling short."""
    calendar = tuple(date(2020, 1, 1) + timedelta(days=d) for d in sorted(
        draw(st.sets(st.integers(0, 400), min_size=2, max_size=30))))
    opening = draw(st.integers(0, 20))
    lot = (calendar[0], opening, draw(PRICES)) if opening else None
    position, fills = opening, []
    for day in sorted(draw(st.lists(st.integers(0, len(calendar) - 1), max_size=25))):
        shares = draw(st.integers(1, 30))
        side = draw(st.sampled_from(["buy", "sell"])) if position else "buy"
        if side == "sell":
            shares = min(shares, position)
        position += shares if side == "buy" else -shares
        cost = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 50.0))
        fills.append(Fill(calendar[day], side, shares, draw(PRICES), cost))
    return calendar, lot, fills


class TestMatchTrades:
    @settings(max_examples=300, deadline=None)
    @given(ledgers(), st.sampled_from(["calendar", "trading"]), st.none() | PRICES)
    def test_opening_fill_and_closing_sell_match_the_two_path_matcher(
        self, ledger, day_count, final_price
    ):
        calendar, lot, fills = ledger
        ledger_fills = [Fill(lot[0], "buy", lot[1], lot[2]), *fills] if lot else fills
        kwargs = dict(final_price=final_price, final_date=calendar[-1], day_count=day_count,
                      trading_dates=calendar)
        got = match_trades(ledger_fills, **kwargs)
        want = reference_match_trades(fills, opening_lot=lot, **kwargs)
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        assert [repr(astuple(t)) for t in got] == [repr(astuple(t)) for t in want]

    def test_simple_round_trip(self):
        fills = [
            Fill(date(2020, 1, 1), "buy", 100, 10.0),
            Fill(date(2020, 1, 11), "sell", 100, 12.0),
        ]
        trades = match_trades(fills)
        assert len(trades) == 1
        t = trades[0]
        assert t.profit == pytest.approx(200.0, rel=1e-12)
        assert t.holding_days == 10.0
        assert not t.mark_to_market

    def test_fifo_split_with_residual_open(self):
        # hand ledger: sell 150 takes all of lot 1 (100 @ 10) and 50 of
        # lot 2 (100 @ 11); 50 @ 11 stays open without a final price
        fills = [
            Fill(date(2020, 1, 1), "buy", 100, 10.0),
            Fill(date(2020, 1, 2), "buy", 100, 11.0),
            Fill(date(2020, 1, 5), "sell", 150, 12.0),
        ]
        trades = match_trades(fills)
        assert [(t.shares, t.entry_price, t.profit) for t in trades] == [
            (100, 10.0, pytest.approx(200.0)),
            (50, 11.0, pytest.approx(50.0)),
        ]

    def test_residual_closed_at_final_price(self):
        fills = [
            Fill(date(2020, 1, 1), "buy", 100, 10.0),
            Fill(date(2020, 1, 2), "buy", 100, 11.0),
            Fill(date(2020, 1, 5), "sell", 150, 12.0),
        ]
        trades = match_trades(fills, final_price=11.5, final_date=date(2020, 1, 9))
        assert len(trades) == 3
        residual = trades[-1]
        assert residual.mark_to_market
        assert residual.shares == 50
        assert residual.profit == pytest.approx(50 * (11.5 - 11.0), rel=1e-12)
        assert residual.holding_days == 7.0

    def test_opening_lot_matched_first_at_zero_cost(self):
        # 5 shares held before the first fill, as a zero-cost opening buy: the
        # sell of 7 takes them, then 2 of the later buy
        fills = [
            Fill(date(2020, 1, 1), "buy", 5, 10.0),
            Fill(date(2020, 1, 2), "buy", 10, 11.0, cost=1.0),
            Fill(date(2020, 1, 4), "sell", 7, 12.0),
        ]
        trades = match_trades(fills, final_price=13.0, final_date=date(2020, 1, 6))
        assert [(t.entry_date, t.shares, t.entry_price, t.mark_to_market) for t in trades] == [
            (date(2020, 1, 1), 5, 10.0, False),
            (date(2020, 1, 2), 2, 11.0, False),
            (date(2020, 1, 2), 8, 11.0, True),
        ]
        assert trades[0].profit == 5 * (12.0 - 10.0)
        with pytest.raises(ValueError, match="fill shares must be positive"):
            Fill(date(2020, 1, 1), "buy", 0, 10.0)

    def test_open_only_marked_to_market(self):
        fills = [Fill(date(2020, 1, 1), "buy", 100, 10.0)]
        trades = match_trades(fills, final_price=9.0, final_date=date(2020, 1, 8))
        assert len(trades) == 1
        assert trades[0].mark_to_market
        assert trades[0].profit == pytest.approx(-100.0, rel=1e-12)

    def test_sell_exceeding_position(self):
        fills = [
            Fill(date(2020, 1, 1), "buy", 10, 10.0),
            Fill(date(2020, 1, 2), "sell", 11, 10.0),
        ]
        with pytest.raises(ValueError, match="exceeds open position"):
            match_trades(fills)

    def test_out_of_order_fills(self):
        fills = [
            Fill(date(2020, 1, 5), "buy", 10, 10.0),
            Fill(date(2020, 1, 2), "sell", 10, 10.0),
        ]
        with pytest.raises(ValueError, match="chronological"):
            match_trades(fills)

    def test_cost_allocation_pro_rata(self):
        # 1.0 of buy fee split 60/40 over the two exits; sell fees whole
        fills = [
            Fill(date(2020, 1, 1), "buy", 100, 10.0, cost=1.0),
            Fill(date(2020, 1, 2), "sell", 60, 12.0, cost=0.3),
            Fill(date(2020, 1, 3), "sell", 40, 13.0, cost=0.2),
        ]
        trades = match_trades(fills)
        assert trades[0].profit == pytest.approx(60 * 2.0 - 0.6 - 0.3, rel=1e-12)
        assert trades[1].profit == pytest.approx(40 * 3.0 - 0.4 - 0.2, rel=1e-12)

    def test_trading_day_count(self):
        calendar = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(20))
        fills = [
            Fill(calendar[0], "buy", 10, 10.0),
            Fill(calendar[5], "sell", 10, 11.0),
        ]
        trades = match_trades(fills, day_count="trading", trading_dates=calendar)
        assert trades[0].holding_days == 5.0
        with pytest.raises(ValueError, match="requires trading_dates"):
            match_trades(fills, day_count="trading")

    def test_share_and_cash_conservation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.04, size=30)))
            dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(30))
            position = 0
            cash_delta = 0.0
            fills = []
            for day, price in zip(dates, prices):
                price = float(price)
                move = rng.integers(0, 3)
                if move == 1:
                    qty = int(rng.integers(1, 20))
                    fills.append(Fill(day, "buy", qty, price))
                    position += qty
                    cash_delta -= qty * price
                elif move == 2 and position > 0:
                    qty = int(rng.integers(1, position + 1))
                    fills.append(Fill(day, "sell", qty, price))
                    position -= qty
                    cash_delta += qty * price
            final_price = float(prices[-1])
            trades = match_trades(fills, final_price=final_price, final_date=dates[-1])
            total_matched = sum(t.shares for t in trades)
            bought = sum(f.shares for f in fills if f.side == "buy")
            assert total_matched == bought  # every lot closed, really or synthetically
            wealth_delta = cash_delta + position * final_price
            assert sum(t.profit for t in trades) == pytest.approx(wealth_delta, abs=1e-6)


class TestComputeReport:
    def test_flat_curve_no_fills(self):
        report = compute_report(curve_of([1000.0] * 5), trades=[])
        assert report.cumulative_return == 0.0
        assert report.max_drawdown == 0.0
        assert report.roi == 0.0
        assert report.sharpe is None  # zero variance
        assert report.profit_factor is None
        assert report.winning_pct is None
        assert report.avg_holding_days is None
        assert report.adtv is None
        assert report.agent_adtv == 0.0

    def test_roi_equals_cumulative_return_two_points(self):
        report = compute_report(curve_of([1000.0, 1100.0]), trades=[])
        assert report.roi == pytest.approx(0.10, rel=1e-12)
        assert report.cumulative_return == pytest.approx(report.roi, rel=1e-10)

    def test_purity(self):
        curve = curve_of([100.0, 120.0, 90.0, 130.0])
        fills = [Fill(curve.dates[0], "buy", 3, 100.0), Fill(curve.dates[2], "sell", 3, 90.0)]
        volumes = [5000.0, 6000.0, 7000.0, 8000.0]
        trades = match_trades(fills, final_price=130.0, final_date=curve.dates[-1])
        a = compute_report(curve, fills, volumes, trades=trades)
        b = compute_report(curve, fills, volumes, trades=trades)
        assert a == b

    def test_volumes_and_adtv(self):
        report = compute_report(curve_of([100.0, 101.0]), volumes=[1000.0, 3000.0], trades=[])
        assert report.adtv == 2000.0

    def test_misaligned_volumes(self):
        with pytest.raises(ValueError, match="misaligned"):
            compute_report(curve_of([100.0, 101.0]), volumes=[1.0], trades=[])

    def test_fill_outside_curve(self):
        fills = [Fill(date(2030, 1, 1), "buy", 1, 10.0)]
        with pytest.raises(ValueError, match="outside curve"):
            compute_report(curve_of([100.0, 101.0]), fills, trades=match_trades(fills))

    def test_agent_turnover(self):
        curve = curve_of([100.0, 110.0, 120.0, 130.0])
        fills = [Fill(curve.dates[0], "buy", 6, 100.0), Fill(curve.dates[1], "sell", 6, 110.0)]
        report = compute_report(curve, fills, trades=match_trades(fills))
        assert report.agent_adtv == 3.0


class TestReportSerialization:
    def test_round_trip_with_markers(self):
        report = MetricsReport(
            roi=0.1234,
            cumulative_return=0.1175,
            sharpe=None,
            max_drawdown=0.3,
            avg_daily_return=0.001,
            adtv=None,
            agent_adtv=12.5,
            profit_factor=math.inf,
            winning_pct=60.0,
            avg_holding_days=21.5,
        )
        encoded = report.to_dict()
        assert encoded["sharpe"] == "undefined"
        assert encoded["profit_factor"] == "inf"
        assert MetricsReport.from_dict(encoded) == report

    def test_marker_codec(self):
        assert encode_metric(None) == "undefined"
        assert encode_metric(math.inf) == "inf"
        assert decode_metric("undefined") is None
        assert decode_metric("inf") == math.inf
        assert decode_metric(0.5) == 0.5

    # -inf was written as "inf", read back as +inf; NaN as json's NaN, which decode refuses
    @example(-math.inf)
    @example(math.nan)
    @example(-0.0)
    @settings(max_examples=300, deadline=None)
    @given(st.none() | st.floats())
    def test_codec_round_trips_through_json_what_it_encodes(self, value):
        if value is not None and (math.isnan(value) or value == -math.inf):
            with pytest.raises(ValueError, match=re.escape(f"cannot encode metric {value!r}")):
                encode_metric(value)
            return
        decoded = decode_metric(json.loads(json.dumps(encode_metric(value))))
        # repr tells -0.0 from 0.0
        assert repr(decoded) == repr(value)

    def test_from_dict_names_the_refused_key(self):
        encoded = MetricsReport(*range(10)).to_dict() | {"agent_adtv": "x"}
        with pytest.raises(ValueError, match=r"^agent_adtv: expected a finite number, .* got 'x'$"):
            MetricsReport.from_dict(encoded)

    # json reads all of these; encode_metric writes none of them
    @pytest.mark.parametrize("raw", [True, False, "1e5", "nan", "-inf", math.nan, -math.inf, None, [1]])
    def test_decode_refuses_what_encode_never_writes(self, raw):
        with pytest.raises(ValueError, match="expected a finite number, 'undefined' or 'inf'"):
            decode_metric(raw)
