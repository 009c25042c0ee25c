"""Performance metrics and FIFO trade matching.

Every function is pure. Degenerate cases yield explicit markers instead of
silent zeros: None for undefined, math.inf for the all-winners profit
factor. Serialization writes those as "undefined" and "inf".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from datetime import date
from typing import Sequence

import numpy as np

from .trading_env import roi as _roi

UNDEFINED_MARKER = "undefined"
INF_MARKER = "inf"
# How holding periods may be counted: calendar days or trading days.
DAY_COUNTS = ("calendar", "trading")


@dataclass(frozen=True)
class EquityCurve:
    """Portfolio wealth per day; positive values, strictly increasing dates."""

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise ValueError("equity curve must be non-empty")
        if len(self.dates) != self.values.size:
            raise ValueError("dates and values must align")
        ok = np.isfinite(self.values) & (self.values > 0)
        if not ok.all():
            i = int(ok.argmin())
            raise ValueError(f"equity on {self.dates[i]} is {self.values[i]}, not finite and positive")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValueError("equity dates must be strictly increasing")

    def __len__(self) -> int:
        return self.values.size

    def daily_returns(self) -> np.ndarray:
        v = self.values
        return (v[1:] - v[:-1]) / v[:-1]

    def roi(self) -> float:
        return _roi(float(self.values[0]), float(self.values[-1]))


@dataclass(frozen=True)
class Fill:
    """One executed order. `cost` is the fee paid for this fill."""

    date: date
    side: str
    shares: int
    price: float
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in ("buy", "sell"):
            raise ValueError(f"side must be 'buy' or 'sell', got {self.side!r}")
        if self.shares <= 0:
            raise ValueError("fill shares must be positive")
        if self.price <= 0 or not math.isfinite(self.price):
            raise ValueError("fill price must be positive")
        if self.cost < 0:
            raise ValueError("fill cost must be non-negative")


@dataclass(frozen=True)
class RoundTripTrade:
    """A matched buy/sell pair (or synthetic mark-to-market closure)."""

    entry_date: date
    exit_date: date
    shares: int
    entry_price: float
    exit_price: float
    profit: float
    holding_days: float
    mark_to_market: bool = False

    def __post_init__(self) -> None:
        if self.exit_date < self.entry_date:
            raise ValueError("exit date before entry date")


@dataclass(frozen=True)
class MetricsReport:
    """Flat bundle of evaluation metrics; None marks undefined entries."""

    roi: float
    cumulative_return: float
    sharpe: float | None
    max_drawdown: float
    avg_daily_return: float | None
    adtv: float | None
    agent_adtv: float
    profit_factor: float | None
    winning_pct: float | None
    avg_holding_days: float | None

    def to_dict(self) -> dict[str, float | str]:
        return {name: encode_metric(getattr(self, name)) for name in REPORT_FIELDS}

    @classmethod
    def from_dict(cls, raw: dict) -> "MetricsReport":
        """The report to_dict wrote; a value that does not decode is a ValueError `<key>: …`."""
        values = {}
        for name in REPORT_FIELDS:
            try:
                values[name] = decode_metric(raw[name])
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        return cls(**values)


REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport))


def encode_metric(value: float | None) -> float | str:
    """None as "undefined", +inf as "inf", a finite value as a float; NaN and -inf have no form."""
    if value is None:
        return UNDEFINED_MARKER
    if value == math.inf:
        return INF_MARKER
    if not math.isfinite(value):
        raise ValueError(f"cannot encode metric {value!r}: only None, inf or a finite number")
    return float(value)


def decode_metric(raw: float | str) -> float | None:
    """The value encode_metric wrote: a marker or a finite number, never a bool."""
    if raw == UNDEFINED_MARKER:
        return None
    if raw == INF_MARKER:
        return math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw):
        raise ValueError(
            f"expected a finite number, {UNDEFINED_MARKER!r} or {INF_MARKER!r}; got {raw!r}"
        )
    return float(raw)


def cumulative_return(period_returns: Sequence[float] | np.ndarray) -> float:
    """Compounded return: product of (1 + R_i), minus one. Empty input -> 0."""
    values = np.asarray(period_returns, dtype=float).ravel()
    ruined = values <= -1.0
    if ruined.any():
        raise ValueError(f"return {values[ruined.argmax()].item()} is <= -1")
    # math.prod multiplies left to right: the bits of a running product
    return math.prod((1.0 + values).tolist()) - 1.0


def sharpe(portfolio_return: float, risk_free: float, stdev_excess: float) -> float | None:
    """Excess return per unit of risk: (Rp - Rf) / stdev. None if stdev <= 0."""
    if stdev_excess <= 0 or not math.isfinite(stdev_excess):
        return None
    return (portfolio_return - risk_free) / stdev_excess


def sharpe_from_daily(
    daily_returns: Sequence[float] | np.ndarray,
    rf_daily: float = 0.0,
    annualization: float = math.sqrt(252.0),
) -> float | None:
    """Sharpe from a daily return series, sample (n-1) standard deviation."""
    values = np.asarray(daily_returns, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least 2 daily returns")
    excess = values - rf_daily
    stdev = float(excess.std(ddof=1))
    ratio = sharpe(float(excess.mean()), 0.0, stdev)
    return None if ratio is None else ratio * annualization


def max_drawdown(curve: EquityCurve) -> float:
    """Largest fractional decline from a running peak."""
    peaks = np.maximum.accumulate(curve.values)
    return float(((peaks - curve.values) / peaks).max())


def average_daily_return(initial: float, final: float, days: int) -> float:
    """((P_f - P_i) / P_i) / N, the per-day fraction of the initial value."""
    if initial <= 0:
        raise ValueError("initial value must be positive")
    if days < 1:
        raise ValueError("day count must be >= 1")
    return ((final - initial) / initial) / days


def adtv(total_volume: float, trading_days: int) -> float:
    """Average daily trading volume: total volume over day count."""
    if trading_days < 1:
        raise ValueError("trading day count must be >= 1")
    return total_volume / trading_days


def profit_factor(trades: Sequence[RoundTripTrade]) -> float | None:
    """Gross winning profit per unit of gross loss.

    All winners -> inf marker; all losers -> 0; nothing decided -> None.
    Zero-profit trades enter neither sum.
    """
    wins = sum(t.profit for t in trades if t.profit > 0)
    losses = sum(-t.profit for t in trades if t.profit < 0)
    if wins == 0 and losses == 0:
        return None
    if losses == 0:
        return math.inf
    if wins == 0:
        return 0.0
    return wins / losses


def winning_percentage(trades: Sequence[RoundTripTrade]) -> float:
    """Share of trades with strictly positive profit, in percent."""
    if not trades:
        raise ValueError("no trades")
    winners = sum(1 for t in trades if t.profit > 0)
    return 100.0 * winners / len(trades)


def average_holding_period(trades: Sequence[RoundTripTrade]) -> float:
    """Mean holding period over all trades, in days."""
    if not trades:
        raise ValueError("no trades")
    return sum(t.holding_days for t in trades) / len(trades)


def _holding_days(
    entry: date, exit_: date, day_count: str, index_of: dict[date, int] | None
) -> float:
    if day_count == "calendar":
        return float((exit_ - entry).days)
    assert index_of is not None
    try:
        return float(index_of[exit_] - index_of[entry])
    except KeyError as exc:
        raise ValueError(f"trade date {exc.args[0]} missing from trading calendar") from None


def match_trades(
    fills: Sequence[Fill],
    final_price: float | None = None,
    final_date: date | None = None,
    day_count: str = "calendar",
    trading_dates: Sequence[date] | None = None,
) -> list[RoundTripTrade]:
    """FIFO pairing of fills into round-trip trades.

    Each sell consumes the oldest open buy lots; partially consumed lots
    split, with fill costs allocated pro rata by shares. A position held
    before the window enters as a zero-cost buy fill at its first close.
    Lots still open at the end are closed by a zero-cost sell of the whole
    position at final_price/final_date, flagged mark_to_market; if no final
    price is given they are left open and omitted from the result.
    """
    if day_count not in DAY_COUNTS:
        raise ValueError(f"unknown day_count {day_count!r}")
    index_of = None
    if day_count == "trading":
        if trading_dates is None:
            raise ValueError("trading day_count requires trading_dates")
        index_of = {d: i for i, d in enumerate(trading_dates)}
    open_lots: deque[list] = deque()  # [date, shares_left, price, cost_left]
    trades: list[RoundTripTrade] = []

    def sell(fill: Fill, mark_to_market: bool = False) -> None:
        remaining = fill.shares
        while remaining > 0:
            lot = open_lots[0]
            take = min(lot[1], remaining)
            buy_cost = lot[3] * (take / lot[1])
            sell_cost = fill.cost * (take / fill.shares)
            trades.append(
                RoundTripTrade(
                    entry_date=lot[0],
                    exit_date=fill.date,
                    shares=take,
                    entry_price=lot[2],
                    exit_price=fill.price,
                    profit=take * (fill.price - lot[2]) - buy_cost - sell_cost,
                    holding_days=_holding_days(lot[0], fill.date, day_count, index_of),
                    mark_to_market=mark_to_market,
                )
            )
            lot[1] -= take
            lot[3] -= buy_cost
            if lot[1] == 0:
                open_lots.popleft()
            remaining -= take

    position = 0
    previous: date | None = None
    for fill in fills:
        if previous is not None and fill.date < previous:
            raise ValueError("fills out of chronological order")
        previous = fill.date
        if fill.side == "buy":
            open_lots.append([fill.date, fill.shares, fill.price, fill.cost])
            position += fill.shares
            continue
        if fill.shares > position:
            raise ValueError(f"{fill.date}: sell of {fill.shares} exceeds open position {position}")
        sell(fill)
        position -= fill.shares
    if position and final_price is not None:
        if final_date is None:
            raise ValueError("final_price given without final_date")
        sell(Fill(final_date, "sell", position, final_price), mark_to_market=True)
    return trades


def compute_report(
    curve: EquityCurve,
    fills: Sequence[Fill] = (),
    volumes: Sequence[float] | np.ndarray | None = None,
    rf_daily: float = 0.0,
    annualization: float = math.sqrt(252.0),
    *,
    trades: Sequence[RoundTripTrade],
) -> MetricsReport:
    """Evaluate every metric over one equity curve and its fills.

    `volumes` is the instrument's daily volume aligned with the curve.
    `trades` are the fills as `match_trades` paired them, open lots marked
    to market; the trade statistics come from them.
    """
    for fill in fills:
        if not curve.dates[0] <= fill.date <= curve.dates[-1]:
            raise ValueError(f"fill date {fill.date} outside curve range")
    if volumes is not None:
        volumes = np.asarray(volumes, dtype=float)
        if volumes.size != len(curve):
            raise ValueError("volumes misaligned with curve dates")

    returns = curve.daily_returns()
    report_sharpe = (
        sharpe_from_daily(returns, rf_daily, annualization) if returns.size >= 2 else None
    )
    adr = (
        average_daily_return(float(curve.values[0]), float(curve.values[-1]), returns.size)
        if returns.size >= 1
        else None
    )
    volume_avg = adtv(float(volumes.sum()), len(curve)) if volumes is not None else None
    turnover = sum(f.shares for f in fills) / len(curve)
    return MetricsReport(
        roi=curve.roi(),
        cumulative_return=cumulative_return(returns),
        sharpe=report_sharpe,
        max_drawdown=max_drawdown(curve),
        avg_daily_return=adr,
        adtv=volume_avg,
        agent_adtv=turnover,
        profit_factor=profit_factor(trades),
        winning_pct=winning_percentage(trades) if trades else None,
        avg_holding_days=average_holding_period(trades) if trades else None,
    )
