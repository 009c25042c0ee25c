"""Single-symbol daily trading simulation.

Actions execute at the current day's close; time then advances one day and
the portfolio is marked at the next close. No leverage, no shorting: cash
and share count never go negative. All steps are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from enum import IntEnum
from typing import NamedTuple

import numpy as np


class Action(IntEnum):
    HOLD = 0
    BUY = 1
    SELL = 2


_HOLD, _BUY, _SELL = (int(a) for a in Action)
# A step's reward: the fractional or the absolute change in marked wealth.
REWARD_MODES = ("percentage", "absolute")
# Share counts and their spends stay exact in float64 up to 2**53 shares.
MAX_SHARES = 2**53


@dataclass(frozen=True)
class CostModel:
    """Proportional transaction cost, charged per trade side on notional."""

    proportional_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.proportional_rate < 1.0:
            raise ValueError("proportional_rate must be in [0, 1)")


ZERO_COST = CostModel(0.0)


@dataclass(frozen=True)
class Portfolio:
    cash: float
    shares: int

    def __post_init__(self) -> None:
        if self.cash < 0:
            raise ValueError(f"cash must be non-negative, got {self.cash}")
        if self.shares < 0:
            raise ValueError(f"shares must be non-negative, got {self.shares}")
        if self.shares > MAX_SHARES:
            raise ValueError(f"shares must be at most 2**53, got {self.shares}")


class EnvState(NamedTuple):
    """Where an episode stands after a step: read-only, equal when the fields are."""

    portfolio: Portfolio
    step_index: int
    wealth_prev: float
    done: bool


def wealth(portfolio: Portfolio, price: float) -> float:
    """Cash plus holdings marked at the given price."""
    if price <= 0:
        raise ValueError("price must be positive")
    return portfolio.cash + portfolio.shares * price


def roi(initial_wealth: float, final_wealth: float) -> float:
    """Signed fractional return: final / initial - 1."""
    if initial_wealth <= 0:
        raise ValueError("initial wealth must be positive")
    return final_wealth / initial_wealth - 1.0


def _trade(
    portfolio: Portfolio, action: Action | int, price: float,
    rate: float, buy_fraction: float, sell_fraction: float,
) -> Portfolio:
    """The position after `action` at `price`: `portfolio` itself if nothing trades.

    The one place the buy and sell arithmetic lives and a post-trade Portfolio
    is built. It checks the action and the share bound only: callers check
    price and fractions, once or per call.
    """
    # Compared as ints: converting through Action(...) costs more than a trade.
    if action == _BUY:
        cash, shares = portfolio.cash, portfolio.shares
        unit_cost = price * (1.0 + rate)
        wanted = (buy_fraction * cash) / unit_cost
        if not wanted <= MAX_SHARES - shares:  # exact, and false for inf and NaN
            raise ValueError(f"cash {cash!r} at price {price!r} buys {wanted!r} shares"
                             f" on top of {shares}, past the 2**53 share bound")
        bought = math.floor(wanted)
        total = bought * unit_cost
        # Guard against float rounding pushing the spend past available cash.
        while bought > 0 and total > cash:
            bought -= 1
            total = bought * unit_cost
        if bought > 0:
            return Portfolio(cash - total, shares + bought)
    elif action == _SELL:
        shares = portfolio.shares
        sold = min(shares, math.floor(sell_fraction * shares))
        if sold > 0:
            return Portfolio(portfolio.cash + sold * price * (1.0 - rate), shares - sold)
    elif action != _HOLD:
        raise ValueError(f"{action!r} is not a valid Action")
    return portfolio


def execute_buy(
    portfolio: Portfolio,
    price: float,
    fraction: float = 1.0,
    costs: CostModel = ZERO_COST,
) -> Portfolio:
    """Spend `fraction` of cash on whole shares at `price` plus costs.

    Unaffordable buys (zero whole shares) leave the portfolio unchanged.
    """
    return execute_action(portfolio, _BUY, price, costs, buy_fraction=fraction)


def execute_sell(
    portfolio: Portfolio,
    price: float,
    fraction: float = 1.0,
    costs: CostModel = ZERO_COST,
) -> Portfolio:
    """Sell floor(fraction * shares) at `price`, crediting proceeds net of costs."""
    return execute_action(portfolio, _SELL, price, costs, sell_fraction=fraction)


def execute_action(
    portfolio: Portfolio,
    action: Action | int,
    price: float,
    costs: CostModel = ZERO_COST,
    buy_fraction: float = 1.0,
    sell_fraction: float = 1.0,
) -> Portfolio:
    """Execute one action at `price`; Hold leaves the portfolio unchanged."""
    if action == _BUY or action == _SELL:
        if price <= 0 or not math.isfinite(price):
            raise ValueError("price must be positive")
        if not 0.0 < (buy_fraction if action == _BUY else sell_fraction) <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
    return _trade(portfolio, action, price, costs.proportional_rate, buy_fraction, sell_fraction)


@dataclass(frozen=True)
class MarketWindow:
    """Aligned dates, close prices, and per-day observation vectors."""

    dates: tuple[date, ...]
    prices: np.ndarray
    observations: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise ValueError("observations must be a 2-D array (days x features)")
        object.__setattr__(self, "observations", obs)
        if not (len(self.dates) == self.prices.size == obs.shape[0]):
            raise ValueError("dates, prices, and observations must align")
        if self.prices.size and (not np.isfinite(self.prices).all() or self.prices.min() <= 0):
            raise ValueError("prices must be finite and positive")
        if obs.size and not np.isfinite(obs).all():
            raise ValueError("observations must be finite")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValueError("window dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True, eq=False)
class TradingEnv:
    """Deterministic episode over a MarketWindow.

    One step consumes one day transition, so an episode over a window of W
    days emits exactly W - 1 steps. Sell with no shares and unaffordable
    buys degrade to Hold so exploration never crashes an episode.
    Observations are exogenous: the one returned at step t is a read-only
    view of window.observations[t], the same object whatever the actions and
    the portfolio. Equality is identity; the settings are read-only fields.
    """

    window: MarketWindow
    initial_cash: float
    costs: CostModel = ZERO_COST
    reward_mode: str = "percentage"
    buy_fraction: float = 1.0
    sell_fraction: float = 1.0
    initial_shares: int = 0

    def __post_init__(self) -> None:
        if len(self.window) < 2:
            raise ValueError("data window needs at least 2 steps")
        if self.initial_cash <= 0:
            raise ValueError("initial cash must be positive")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")
        if not (0.0 < self.buy_fraction <= 1.0 and 0.0 < self.sell_fraction <= 1.0):
            raise ValueError("buy/sell fractions must be in (0, 1]")
        object.__setattr__(self, "initial_cash", float(self.initial_cash))
        object.__setattr__(self, "initial_shares", int(self.initial_shares))
        object.__setattr__(self, "_opening", Portfolio(self.initial_cash, self.initial_shares))
        # MarketWindow checked these prices; step reads them as Python floats.
        prices = self.window.prices.tolist()
        object.__setattr__(self, "_prices", prices)
        object.__setattr__(self, "_last", len(prices) - 1)
        object.__setattr__(self, "_rate", self.costs.proportional_rate)
        object.__setattr__(self, "_percentage", self.reward_mode == "percentage")
        object.__setattr__(self, "_initial_wealth", self.initial_cash + self.initial_shares * prices[0])
        observations = self.window.observations.view()
        observations.flags.writeable = False
        object.__setattr__(self, "_rows", list(observations))

    @property
    def steps_per_episode(self) -> int:
        return len(self.window) - 1

    def reset(self) -> tuple[EnvState, np.ndarray]:
        return EnvState(self._opening, 0, self._initial_wealth, False), self._rows[0]

    def step(self, state: EnvState, action: Action | int) -> tuple[EnvState, np.ndarray, float, bool]:
        portfolio, t, wealth_prev, done = state
        if done:
            raise ValueError("cannot step a finished episode")
        prices = self._prices
        portfolio = _trade(portfolio, action, prices[t], self._rate, self.buy_fraction, self.sell_fraction)
        t += 1
        marked = portfolio.cash + portfolio.shares * prices[t]
        if self._percentage:
            reward = (marked - wealth_prev) / wealth_prev
        else:
            reward = marked - wealth_prev
        done = t == self._last
        return EnvState(portfolio, t, marked, done), self._rows[t], reward, done

    def roi(self, state: EnvState) -> float:
        return roi(self._initial_wealth, state.wealth_prev)
