"""Single-symbol daily trading simulation.

Actions execute at the current day's close; time then advances one day and
the portfolio is marked at the next close. No leverage, no shorting: cash
and share count never go negative. All steps are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from enum import IntEnum

import numpy as np


class Action(IntEnum):
    HOLD = 0
    BUY = 1
    SELL = 2


_HOLD, _BUY, _SELL = (int(a) for a in Action)


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
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.cash < 0:
            raise ValueError(f"cash must be non-negative, got {self.cash}")
        if self.shares < 0:
            raise ValueError(f"shares must be non-negative, got {self.shares}")


@dataclass(frozen=True)
class EnvState:
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


def execute_buy(
    portfolio: Portfolio,
    price: float,
    fraction: float = 1.0,
    costs: CostModel = ZERO_COST,
) -> Portfolio:
    """Spend `fraction` of cash on whole shares at `price` plus costs.

    Unaffordable buys (zero whole shares) leave the portfolio unchanged.
    """
    if price <= 0 or not math.isfinite(price):
        raise ValueError("price must be positive")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    unit_cost = price * (1.0 + costs.proportional_rate)
    bought = math.floor((fraction * portfolio.cash) / unit_cost)
    if bought <= 0:
        return portfolio
    total = bought * unit_cost
    # Guard against float rounding pushing the spend past available cash.
    while bought > 0 and total > portfolio.cash:
        bought -= 1
        total = bought * unit_cost
    if bought <= 0:
        return portfolio
    return replace(portfolio, cash=portfolio.cash - total, shares=portfolio.shares + bought)


def execute_sell(
    portfolio: Portfolio,
    price: float,
    fraction: float = 1.0,
    costs: CostModel = ZERO_COST,
) -> Portfolio:
    """Sell floor(fraction * shares) at `price`, crediting proceeds net of costs."""
    if price <= 0 or not math.isfinite(price):
        raise ValueError("price must be positive")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    sold = min(portfolio.shares, math.floor(fraction * portfolio.shares))
    if sold <= 0:
        return portfolio
    proceeds = sold * price * (1.0 - costs.proportional_rate)
    return replace(portfolio, cash=portfolio.cash + proceeds, shares=portfolio.shares - sold)


def execute_action(
    portfolio: Portfolio,
    action: Action | int,
    price: float,
    costs: CostModel = ZERO_COST,
    buy_fraction: float = 1.0,
    sell_fraction: float = 1.0,
) -> Portfolio:
    """Execute one action at `price`; Hold leaves the portfolio unchanged."""
    # Compared as ints: converting through Action(...) costs more than a trade.
    if action == _BUY:
        return execute_buy(portfolio, price, buy_fraction, costs)
    if action == _SELL:
        return execute_sell(portfolio, price, sell_fraction, costs)
    if action != _HOLD:
        raise ValueError(f"{action!r} is not a valid Action")
    return portfolio


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


class TradingEnv:
    """Deterministic episode over a MarketWindow.

    One step consumes one day transition, so an episode over a window of W
    days emits exactly W - 1 steps. Sell with no shares and unaffordable
    buys degrade to Hold so exploration never crashes an episode.
    """

    def __init__(
        self,
        window: MarketWindow,
        initial_cash: float,
        costs: CostModel = ZERO_COST,
        reward_mode: str = "percentage",
        buy_fraction: float = 1.0,
        sell_fraction: float = 1.0,
        symbol: str = "",
        initial_shares: int = 0,
    ) -> None:
        if len(window) < 2:
            raise ValueError("data window needs at least 2 steps")
        if initial_cash <= 0:
            raise ValueError("initial cash must be positive")
        if initial_shares < 0:
            raise ValueError("initial shares must be non-negative")
        if reward_mode not in ("percentage", "absolute"):
            raise ValueError(f"unknown reward mode {reward_mode!r}")
        if not (0.0 < buy_fraction <= 1.0 and 0.0 < sell_fraction <= 1.0):
            raise ValueError("buy/sell fractions must be in (0, 1]")
        self._window = window
        self._initial_cash = float(initial_cash)
        self._initial_shares = int(initial_shares)
        self._costs = costs
        self._reward_mode = reward_mode
        self._buy_fraction = buy_fraction
        self._sell_fraction = sell_fraction
        self._symbol = symbol
        self._initial_wealth = self._initial_cash + self._initial_shares * float(window.prices[0])

    @property
    def window(self) -> MarketWindow:
        return self._window

    @property
    def costs(self) -> CostModel:
        return self._costs

    @property
    def initial_cash(self) -> float:
        return self._initial_cash

    @property
    def buy_fraction(self) -> float:
        return self._buy_fraction

    @property
    def sell_fraction(self) -> float:
        return self._sell_fraction

    @property
    def steps_per_episode(self) -> int:
        return len(self._window) - 1

    @property
    def obs_dim(self) -> int:
        return self._window.obs_dim

    def reset(self) -> tuple[EnvState, np.ndarray]:
        portfolio = Portfolio(self._initial_cash, self._initial_shares, self._symbol)
        state = EnvState(portfolio, 0, self._initial_wealth, False)
        return state, self._window.observations[0]

    def step(self, state: EnvState, action: Action | int) -> tuple[EnvState, np.ndarray, float, bool]:
        if state.done:
            raise ValueError("cannot step a finished episode")
        t = state.step_index
        portfolio = execute_action(
            state.portfolio, action, float(self._window.prices[t]),
            self._costs, self._buy_fraction, self._sell_fraction,
        )
        t_next = t + 1
        marked = wealth(portfolio, float(self._window.prices[t_next]))
        if self._reward_mode == "percentage":
            reward = (marked - state.wealth_prev) / state.wealth_prev
        else:
            reward = marked - state.wealth_prev
        done = t_next == len(self._window) - 1
        next_state = EnvState(portfolio, t_next, marked, done)
        return next_state, self._window.observations[t_next], reward, done

    def roi(self, state: EnvState) -> float:
        return roi(self._initial_wealth, state.wealth_prev)
