import math
import signal
import sys
from contextlib import contextmanager
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantrl.metrics import Fill
from quantrl.rl_agents import simulate
from quantrl.trading_env import (
    MAX_SHARES,
    Action,
    CostModel,
    MarketWindow,
    Portfolio,
    TradingEnv,
    execute_action,
    execute_buy,
    execute_sell,
    roi,
    wealth,
)


def make_window(prices, obs_dim=2):
    prices = np.asarray(prices, dtype=float)
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(prices.size))
    observations = np.zeros((prices.size, obs_dim))
    return MarketWindow(dates, prices, observations)


def make_env(prices, cash=100_000.0, **kwargs):
    return TradingEnv(make_window(prices), cash, **kwargs)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails a test."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCostModelAndPortfolio:
    def test_rate_bounds(self):
        CostModel(0.0)
        CostModel(0.5)
        with pytest.raises(ValueError):
            CostModel(-0.1)
        with pytest.raises(ValueError):
            CostModel(1.0)

    def test_portfolio_invariants(self):
        with pytest.raises(ValueError):
            Portfolio(-1.0, 0)
        with pytest.raises(ValueError):
            Portfolio(1.0, -1)

    def test_shares_are_capped_at_2_53(self):
        assert MAX_SHARES == 2**53
        assert Portfolio(0.0, MAX_SHARES).shares == MAX_SHARES
        with pytest.raises(ValueError, match=r"^shares must be at most 2\*\*53, got 9007199254740993$"):
            Portfolio(0.0, MAX_SHARES + 1)


class TestWealthAndRoi:
    def test_wealth(self):
        assert wealth(Portfolio(500.0, 50), 10.0) == 1000.0

    def test_wealth_no_shares(self):
        assert wealth(Portfolio(123.0, 0), 999.0) == 123.0

    def test_wealth_price_validation(self):
        with pytest.raises(ValueError):
            wealth(Portfolio(1.0, 0), 0.0)

    def test_roi(self):
        assert roi(100_000.0, 110_000.0) == pytest.approx(0.10, rel=1e-12)
        assert roi(5.0, 5.0) == 0.0
        assert roi(100_000.0, 70_000.0) == pytest.approx(-0.30, rel=1e-12)

    def test_roi_validation(self):
        with pytest.raises(ValueError):
            roi(0.0, 1.0)


class TestExecuteBuy:
    def test_exact_division(self):
        p = execute_buy(Portfolio(1000.0, 0), 10.0)
        assert p.shares == 100 and p.cash == 0.0

    def test_half_fraction(self):
        p = execute_buy(Portfolio(1000.0, 0), 10.0, fraction=0.5)
        assert p.shares == 50 and p.cash == 500.0

    def test_with_costs(self):
        # oracle: floor(1000 / (10 * 1.001)) = 99 shares
        p = execute_buy(Portfolio(1000.0, 0), 10.0, costs=CostModel(0.001))
        assert p.shares == 99
        assert p.cash == pytest.approx(1000.0 - 99 * 10.0 * 1.001, rel=1e-12)

    def test_unaffordable_is_noop(self):
        before = Portfolio(5.0, 0)
        assert execute_buy(before, 10.0) is before

    def test_price_validation(self):
        with pytest.raises(ValueError):
            execute_buy(Portfolio(1000.0, 0), -1.0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            execute_buy(Portfolio(1000.0, 0), 10.0, fraction=0.0)

    def test_share_count_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^cash 1e\+308 at price 0\.5 buys inf shares on top"
                                             r" of 0, past the 2\*\*53 share bound$"):
            execute_buy(Portfolio(1e308, 0), 0.5)

    def test_cash_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cash = float(rng.uniform(1.0, 10_000.0))
            price = float(rng.uniform(0.1, 500.0))
            rate = float(rng.uniform(0.0, 0.05))
            p = execute_buy(Portfolio(cash, 0), price, costs=CostModel(rate))
            assert p.cash >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        cash=st.floats(1.0, sys.float_info.max),
        shares=st.sampled_from([0, MAX_SHARES - 1, MAX_SHARES]) | st.integers(0, MAX_SHARES),
        price=st.floats(0.01, 1e6),
        rate=st.sampled_from([0.0, 0.001]) | st.floats(0.0, 0.5),
        fraction=st.sampled_from([1.0]) | st.floats(0.01, 1.0),
    )
    @example(cash=1e30, shares=0, price=94.12214747707523, rate=0.0, fraction=1.0)
    @example(cash=2.0**53, shares=0, price=1.0, rate=0.0, fraction=1.0)
    @example(cash=2.0, shares=MAX_SHARES - 2, price=1.0, rate=0.0, fraction=1.0)
    @example(cash=3.0, shares=MAX_SHARES - 2, price=1.0, rate=0.0, fraction=1.0)
    # the float sum 1 + 2.0**53 rounds to 2**53; the holding would be one past it
    @example(cash=2.0**53, shares=1, price=1.0, rate=0.0, fraction=1.0)
    @example(cash=sys.float_info.max, shares=0, price=0.01, rate=0.0, fraction=1.0)
    def test_buy_stays_in_the_share_domain(self, cash, shares, price, rate, fraction):
        # refused exactly when the unfloored holding passes 2**53 or is not finite
        before = Portfolio(cash, shares)
        unit_cost = price * (1.0 + rate)
        wanted = (fraction * cash) / unit_cost
        with time_limit(2):
            if not math.isfinite(wanted) or shares + Fraction(wanted) > 2**53:
                with pytest.raises(ValueError, match=r"past the 2\*\*53 share bound$"):
                    execute_buy(before, price, fraction, CostModel(rate))
                return
            after = execute_buy(before, price, fraction, CostModel(rate))
        assert after == reference_execute(before, Action.BUY, price, rate, fraction, 1.0)
        assert after.cash >= 0.0
        assert after.cash == cash - (after.shares - shares) * unit_cost


class TestExecuteSell:
    def test_full_liquidation(self):
        p = execute_sell(Portfolio(0.0, 100), 12.0)
        assert p.cash == 1200.0 and p.shares == 0

    def test_no_shares_is_noop(self):
        before = Portfolio(10.0, 0)
        assert execute_sell(before, 12.0) is before

    def test_with_costs(self):
        # oracle: 99 * 10 * 0.999
        p = execute_sell(Portfolio(0.0, 99), 10.0, costs=CostModel(0.001))
        assert p.shares == 0
        assert p.cash == pytest.approx(99 * 10.0 * 0.999, rel=1e-12)

    def test_half_fraction_floors(self):
        p = execute_sell(Portfolio(0.0, 5), 10.0, fraction=0.5)
        assert p.shares == 3 and p.cash == 20.0


class TestReset:
    def test_initial_state(self):
        env = make_env([10.0, 11.0, 12.0], cash=100_000.0)
        state, obs = env.reset()
        assert state.portfolio.cash == 100_000.0
        assert state.portfolio.shares == 0
        assert state.wealth_prev == 100_000.0
        assert state.step_index == 0 and not state.done
        assert obs.shape == (2,)

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_env([10.0])

    def test_non_positive_cash(self):
        with pytest.raises(ValueError, match="positive"):
            make_env([10.0, 11.0], cash=0.0)

    def test_reset_deterministic(self):
        env = make_env([10.0, 11.0, 12.0])
        state = env.reset()[0]
        assert state == env.reset()[0]
        with pytest.raises(AttributeError):  # a state is read-only
            state.done = True

    def test_initial_shares(self):
        env = make_env([10.0, 12.0], cash=100.0, initial_shares=5)
        state, _ = env.reset()
        assert state.portfolio.shares == 5
        assert state.wealth_prev == 150.0
        state, _, reward, _ = env.step(state, Action.HOLD)
        # marked at 12: wealth = 100 + 5 * 12 = 160
        assert reward == pytest.approx(160.0 / 150.0 - 1.0, rel=1e-12)
        assert env.roi(state) == pytest.approx(160.0 / 150.0 - 1.0, rel=1e-12)

    def test_negative_initial_shares_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_env([10.0, 11.0], initial_shares=-1)

    def test_initial_shares_past_2_53_rejected(self):
        make_env([10.0, 11.0], initial_shares=MAX_SHARES)
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            make_env([10.0, 11.0], initial_shares=MAX_SHARES + 1)

    def test_one_read_only_row_per_step_index(self):
        env = make_env([10.0, 11.0, 12.0])
        state, first = env.reset()
        assert env.reset()[1] is first and not first.flags.writeable
        rows = [env.step(state, action)[1] for action in Action]
        assert rows[0] is rows[1] is rows[2] and not rows[0].flags.writeable
        assert np.shares_memory(rows[0], env.window.observations[1])
        assert env.window.observations.flags.writeable  # the window's own array is left alone

    def test_reset_reuses_the_opening_portfolio(self):
        env = make_env([10.0, 11.0], cash=100.0, initial_shares=3)
        assert env.reset()[0].portfolio is env.reset()[0].portfolio == Portfolio(100.0, 3)

    def test_settings_are_read_only(self):
        window = make_window([10.0, 11.0])
        env = TradingEnv(window, 100, initial_shares=np.int64(2))
        assert type(env.initial_cash) is float and type(env.initial_shares) is int
        for name in ("window", "initial_cash", "costs", "reward_mode", "buy_fraction",
                     "sell_fraction", "initial_shares"):
            with pytest.raises(AttributeError):
                setattr(env, name, getattr(env, name))
        # equality is identity, even between envs with the same settings
        assert env == env and env != TradingEnv(window, 100, initial_shares=np.int64(2))


class TestStep:
    def test_hold_constant_price_zero_reward(self):
        env = make_env([10.0, 10.0, 10.0])
        state, _ = env.reset()
        state, _, reward, done = env.step(state, Action.HOLD)
        assert reward == 0.0 and not done

    def test_buy_all_in_reward(self):
        # hand ledger: 1000 cash buys 100 shares at 10; marked at 11 -> 1100
        env = make_env([10.0, 11.0], cash=1000.0)
        state, _ = env.reset()
        state, _, reward, done = env.step(state, Action.BUY)
        expected = (100 * 11.0 - 1000.0) / 1000.0
        assert reward == pytest.approx(expected, rel=1e-12)
        assert reward == pytest.approx(0.10, rel=1e-12)
        assert done

    def test_buy_with_cash_remainder(self):
        # hand ledger: 1005 cash buys 100 shares at 10, 5 remains
        env = make_env([10.0, 11.0], cash=1005.0)
        state, _ = env.reset()
        state, _, reward, _ = env.step(state, Action.BUY)
        assert state.portfolio.shares == 100
        assert state.portfolio.cash == 5.0
        assert reward == pytest.approx((5.0 + 1100.0 - 1005.0) / 1005.0, rel=1e-12)

    def test_sell_without_shares_acts_as_hold(self):
        env = make_env([10.0, 12.0, 9.0])
        state, _ = env.reset()
        sold, _, reward_sell, _ = env.step(state, Action.SELL)
        held, _, reward_hold, _ = env.step(state, Action.HOLD)
        assert sold.portfolio == held.portfolio
        assert reward_sell == reward_hold == 0.0

    def test_step_after_done_rejected(self):
        env = make_env([10.0, 11.0])
        state, _ = env.reset()
        state, _, _, done = env.step(state, Action.HOLD)
        assert done
        with pytest.raises(ValueError, match="finished"):
            env.step(state, Action.HOLD)

    def test_episode_length_is_window_minus_one(self):
        env = make_env(np.linspace(10, 20, 7))
        state, _ = env.reset()
        steps = 0
        done = False
        while not done:
            state, _, _, done = env.step(state, Action.HOLD)
            steps += 1
        assert steps == 6 == env.steps_per_episode

    def test_step_is_deterministic(self):
        env = make_env([10.0, 11.0, 12.0], cash=777.0)
        state, _ = env.reset()
        a = env.step(state, Action.BUY)
        b = env.step(state, Action.BUY)
        assert a[0] == b[0] and a[2] == b[2]

    def test_absolute_reward_mode(self):
        env = make_env([10.0, 11.0], cash=1000.0, reward_mode="absolute")
        state, _ = env.reset()
        _, _, reward, _ = env.step(state, Action.BUY)
        assert reward == pytest.approx(100.0, rel=1e-12)

    def test_roi_tracks_wealth(self):
        env = make_env([10.0, 11.0, 12.0], cash=1000.0)
        state, _ = env.reset()
        state, _, _, _ = env.step(state, Action.BUY)
        state, _, _, _ = env.step(state, Action.HOLD)
        assert env.roi(state) == pytest.approx(0.20, rel=1e-12)


TWO_DAYS = make_window([1.0, 2.0]).dates


def step_once(action):
    env = make_env([10.0, 11.0])
    return env.step(env.reset()[0], action)


def simulate_two_days(prices, action=Action.HOLD, **fractions):
    return simulate(prices, TWO_DAYS, Portfolio(100.0, 1), lambda t, portfolio: action, **fractions)


def window(dates=TWO_DAYS, prices=(10.0, 11.0), observations=((0.0,), (0.0,))):
    return MarketWindow(dates, prices, observations)


class TestRefusals:
    """Each refusal of the trade layer, with its exact message."""

    # the kernel checks the action; execute_action's price check must not win
    @pytest.mark.parametrize("call", [
        lambda: step_once(7),
        lambda: simulate_two_days([10.0, 11.0], 7),
        lambda: execute_action(Portfolio(100.0, 1), 7, 10.0),
        lambda: execute_action(Portfolio(100.0, 1), 7, -1.0),
    ], ids=["step", "simulate", "execute_action", "execute_action-negative-price"])
    def test_invalid_action(self, call):
        with pytest.raises(ValueError, match=r"^7 is not a valid Action$"):
            call()

    def test_hold_skips_every_check(self):
        before = Portfolio(100.0, 1)
        assert execute_action(before, Action.HOLD, math.nan, sell_fraction=2.0) is before

    @pytest.mark.parametrize("call, message", [
        (lambda: make_env([10.0, 11.0], reward_mode="log"), "unknown reward mode 'log'"),
        (lambda: make_env([10.0, 11.0], buy_fraction=0.0), "buy/sell fractions must be in (0, 1]"),
        (lambda: make_env([10.0, 11.0], sell_fraction=1.5), "buy/sell fractions must be in (0, 1]"),
        (lambda: window(observations=[0.0, 0.0]),
         "observations must be a 2-D array (days x features)"),
        (lambda: window(dates=TWO_DAYS[:1]), "dates, prices, and observations must align"),
        (lambda: window(prices=[10.0, 0.0]), "prices must be finite and positive"),
        (lambda: window(prices=[10.0, math.inf]), "prices must be finite and positive"),
        (lambda: window(observations=[[0.0], [math.nan]]), "observations must be finite"),
        (lambda: window(dates=TWO_DAYS[::-1]), "window dates must be strictly increasing"),
        (lambda: simulate_two_days([10.0, 0.0]), "price must be positive"),
        (lambda: simulate_two_days([10.0, math.nan]), "price must be positive"),
        (lambda: simulate_two_days([10.0, 11.0], buy_fraction=0.0), "fraction must be in (0, 1]"),
        (lambda: simulate_two_days([10.0, 11.0], sell_fraction=1.5), "fraction must be in (0, 1]"),
    ], ids=["reward-mode", "buy-fraction", "sell-fraction", "window-1-d-observations",
            "window-misaligned", "window-zero-price", "window-inf-price", "window-nan-observation",
            "window-dates-decreasing", "simulate-zero-price", "simulate-nan-price",
            "simulate-buy-fraction", "simulate-sell-fraction"])
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


class TestAccountingProperties:
    ACTIONS = (Action.HOLD, Action.BUY, Action.SELL)

    def test_conservation_constant_price_exact(self):
        rng = np.random.default_rng(42)
        env = make_env(np.full(30, 99.37), cash=100_000.0)
        for _ in range(100):
            state, _ = env.reset()
            done = False
            while not done:
                action = self.ACTIONS[rng.integers(0, 3)]
                state, _, _, done = env.step(state, action)
            assert state.wealth_prev == 100_000.0

    def test_accounting_identity_random_walk(self):
        rng = np.random.default_rng(7)
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.05, size=40)))
        env = make_env(prices, cash=10_000.0)
        for _ in range(200):
            state, _ = env.reset()
            done = False
            while not done:
                action = self.ACTIONS[rng.integers(0, 3)]
                state, _, _, done = env.step(state, action)
                p = state.portfolio
                assert p.cash >= 0.0 and p.shares >= 0
                marked = wealth(p, float(prices[state.step_index]))
                assert state.wealth_prev == marked

    def test_cost_monotonicity_on_rising_path(self):
        # fees can only hurt when every round trip is profitable
        prices = np.linspace(100.0, 150.0, 20)
        rng = np.random.default_rng(5)
        sequences = [
            [self.ACTIONS[i] for i in rng.integers(0, 3, size=19)] for _ in range(50)
        ]
        rates = (0.0, 0.001, 0.005)
        for seq in sequences:
            finals = []
            for rate in rates:
                env = make_env(prices, cash=100_000.0, costs=CostModel(rate))
                state, _ = env.reset()
                for action in seq:
                    state, _, _, _ = env.step(state, action)
                finals.append(state.wealth_prev)
            assert finals[0] >= finals[1] >= finals[2]

    def test_buy_sell_round_trip_constant_price(self):
        env = make_env([40.0, 40.0, 40.0], cash=1000.0)
        state, _ = env.reset()
        state, _, _, _ = env.step(state, Action.BUY)
        state, _, _, _ = env.step(state, Action.SELL)
        assert state.wealth_prev == 1000.0
        assert state.portfolio.shares == 0

    def test_hold_only_zero_rewards(self):
        env = make_env(np.linspace(10, 30, 10))
        state, _ = env.reset()
        done = False
        while not done:
            state, _, reward, done = env.step(state, Action.HOLD)
            assert reward == 0.0


class PastShareBound(Exception):
    """The reference's buy would hold more than 2**53 shares, which the program refuses."""


SHARE_BOUND = r"past the 2\*\*53 share bound"


def reference_execute(portfolio, action, price, rate, buy_fraction, sell_fraction):
    """One trade as execute_buy/execute_sell computed it before the shared kernel.

    A buy whose unfloored holding would pass 2**53 shares raises PastShareBound.
    """
    if action == Action.BUY:
        unit_cost = price * (1.0 + rate)
        wanted = (buy_fraction * portfolio.cash) / unit_cost
        if portfolio.shares + Fraction(wanted) > MAX_SHARES:
            raise PastShareBound
        bought = math.floor(wanted)
        if bought <= 0:
            return portfolio
        total = bought * unit_cost
        while bought > 0 and total > portfolio.cash:
            bought -= 1
            total = bought * unit_cost
        if bought <= 0:
            return portfolio
        return Portfolio(portfolio.cash - total, portfolio.shares + bought)
    if action == Action.SELL:
        sold = min(portfolio.shares, math.floor(sell_fraction * portfolio.shares))
        if sold <= 0:
            return portfolio
        return Portfolio(portfolio.cash + sold * price * (1.0 - rate), portfolio.shares - sold)
    return portfolio


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def trading_inputs(draw):
    """Prices, one action per close, a start portfolio, a cost rate and buy/sell fractions."""
    n = draw(st.integers(2, 30))
    prices = draw(st.lists(st.floats(0.01, 1e4), min_size=n, max_size=n))
    actions = draw(st.lists(st.sampled_from(list(Action)), min_size=n, max_size=n))
    cash = draw(st.floats(0.01, 1e6))
    shares = draw(st.integers(0, 1_000))
    rate = draw(st.floats(0.0, 1.0, exclude_max=True))
    fraction = st.floats(0.0, 1.0, exclude_min=True)
    return prices, actions, cash, shares, rate, (draw(fraction), draw(fraction))


# floor(55257.84 / 418.62) whole shares cost more than 55257.84 after rounding,
# so the buy's rounding guard has to give one back.
ROUNDING_GUARD = ([418.62, 420.0], [Action.BUY, Action.HOLD], 55257.84, 0, 0.0, (1.0, 1.0))
# Each round trip between 1 and 1e4 multiplies cash by 1e4, so the fourth buy
# (1e18 shares) passes the 2**53 share bound.
SHARE_BOUND_RUN = ([1.0, 1e4] * 4, [Action.BUY, Action.SELL] * 4, 1e6, 0, 0.0, (1.0, 1.0))


class TestStepAndSimulateMatchReference:
    """TradingEnv.step and simulate against execute_action + wealth, step by step."""

    def test_rounding_guard_case_needs_the_guard(self):
        prices, _, cash, *_ = ROUNDING_GUARD
        assert math.floor(cash / prices[0]) * prices[0] > cash
        assert execute_buy(Portfolio(cash, 0), prices[0]).shares == math.floor(cash / prices[0]) - 1

    @settings(max_examples=200, deadline=None)
    @given(trading_inputs(), st.sampled_from(["percentage", "absolute"]))
    @example(ROUNDING_GUARD, "percentage")
    @example(SHARE_BOUND_RUN, "percentage")
    def test_step_equals_reference(self, inputs, reward_mode):
        prices, actions, cash, shares, rate, fractions = inputs
        costs = CostModel(rate)
        env = TradingEnv(make_window(prices), cash, costs, reward_mode, *fractions, shares)
        state, _ = env.reset()
        portfolio, wealth_prev = Portfolio(cash, shares), cash + shares * prices[0]
        got, want = [], []
        for t, action in enumerate(actions[:-1]):
            try:
                expected = reference_execute(portfolio, action, prices[t], rate, *fractions)
            except PastShareBound:
                with pytest.raises(ValueError, match=SHARE_BOUND):
                    env.step(state, action)
                with pytest.raises(ValueError, match=SHARE_BOUND):
                    execute_action(portfolio, action, prices[t], costs, *fractions)
                break
            state, _, reward, done = env.step(state, action)
            assert execute_action(portfolio, action, prices[t], costs, *fractions) == expected
            portfolio = expected
            marked = wealth(portfolio, prices[t + 1])
            if reward_mode == "percentage":
                expected_reward = (marked - wealth_prev) / wealth_prev
            else:
                expected_reward = marked - wealth_prev
            wealth_prev = marked
            last = t + 2 == len(prices)
            assert (state.step_index, state.done, done) == (t + 1, last, last)
            assert state.portfolio.shares == portfolio.shares
            got += [state.portfolio.cash, state.wealth_prev, reward]
            want += [portfolio.cash, marked, expected_reward]
        assert bits(got) == bits(want)

    @settings(max_examples=200, deadline=None)
    @given(trading_inputs())
    @example(ROUNDING_GUARD)
    @example(SHARE_BOUND_RUN)
    def test_simulate_equals_reference(self, inputs):
        prices, actions, cash, shares, rate, fractions = inputs
        dates = make_window(prices).dates
        seen = []

        def decide(t, portfolio):
            seen.append(portfolio)
            return actions[t]

        start = Portfolio(cash, shares)
        portfolio, want_seen, want_values, want_fills = start, [], [], []
        try:
            for t, price in enumerate(prices):
                want_seen.append(portfolio)
                after = reference_execute(portfolio, actions[t], price, rate, *fractions)
                delta = after.shares - portfolio.shares
                if delta:
                    side = "buy" if delta > 0 else "sell"
                    want_fills.append(Fill(dates[t], side, abs(delta), price, abs(delta) * price * rate))
                portfolio = after
                want_values.append(wealth(portfolio, price))
        except PastShareBound:
            with pytest.raises(ValueError, match=SHARE_BOUND):
                simulate(prices, dates, start, decide, CostModel(rate), *fractions)
            return
        curve, fills = simulate(prices, dates, start, decide, CostModel(rate), *fractions)
        assert [p.shares for p in seen] == [p.shares for p in want_seen]
        assert bits([p.cash for p in seen]) == bits([p.cash for p in want_seen])
        assert bits(curve.values) == bits(want_values)
        assert fills == want_fills
        assert bits([f.cost for f in fills]) == bits([f.cost for f in want_fills])
