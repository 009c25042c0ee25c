from datetime import date, timedelta

import numpy as np
import pytest

from quantrl.trading_env import (
    Action,
    CostModel,
    MarketWindow,
    Portfolio,
    TradingEnv,
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

    def test_cash_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cash = float(rng.uniform(1.0, 10_000.0))
            price = float(rng.uniform(0.1, 500.0))
            rate = float(rng.uniform(0.0, 0.05))
            p = execute_buy(Portfolio(cash, 0), price, costs=CostModel(rate))
            assert p.cash >= 0.0


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
        assert env.reset()[0] == env.reset()[0]

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
