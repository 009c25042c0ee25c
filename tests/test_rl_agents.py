from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantrl.experiment import config_from_dict, load_bars, make_env as make_config_env, prepare_train
from quantrl.market_data import generate_synthetic
from quantrl.metrics import match_trades

from quantrl.neural_net import Mlp, backward, clone_parameters, forward, init_mlp, sgd_step
from quantrl.rl_agents import (
    Discretizer,
    EpsilonSchedule,
    HistoryRow,
    QTable,
    ReplayBuffer,
    TrainConfig,
    Transition,
    baseline_buy_and_hold,
    baseline_sma_crossover,
    bellman_targets,
    buffer_push,
    buffer_sample,
    discretize,
    dqn_update,
    q_update,
    select_action,
    simulate,
    train_dqn,
    train_qlearning,
    write_history,
)
from quantrl.trading_env import ZERO_COST, Action, CostModel, MarketWindow, Portfolio, TradingEnv

from conftest import make_series


def transition(reward=0.0, action=0, terminal=False, dim=2, tag=0.0):
    obs = np.full(dim, tag)
    return Transition(obs, action, reward, obs + 1.0, terminal)


def make_env(prices, cash=10_000.0, obs_dim=2):
    prices = np.asarray(prices, dtype=float)
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(prices.size))
    rng = np.random.default_rng(99)
    observations = rng.uniform(-1.0, 1.0, size=(prices.size, obs_dim))
    window = MarketWindow(dates, prices, observations)
    return TradingEnv(window, cash)


class ChainMdp:
    """Deterministic 3-state, 3-action episodic MDP used as an oracle target.

    Transitions always move toward the terminal state, so every episode
    ends within 3 steps under any policy.
    """

    REWARDS = np.array(
        [
            [0.2, 1.0, -0.5],
            [0.0, 1.5, 0.3],
            [2.0, -1.0, 0.5],
        ]
    )
    # next state per (state, action); state 3 is terminal
    NEXT = np.array(
        [
            [1, 2, 1],
            [2, 2, 2],
            [3, 3, 3],
        ]
    )

    steps_per_episode = 3

    def reset(self):
        return 0, np.array([0.0])

    def step(self, state, action):
        action = int(action)
        reward = float(self.REWARDS[state, action])
        nxt = int(self.NEXT[state, action])
        done = nxt == 3
        return nxt, np.array([float(min(nxt, 2))]), reward, done

    def roi(self, state):
        return 0.0

    def q_star(self, gamma):
        """Value-iteration oracle on the same dynamics."""
        q = np.zeros((3, 3))
        for _ in range(10_000):
            new = np.empty_like(q)
            for s in range(3):
                for a in range(3):
                    nxt = self.NEXT[s, a]
                    future = 0.0 if nxt == 3 else q[nxt].max()
                    new[s, a] = self.REWARDS[s, a] + gamma * future
            if np.abs(new - q).max() < 1e-13:
                return new
            q = new
        return q


def chain_discretizer(obs):
    return (int(obs[0]),)


@st.composite
def memo_inputs(draw):
    """Cut points, a pool of finite observations and a call order that repeats them."""
    dim = draw(st.integers(1, 4))
    cuts = tuple(
        tuple(sorted(draw(st.sets(st.floats(-2.0, 2.0), min_size=1, max_size=4))))
        for _ in range(dim)
    )
    values = st.one_of(
        st.sampled_from([0.0, -0.0, *(c for feature in cuts for c in feature)]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=1, max_size=5))
    calls = draw(
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=20)
    )
    return cuts, [np.array(obs) for obs in pool], [(0, False), *calls]


class TestDiscretize:
    CUTS = ((-0.001, 0.001),)

    def test_sign_bins(self):
        assert discretize(np.array([-0.05]), self.CUTS) == (0,)
        assert discretize(np.array([0.0]), self.CUTS) == (1,)
        assert discretize(np.array([0.05]), self.CUTS) == (2,)

    def test_tie_goes_to_lower_bin(self):
        assert discretize(np.array([-0.001]), self.CUTS) == (0,)
        assert discretize(np.array([0.001]), self.CUTS) == (1,)

    def test_per_feature_independence(self):
        cuts = ((-0.001, 0.001), (-0.001, 0.001))
        assert discretize(np.array([0.5, -0.5]), cuts) == (2, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            discretize(np.array([0.1, 0.2]), self.CUTS)

    def test_discretizer_uniform(self):
        disc = Discretizer.uniform(3, (-0.001, 0.001))
        assert disc.dim == 3
        assert disc(np.array([-1.0, 0.0, 1.0])) == (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(memo_inputs())
    def test_memo_matches_discretize(self, inputs):
        cuts, pool, calls = inputs
        disc = Discretizer(cuts)
        for index, as_row in calls:
            obs = pool[index][None, :] if as_row else pool[index]
            assert disc(obs) == discretize(obs, cuts)
        with pytest.raises(ValueError, match="features"):
            disc(np.append(pool[0], 0.0))

    def test_memo_stays_out_of_equality(self):
        used = Discretizer.uniform(2, (-0.001, 0.001))
        fresh = Discretizer.uniform(2, (-0.001, 0.001))
        assert used(np.array([0.5, -0.5])) == used(np.array([[0.5, -0.5]])) == (2, 0)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    def test_discretizer_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Discretizer(((0.5, 0.5),))
        with pytest.raises(ValueError, match="at least one"):
            Discretizer(())


class TestQUpdate:
    def test_basic_update(self):
        table = QTable()
        q_update(table, (0,), Action.BUY, 1.0, (1,), False, alpha=0.5, gamma=0.9)
        assert table.action_values((0,))[1] == 0.5

    def test_zero_reward_zero_table_fixed_point(self):
        table = QTable()
        q_update(table, (0,), Action.HOLD, 0.0, (1,), False, alpha=0.7, gamma=0.9)
        assert np.all(table.action_values((0,)) == 0.0)

    def test_terminal_full_alpha_sets_reward(self):
        table = QTable()
        table._writable((1,))[:] = 99.0  # next-state values must be ignored
        q_update(table, (0,), Action.SELL, 2.0, (1,), True, alpha=1.0, gamma=0.99)
        assert table.action_values((0,))[2] == 2.0

    def test_parameter_validation(self):
        table = QTable()
        with pytest.raises(ValueError, match="alpha"):
            q_update(table, (0,), 0, 0.0, (1,), False, alpha=0.0, gamma=0.9)
        with pytest.raises(ValueError, match="gamma"):
            q_update(table, (0,), 0, 0.0, (1,), False, alpha=0.5, gamma=1.0)

    def test_convex_combination(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            table = QTable()
            old = float(rng.normal())
            table._writable((0,))[0] = old
            nxt = rng.normal(size=3)
            table._writable((1,))[:] = nxt
            r = float(rng.normal())
            alpha = float(rng.uniform(0.01, 1.0))
            gamma = float(rng.uniform(0.0, 0.99))
            target = r + gamma * nxt.max()
            q_update(table, (0,), 0, r, (1,), False, alpha=alpha, gamma=gamma)
            new = table.action_values((0,))[0]
            lo, hi = min(old, target), max(old, target)
            assert lo - 1e-12 <= new <= hi + 1e-12

    def test_unvisited_reads_zero_without_insert(self):
        table = QTable()
        assert np.all(table.action_values((5, 5)) == 0.0)
        assert len(table) == 0


class TestSelectAction:
    def test_greedy_argmax(self):
        assert select_action(np.array([1.0, 3.0, 2.0]), 0.0) is Action.BUY

    def test_tie_breaks_low_index(self):
        assert select_action(np.array([5.0, 5.0, 1.0]), 0.0) is Action.HOLD

    def test_epsilon_one_uniform(self):
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        draws = 30_000
        for _ in range(draws):
            counts[select_action(np.array([9.0, 0.0, 0.0]), 1.0, rng)] += 1
        # binomial proportion bound: 3 sigma around 1/3
        sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
        assert np.all(np.abs(counts / draws - 1 / 3) < 3 * sigma)

    def test_greedy_invariance(self):
        values = np.array([0.3, -0.2, 0.9])
        base = select_action(values, 0.0)
        assert select_action(values + 7.0, 0.0) is base
        assert select_action(values * 3.5, 0.0) is base

    def test_epsilon_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            select_action(np.zeros(3), 0.5)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            select_action(np.zeros(3), 1.5, np.random.default_rng(0))


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        a, b, c = (transition(tag=float(i)) for i in range(3))
        buffer_push(buf, a)
        buffer_push(buf, b)
        buffer_push(buf, c)
        assert len(buf) == 2
        stored = buf.in_order()
        assert stored[0] is b and stored[1] is c

    def test_push_into_empty(self):
        buf = ReplayBuffer(10)
        buf.push(transition())
        assert len(buf) == 1

    def test_capacity_one(self):
        buf = ReplayBuffer(1)
        a, b = transition(tag=1.0), transition(tag=2.0)
        buf.push(a)
        buf.push(b)
        assert buf.in_order() == [b]

    def test_oldest_retained_index(self):
        buf = ReplayBuffer(5)
        items = [transition(tag=float(i)) for i in range(12)]
        for t in items:
            buf.push(t)
        # after 12 pushes into capacity 5, oldest retained is push #8 (index 7)
        assert buf.in_order()[0] is items[7]

    def test_sample_validation(self):
        buf = ReplayBuffer(4)
        buf.push(transition())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="cannot sample"):
            buffer_sample(buf, 2, rng)
        with pytest.raises(ValueError, match=">= 1"):
            buffer_sample(buf, 0, rng)

    def test_sample_single_forced(self):
        buf = ReplayBuffer(4)
        only = transition()
        buf.push(only)
        assert buffer_sample(buf, 1, np.random.default_rng(0))[0] is only

    def test_sample_deterministic_per_seed(self):
        buf = ReplayBuffer(16)
        for i in range(16):
            buf.push(transition(tag=float(i)))
        a = buffer_sample(buf, 8, np.random.default_rng(3))
        b = buffer_sample(buf, 8, np.random.default_rng(3))
        assert all(x is y for x, y in zip(a, b))

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            ReplayBuffer(0)


class TestBellmanTargets:
    def constant_net(self, outputs):
        # zero weights, bias = outputs: the net emits `outputs` for any input
        return Mlp((2, 3), [np.zeros((2, 3))], [np.asarray(outputs, dtype=float)])

    def test_all_terminal_targets_are_rewards(self):
        net = self.constant_net([5.0, 5.0, 5.0])
        batch = [transition(reward=0.3, terminal=True), transition(reward=-0.1, terminal=True)]
        assert bellman_targets(batch, net, 0.99).tolist() == [0.3, -0.1]

    def test_gamma_zero_myopic(self):
        net = self.constant_net([5.0, 6.0, 7.0])
        batch = [transition(reward=0.25)]
        assert bellman_targets(batch, net, 0.0).tolist() == [0.25]

    def test_arithmetic(self):
        net = self.constant_net([0.2, 0.5, -0.1])
        batch = [transition(reward=0.1)]
        assert bellman_targets(batch, net, 0.99)[0] == pytest.approx(0.595, rel=1e-12)


class TestDqnUpdate:
    def test_equals_masked_backward_step(self):
        net = init_mlp((2, 5, 3), seed=4)
        target = init_mlp((2, 5, 3), seed=5)
        batch = [
            transition(reward=0.5, action=2, tag=0.3),
            transition(reward=-1.0, action=0, terminal=True, tag=-0.7),
            transition(reward=0.25, action=2, tag=0.9),
        ]
        reference = clone_parameters(net)
        targets = bellman_targets(batch, target, 0.9)
        target_matrix = np.zeros((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        target_matrix[[0, 1, 2], [2, 0, 2]] = targets
        mask[[0, 1, 2], [2, 0, 2]] = True
        states = np.stack([t.state for t in batch])
        expected_loss, grads = backward(reference, states, target_matrix, mask)
        sgd_step(reference, grads, 0.05)

        loss = dqn_update(net, target, batch, 0.9, 0.05)
        assert loss == expected_loss
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, reference.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, reference.biases))


class TestEpsilonSchedule:
    def test_linear_decay_endpoints(self):
        sched = EpsilonSchedule(1.0, 0.05, 100)
        assert sched.value(0) == 1.0
        assert sched.value(50) == pytest.approx(0.525, rel=1e-12)
        assert sched.value(100) == 0.05
        assert sched.value(10_000) == 0.05

    def test_monotone_non_increasing(self):
        sched = EpsilonSchedule(0.9, 0.1, 37)
        values = [sched.value(i) for i in range(80)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(0.5, 0.9, 10)
        with pytest.raises(ValueError):
            EpsilonSchedule(1.0, 0.1, 0)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.001 and cfg.gamma == 0.99

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError, match="episodes"):
            TrainConfig(episodes=0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(gamma=1.0)


def reference_qlearning(env, cfg, cuts, schedule):
    """Q-learning that bins both observations of every step with `discretize`."""
    rng = np.random.default_rng(cfg.seed)
    table = QTable()
    history = []
    step = 0
    for episode in range(cfg.episodes):
        state, obs = env.reset()
        episode_eps = schedule.value(step)
        done = False
        while not done:
            key = discretize(obs, cuts)
            action = select_action(table.action_values(key), schedule.value(step), rng)
            state, next_obs, reward, done = env.step(state, action)
            next_key = discretize(next_obs, cuts)
            q_update(table, key, action, reward, next_key, done, cfg.alpha, cfg.gamma)
            obs = next_obs
            step += 1
        history.append(HistoryRow(episode, episode_eps, None, env.roi(state)))
    return table, history


class TestTrainQLearning:
    def test_matches_twice_per_step_reference(self):
        dates = generate_synthetic("gbm", length=160).dates()
        cfg = config_from_dict(
            {
                "data": {"synthetic": {"kind": "gbm", "length": 160, "seed": 4, "volatility": 0.3}},
                "agent": "qtable",
                "train_start": dates[0].isoformat(),
                "train_end": dates[119].isoformat(),
                "test_start": dates[120].isoformat(),
                "test_end": dates[-1].isoformat(),
                "use_indicators": True,
                "cost_rate": 0.002,
                "state_cuts": [-0.5, -0.1, 0.0, 0.1, 0.5, 0.97, 1.0, 1.03],
            }
        )
        _, _, window = prepare_train(cfg, load_bars(cfg))
        env = make_config_env(cfg, window)
        disc = Discretizer.uniform(window.obs_dim, cfg.state_cuts)
        train_cfg = TrainConfig(alpha=0.2, gamma=0.9, episodes=8, seed=3)
        schedule = EpsilonSchedule(1.0, 0.05, 4 * env.steps_per_episode)
        table, history = train_qlearning(env, train_cfg, disc, schedule)
        ref_table, ref_history = reference_qlearning(env, train_cfg, disc.cuts, schedule)
        assert len(table) > 10
        pairs = list(zip(table.items(), ref_table.items(), strict=True))
        assert all(k == ref_k and np.array_equal(q, ref_q) for (k, q), (ref_k, ref_q) in pairs)
        assert history == ref_history

    def test_deterministic_per_seed(self):
        env = make_env(np.linspace(100, 120, 12))
        disc = Discretizer.uniform(2, (-0.001, 0.001))
        cfg = TrainConfig(alpha=0.1, episodes=20, seed=5)
        t1, h1 = train_qlearning(env, cfg, disc)
        t2, h2 = train_qlearning(env, cfg, disc)
        d1, d2 = dict(t1.items()), dict(t2.items())
        assert d1.keys() == d2.keys()
        assert all(np.array_equal(d1[k], d2[k]) for k in d1)
        assert [r.roi for r in h1] == [r.roi for r in h2]

    def test_converges_to_value_iteration(self):
        mdp = ChainMdp()
        cfg = TrainConfig(alpha=0.1, gamma=0.99, episodes=2000, seed=11)
        table, history = train_qlearning(mdp, cfg, chain_discretizer)
        q_star = mdp.q_star(0.99)
        learned = np.array([table.action_values((s,)) for s in range(3)])
        assert np.abs(learned - q_star).max() < 1e-2
        assert len(history) == 2000

    def test_history_rows(self):
        env = make_env(np.linspace(100, 110, 8))
        disc = Discretizer.uniform(2, (-0.001, 0.001))
        _, history = train_qlearning(env, TrainConfig(alpha=0.1, episodes=3, seed=0), disc)
        assert [r.episode for r in history] == [0, 1, 2]
        assert history[0].mean_loss is None
        assert history[0].epsilon == 1.0


class TestTrainDqn:
    def small_setup(self, episodes=3, seed=7, **cfg_kwargs):
        env = make_env(np.linspace(100, 115, 14), obs_dim=3)
        cfg = TrainConfig(
            alpha=0.01, episodes=episodes, batch_size=8, buffer_capacity=64,
            target_sync_period=10, seed=seed, **cfg_kwargs
        )
        net = init_mlp((3, 8, 3), seed=seed)
        return env, cfg, net

    def test_bit_identical_per_seed(self):
        env, cfg, _ = self.small_setup()
        n1, h1 = train_dqn(env, cfg, init_mlp((3, 8, 3), seed=7))
        n2, h2 = train_dqn(env, cfg, init_mlp((3, 8, 3), seed=7))
        assert all(np.array_equal(a, b) for a, b in zip(n1.weights, n2.weights))
        assert all(np.array_equal(a, b) for a, b in zip(n1.biases, n2.biases))
        assert [r.mean_loss for r in h1] == [r.mean_loss for r in h2]

    def test_batch_larger_than_capacity_rejected(self):
        env, _, net = self.small_setup()
        cfg = TrainConfig(batch_size=128, buffer_capacity=64, episodes=1)
        with pytest.raises(ValueError, match="buffer_capacity"):
            train_dqn(env, cfg, net)

    def test_wrong_output_width_rejected(self):
        env, cfg, _ = self.small_setup()
        with pytest.raises(ValueError, match="3 outputs"):
            train_dqn(env, cfg, init_mlp((3, 8, 2), seed=0))

    def test_matches_public_replay_reference(self):
        # 3 episodes x 13 steps = 39 pushes into 16 slots: the ring wraps twice
        env = make_env(np.linspace(100, 115, 14), obs_dim=3)
        cfg = TrainConfig(
            alpha=0.01, episodes=3, batch_size=4, buffer_capacity=16,
            target_sync_period=5, seed=3,
        )
        trained, history = train_dqn(env, cfg, init_mlp((3, 8, 3), seed=3))

        # the same loop through ReplayBuffer, Transition and dqn_update
        net = init_mlp((3, 8, 3), seed=3)
        rng = np.random.default_rng(cfg.seed)
        total_steps = cfg.episodes * env.steps_per_episode
        schedule = EpsilonSchedule(cfg.eps_start, cfg.eps_end, round(0.8 * total_steps))
        target = clone_parameters(net)
        buffer = ReplayBuffer(cfg.buffer_capacity)
        losses_per_episode = []
        step = 0
        for _ in range(cfg.episodes):
            state, obs = env.reset()
            losses, done = [], False
            while not done:
                action = select_action(forward(net, obs), schedule.value(step), rng)
                state, next_obs, reward, done = env.step(state, action)
                buffer_push(buffer, Transition(obs, int(action), reward, next_obs, done))
                if len(buffer) >= cfg.batch_size:
                    batch = buffer_sample(buffer, cfg.batch_size, rng)
                    losses.append(dqn_update(net, target, batch, cfg.gamma, cfg.alpha))
                obs = next_obs
                step += 1
                if step % cfg.target_sync_period == 0:
                    target = clone_parameters(net)
            losses_per_episode.append(float(np.mean(losses)))

        assert all(np.array_equal(a, b) for a, b in zip(trained.weights, net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(trained.biases, net.biases))
        assert [r.mean_loss for r in history] == losses_per_episode

    def test_non_finite_loss_raises(self):
        env, cfg, net = self.small_setup()
        net.weights[0][:] = np.inf
        with pytest.raises(ValueError, match="diverged.*episode 0, step 7"):
            with np.errstate(invalid="ignore", over="ignore"):
                train_dqn(env, cfg, net)

    def test_non_finite_parameters_raise_at_episode_end(self):
        # batch larger than one episode: no update runs, only the parameter check
        env, _, net = self.small_setup()
        cfg = TrainConfig(episodes=2, batch_size=32, buffer_capacity=64, seed=7)
        net.biases[-1][0] = np.nan
        with pytest.raises(ValueError, match="non-finite parameters after episode 0, step 13"):
            train_dqn(env, cfg, net)

    def test_training_changes_parameters_and_records_loss(self):
        env, cfg, net = self.small_setup()
        before = clone_parameters(net)
        trained, history = train_dqn(env, cfg, net)
        assert any(
            not np.array_equal(a, b) for a, b in zip(trained.weights, before.weights)
        )
        assert any(r.mean_loss is not None for r in history)


class TestBaselines:
    def test_buy_and_hold_exact(self):
        curve, fills = baseline_buy_and_hold(make_series([100.0, 110.0]), 1000.0)
        assert curve.values.tolist() == [1000.0, 1100.0]
        assert curve.roi() == pytest.approx(0.10, rel=1e-12)
        assert len(fills) == 1 and fills[0].shares == 10

    def test_buy_and_hold_constant(self):
        curve, _ = baseline_buy_and_hold(make_series([50.0, 50.0, 50.0]), 1000.0)
        assert curve.roi() == 0.0

    def test_buy_and_hold_remainder(self):
        closes = [100.0, 105.0, 95.0]
        curve, fills = baseline_buy_and_hold(make_series(closes), 150.0)
        assert fills[0].shares == 1
        assert curve.values.tolist() == [150.0, 155.0, 145.0]  # 50 cash + close

    def test_buy_and_hold_waits_for_affordable_close(self):
        curve, fills = baseline_buy_and_hold(make_series([200.0, 90.0, 100.0]), 150.0)
        assert fills[0].date == curve.dates[1]
        assert curve.values.tolist() == [150.0, 150.0, 160.0]

    def test_buy_and_hold_costs_reduce_entry(self):
        curve, fills = baseline_buy_and_hold(
            make_series([100.0, 100.0]), 1000.0, CostModel(0.01)
        )
        # floor(1000 / 101) = 9 shares at 101 all-in cost
        assert fills[0].shares == 9
        assert curve.values[0] == pytest.approx(1000.0 - 9 * 100.0 * 1.01 + 900.0, rel=1e-12)

    def test_buy_and_hold_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            baseline_buy_and_hold(make_series([100.0]), 1000.0)

    def test_crossover_rising_enters_once(self):
        closes = [100.0 * 1.01**i for i in range(30)]
        curve, fills = baseline_sma_crossover(make_series(closes), 3, 8, 100_000.0)
        assert len(fills) == 1 and fills[0].side == "buy"
        assert curve.roi() > 0.0

    def test_crossover_constant_never_long(self):
        curve, fills = baseline_sma_crossover(make_series([50.0] * 30), 3, 8, 1000.0)
        assert fills == []
        assert curve.roi() == 0.0

    def test_crossover_period_validation(self):
        series = make_series([50.0] * 30)
        with pytest.raises(ValueError, match="slow_period > fast_period"):
            baseline_sma_crossover(series, 8, 8, 1000.0)
        with pytest.raises(ValueError, match="longer than"):
            baseline_sma_crossover(make_series([50.0] * 5), 2, 8, 1000.0)

    def test_crossover_round_trips(self):
        # one full hump: enters on the way up, exits on the way down
        t = np.arange(40)
        closes = 100.0 + 20.0 * np.sin(np.pi * t / 20.0)
        curve, fills = baseline_sma_crossover(make_series(closes.tolist()), 2, 5, 10_000.0)
        sides = [f.side for f in fills]
        assert "buy" in sides and "sell" in sides


@st.composite
def simulation_inputs(draw):
    """A positive price path, one random action per close, and a start portfolio."""
    n = draw(st.integers(2, 40))
    prices = draw(st.lists(st.floats(1.0, 1_000.0), min_size=n, max_size=n))
    actions = draw(st.lists(st.sampled_from(list(Action)), min_size=n, max_size=n))
    cash = draw(st.floats(1.0, 1e5))
    shares = draw(st.integers(0, 50))
    fractions = draw(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
    return prices, actions, cash, shares, fractions


def run_simulation(prices, actions, cash, shares, fractions, costs=ZERO_COST):
    """simulate() under a decide rule that plays `actions` and records each portfolio it sees."""
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(len(prices)))
    seen = []

    def decide(t, portfolio):
        seen.append(portfolio)
        return actions[t]

    curve, fills = simulate(prices, dates, Portfolio(cash, shares), decide, costs, *fractions)
    assert len(seen) == len(prices)
    return dates, seen, curve, fills


def signed_shares(fills):
    return sum(f.shares if f.side == "buy" else -f.shares for f in fills)


class TestSimulate:
    @settings(max_examples=150, deadline=None)
    @given(simulation_inputs(), st.floats(0.0, 0.05))
    def test_never_negative_and_fills_reconcile(self, inputs, rate):
        prices, actions, cash, shares, fractions = inputs
        dates, seen, curve, fills = run_simulation(*inputs, costs=CostModel(rate))
        by_date = {f.date: f for f in fills}
        assert len(by_date) == len(fills)  # at most one fill per close
        for p in seen:
            assert p.cash >= 0 and p.shares >= 0
        for t in range(len(prices) - 1):
            fill = by_date.get(dates[t])
            assert seen[t + 1].shares - seen[t].shares == (signed_shares([fill]) if fill else 0)
            if fill:
                assert fill.price == prices[t]
                assert fill.cost == fill.shares * prices[t] * rate
            # marked at the close it traded at
            assert curve.values[t] == seen[t + 1].cash + seen[t + 1].shares * prices[t]
        final_shares = shares + signed_shares(fills)
        assert final_shares >= 0
        assert curve.values[-1] - final_shares * prices[-1] >= -1e-9 * curve.values[-1]

    @settings(max_examples=150, deadline=None)
    @given(simulation_inputs())
    def test_wealth_conserved_across_trades_at_zero_cost(self, inputs):
        prices, *_ = inputs
        _, seen, curve, _ = run_simulation(*inputs)
        for t, before in enumerate(seen):
            assert curve.values[t] == pytest.approx(before.cash + before.shares * prices[t], rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(simulation_inputs(), st.floats(0.0, 0.05))
    def test_matched_shares_sum_to_bought_shares(self, inputs, rate):
        prices, _, _, shares, _ = inputs
        dates, _, _, fills = run_simulation(*inputs, costs=CostModel(rate))
        opening = (dates[0], shares, prices[0]) if shares else None
        trades = match_trades(fills, prices[-1], dates[-1], opening_lot=opening)
        bought = shares + sum(f.shares for f in fills if f.side == "buy")
        assert sum(t.shares for t in trades) == bought

    def test_hold_keeps_the_start_portfolio(self):
        dates, seen, curve, fills = run_simulation(
            [10.0, 12.0, 9.0], [Action.HOLD] * 3, 100.0, 2, (1.0, 1.0)
        )
        assert fills == [] and all(p == Portfolio(100.0, 2) for p in seen)
        assert curve.values.tolist() == [120.0, 124.0, 118.0]

    def test_trades_on_the_final_close(self):
        _, _, curve, fills = run_simulation(
            [10.0, 20.0], [Action.HOLD, Action.BUY], 100.0, 0, (1.0, 1.0)
        )
        assert [(f.side, f.shares, f.price) for f in fills] == [("buy", 5, 20.0)]
        assert curve.values.tolist() == [100.0, 100.0]


class TestSerialization:
    def test_qtable_round_trip(self, tmp_path):
        table = QTable()
        table._writable((0, 1, 2))[:] = [0.5, -1.25, 3.75]
        table._writable((2, 0, 1))[:] = [1e-17, 2.0, -3.0]
        path = tmp_path / "q.csv"
        table.save(path)
        again = QTable.load(path)
        assert sorted(k for k, _ in again.items()) == sorted(k for k, _ in table.items())
        for key, values in table.items():
            assert np.array_equal(again.action_values(key), values)

    def test_qtable_bad_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("bogus\n")
        with pytest.raises(ValueError, match="q-table"):
            QTable.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_qtable_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "q.csv"
        path.write_text(f"state_key,q_hold,q_buy,q_sell\n0-1,0.5,{bad},1.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            QTable.load(path)

    def test_history_csv(self, tmp_path):
        rows = [HistoryRow(0, 1.0, None, 0.05), HistoryRow(1, 0.5, 0.125, -0.02)]
        path = tmp_path / "history.csv"
        write_history(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "episode,epsilon,mean_loss,roi"
        assert text[1] == "0,1.0,,0.05"
        assert text[2] == "1,0.5,0.125,-0.02"
