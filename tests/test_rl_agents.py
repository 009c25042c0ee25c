from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantrl.experiment import (
    _state_keys, config_from_dict, load_bars, make_env as make_config_env, prepare_train,
)
from quantrl.market_data import generate_synthetic
from quantrl.metrics import Fill, match_trades

from quantrl.neural_net import (
    Mlp, _ParameterBlock, backward, clone_parameters, forward, init_mlp, sgd_step,
)
from quantrl.rl_agents import (
    Discretizer,
    EpsilonSchedule,
    HistoryRow,
    QTable,
    ReplayBuffer,
    TrainConfig,
    Transition,
    _ReplayArrays,
    _discretize_rows,
    _dqn_step,
    _greedy,
    _pcg64_draws,
    _stack,
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
def call_inputs(draw):
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


@st.composite
def row_inputs(draw, min_rows=1):
    """One set of cut points and a matrix of finite observations: on a cut, at
    +-0.0 and beyond the outer cuts included."""
    cuts = tuple(sorted(draw(st.sets(st.floats(-2.0, 2.0), min_size=1, max_size=4))))
    dim = draw(st.integers(1, 4))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, cuts[0] - 1.0, cuts[-1] + 1.0, *cuts]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = draw(
        st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=min_rows, max_size=30)
    )
    return cuts, np.array(rows)


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
    @given(call_inputs())
    def test_call_matches_discretize(self, inputs):
        cuts, pool, calls = inputs
        disc = Discretizer(cuts)
        for index, as_row in calls:
            obs = pool[index][None, :] if as_row else pool[index]
            assert disc(obs) == discretize(obs, cuts)
        with pytest.raises(ValueError, match="features"):
            disc(np.append(pool[0], 0.0))

    @settings(max_examples=200, deadline=None)
    @given(row_inputs())
    def test_rows_match_discretize(self, inputs):
        cuts, obs = inputs
        keys = _discretize_rows(obs, cuts)
        assert keys == [discretize(row, (cuts,) * obs.shape[1]) for row in obs]
        assert all(type(i) is int for key in keys for i in key)

    @settings(max_examples=200, deadline=None)
    @given(row_inputs(min_rows=2))
    def test_training_keys_match_discretize(self, inputs):
        """The key training reads for each observation an env hands out, in episode order."""
        cuts, obs = inputs
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(len(obs)))
        env = TradingEnv(MarketWindow(dates, np.ones(len(obs)), obs), 100.0)
        key_of = _state_keys(env, cuts)
        state, row = env.reset()
        keys = [key_of(row)]
        while not state.done:
            state, row, _, _ = env.step(state, Action.HOLD)
            keys.append(key_of(row))
        assert keys == [discretize(row, (cuts,) * obs.shape[1]) for row in obs]

    def test_equality_is_by_cuts(self):
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


# Finite action values with many ties and both signs of zero.
q_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e6, 1e6)
q_row = st.lists(q_value, min_size=3, max_size=3)


def reference_q_update(rows, s, a, r, s_next, terminal, alpha, gamma):
    """q_update on a dict of rows in numpy float64 arithmetic, zero rows for unseen keys."""
    target = r if terminal else r + gamma * float(rows.get(s_next, np.zeros(3)).max())
    q_s = rows.setdefault(s, np.zeros(3))
    q_s[a] += alpha * (target - q_s[a])


class TestQUpdateMatchesNumpyReference:
    @settings(max_examples=300, deadline=None)
    @given(
        q_row, q_row, st.sampled_from(list(Action)), q_value,
        st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(["seen", "unseen", "terminal"]), st.booleans(),
    )
    # a -0.0 reward onto a next row whose max is a signed-zero tie
    @example([0.0, -0.0, 0.0], [-0.0, 0.0, -1.0], Action.HOLD, -0.0, 0.5, 0.0, "seen", True)
    def test_bit_identical(self, row, next_row, action, r, alpha, gamma, next_state, seen_s):
        s, s_next = (0,), (1,)
        table, rows = QTable(), {}
        if seen_s:
            table._writable(s)[:] = row
            rows[s] = np.array(row)
        if next_state != "unseen":
            table._writable(s_next)[:] = next_row
            rows[s_next] = np.array(next_row)
        terminal = next_state == "terminal"
        q_update(table, s, action, r, s_next, terminal, alpha, gamma)
        reference_q_update(rows, s, int(action), r, s_next, terminal, alpha, gamma)
        assert sorted(k for k, _ in table.items()) == sorted(rows)
        for key, values in table.items():
            assert values.tobytes() == rows[key].tobytes()


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

    @settings(max_examples=300, deadline=None)
    @given(q_row)
    @example([-0.0, 0.0, -1.0])
    @example([0.0, -0.0, 0.0])
    def test_greedy_is_numpy_argmax_member(self, row):
        expected = Action(int(np.argmax(np.array(row))))
        assert select_action(np.array(row), 0.0) is expected
        assert select_action(row, 0.0) is expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.lists(q_row, min_size=1, max_size=20))
    def test_draws_match_reference(self, seed, epsilon, rows):
        """No draw at epsilon 0, else random() and, on explore, integers(0, 3)."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in rows:
            if epsilon > 0.0 and ref.random() < epsilon:
                expected = Action(int(ref.integers(0, 3)))
            else:
                expected = Action(int(np.argmax(np.array(row))))
            assert select_action(np.array(row), epsilon, rng) is expected
        assert rng.bit_generator.state == ref.bit_generator.state

    # a small pool makes ties, signed zeros and several NaNs in one row common
    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]), st.floats()),
        min_size=3, max_size=3,
    ))
    @example([1.0, np.nan, 2.0])
    @example([np.nan, np.inf, np.nan])
    @example([-0.0, 0.0, 0.0])
    def test_training_greedy_is_numpy_argmax(self, row):
        # training acts on it before the episode-end check catches a NaN
        assert _greedy(row) == int(np.argmax(np.array(row)))

    def test_epsilon_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            select_action(np.zeros(3), 0.5)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            select_action(np.zeros(3), 1.5, np.random.default_rng(0))


class CraftedWords:
    """A bit generator stand-in whose `random_raw` hands out the given 64-bit words in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, n):
        assert self.words, "asked for more words than were crafted"
        taken, self.words = self.words[:n], self.words[n:]
        return np.array(taken, dtype=np.uint64)


def numpy_lemire(halves, n):
    """numpy's `buffered_bounded_lemire_uint32` for `integers(0, n)`, over a stream of 32-bit draws."""
    rng_excl = n
    m = next(halves) * rng_excl
    leftover = m & 0xFFFFFFFF
    if leftover < rng_excl:
        threshold = (0xFFFFFFFF - (n - 1)) % rng_excl
        while leftover < threshold:
            m = next(halves) * rng_excl
            leftover = m & 0xFFFFFFFF
    return m >> 32


# per-step epsilons: none drawn at 0, an integers() call every step at 1
epsilons = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=80
)


class TestPcg64Draws:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**64 - 1), epsilons, st.integers(1, 5),
        st.sampled_from([3, 3, 2, 5, 2**31 + 1, 2**32 - 1]),
    )
    @example(7, [0.0] * 20, 1, 3)
    @example(7, [1.0] * 20, 3, 3)
    @example(11, [1.0, 0.0, 0.5] * 10, 2, 3)
    def test_matches_a_live_generator(self, seed, steps, block, n):
        """The epsilon decisions of training, drawn from blocks of `block` raw words."""
        random, integers = _pcg64_draws(np.random.default_rng(seed).bit_generator, n, block)
        ref = np.random.default_rng(seed)
        for epsilon in steps:
            if epsilon > 0.0:
                u = random()
                assert u == ref.random()
                if u < epsilon:
                    drawn = integers()
                    assert type(drawn) is int and drawn == ref.integers(0, n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, 2**32, 2**32 + 1, 2**64 - 1, 0xFFFFFFFF]),
                st.integers(0, 2**64 - 1),
            ),
            min_size=12, max_size=12,
        ),
        st.sampled_from([3, 2, 5, 2**31 + 1]),
    )
    @example([0, 1 << 32, 0] + [7] * 9, 3)  # a zero low half, then both halves zero
    def test_redraw_matches_numpy_lemire(self, words, n):
        """A 32-bit draw whose product with n has low bits below (2**32 - n) % n is drawn again."""
        halves = iter([half for w in words for half in (w & 0xFFFFFFFF, w >> 32)])
        expected = []
        with pytest.raises(StopIteration):
            while True:
                expected.append(numpy_lemire(halves, n))
        _, integers = _pcg64_draws(CraftedWords(words), n, 2)
        assert [integers() for _ in expected] == expected


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

    @pytest.mark.parametrize("action", [7, -1, 1.5])
    def test_transition_refuses_invalid_action(self, action):
        # dqn_update would regress nothing for it and still count it in the loss
        with pytest.raises(ValueError) as info:
            transition(action=action)
        assert str(info.value) == f"{action!r} is not a valid Action"


# id -> (call, message) of each refusal of a transition, cut points or a baseline's cash
REFUSALS = {
    "transition-shapes": (lambda: Transition(np.zeros(2), 0, 0.0, np.zeros(3), False),
                          "state and next_state must have identical shape"),
    "empty-feature-cuts": (lambda: Discretizer(((-0.5, 0.5), ())),
                           "each feature needs at least one cut point"),
    "buy-and-hold-cash": (lambda: baseline_buy_and_hold(make_series([100.0, 101.0]), 0.0),
                          "initial cash must be positive"),
    "crossover-cash": (lambda: baseline_sma_crossover(make_series([50.0] * 30), 3, 8, -1.0),
                       "initial cash must be positive"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_a_value_error_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


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


def masked_backward(net, target, batch, gamma, unselected=None):
    """The public masked `backward` toward the Bellman targets of the taken actions.

    `unselected` fills the target entries the mask leaves out (zeros if None).
    """
    rows = np.arange(len(batch))
    actions = np.array([t.action for t in batch])
    target_matrix = np.zeros((len(batch), 3)) if unselected is None else unselected.copy()
    mask = np.zeros((len(batch), 3), dtype=bool)
    target_matrix[rows, actions] = bellman_targets(batch, target, gamma)
    mask[rows, actions] = True
    states = np.stack([t.state for t in batch])
    return backward(net, states, target_matrix, mask)


def masked_backward_step(net, target, batch, gamma, lr):
    """dqn_update's reference: the public masked `backward`, then `sgd_step`."""
    loss, grads = masked_backward(net, target, batch, gamma)
    sgd_step(net, grads, lr)
    return loss


def random_transitions(rng, width, batch, scale):
    """`batch` transitions of `width`-wide states drawn from `rng` at magnitude `scale`."""
    return [
        Transition(scale * rng.normal(size=width), int(rng.integers(0, 3)),
                   scale * float(rng.normal()), scale * rng.normal(size=width),
                   bool(rng.random() < 0.2))
        for _ in range(batch)
    ]


def matmul_step(net, target, state_pairs, taken, rewards, terminal, gamma, lr):
    """`_dqn_step` as it stood with np.matmul for every product, frozen: its loss, its
    gradients and the online parameters it leaves, computed on copies."""
    layers = len(net.weights)
    weights = [np.stack(pair) for pair in zip(net.weights, target.weights)]
    biases = [np.stack(pair)[:, None, :] for pair in zip(net.biases, target.biases)]
    activations = [state_pairs]
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = np.add(np.matmul(activations[i], w), b)
        activations.append(np.maximum(a, 0.0) if i < layers - 1 else a)
    q, q_next = activations[-1]
    best = np.maximum.reduce(q_next, axis=1)
    best[terminal] = 0.0
    targets = rewards + gamma * best
    residual = np.where(taken, q - targets[:, None], 0.0)
    count = len(taken)
    loss = float(np.add.reduce(residual * residual, axis=None)) / count
    delta = 2.0 * residual / count
    grad_w, grad_b = [None] * layers, [None] * layers
    for layer in range(layers - 1, -1, -1):
        inputs = activations[layer][0]
        grad_w[layer] = np.matmul(inputs.T, delta)
        grad_b[layer] = np.add.reduce(delta, axis=0)
        if layer > 0:
            delta = np.matmul(delta, net.weights[layer].T) * (inputs > 0.0)
    grads = [*grad_w, *grad_b]
    params = [p - lr * g for p, g in zip((*net.weights, *net.biases), grads)]
    return loss, grads, params


DQN_STEP_CASES = dict(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    batch=st.integers(1, 64),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)


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
        expected_loss = masked_backward_step(reference, target, batch, 0.9, 0.05)

        loss = dqn_update(net, target, batch, 0.9, 0.05)
        assert loss == expected_loss
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, reference.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, reference.biases))

    def test_rejects_negative_learning_rate_and_other_layouts(self):
        net = init_mlp((2, 5, 3), seed=4)
        batch = [transition(reward=0.5, action=2, tag=0.3)]
        with pytest.raises(ValueError, match="learning rate must be non-negative"):
            dqn_update(net, clone_parameters(net), batch, 0.9, -0.05)
        with pytest.raises(ValueError, match="do not match"):
            dqn_update(net, init_mlp((2, 4, 3), seed=4), batch, 0.9, 0.05)

    @settings(max_examples=150, deadline=None)
    @given(**DQN_STEP_CASES)
    def test_core_step_is_backward_and_sgd_step_bit_for_bit(self, sizes, batch, scale, seed):
        # the stacked online/target step, no hidden layer included, against the
        # public path; its one-hot gradient is checked at three magnitudes
        rng = np.random.default_rng(seed)
        layers = (*sizes, 3)
        net, target = init_mlp(layers, seed=rng), init_mlp(layers, seed=rng)
        transitions = random_transitions(rng, sizes[0], batch, scale)
        reference = clone_parameters(net)
        expected_loss = masked_backward_step(reference, target, transitions, 0.95, 0.01)
        target_before = clone_parameters(target)

        loss = dqn_update(net, target, transitions, 0.95, 0.01)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        for got, want in zip((*net.weights, *net.biases), (*reference.weights, *reference.biases)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in zip((*target.weights, *target.biases),
                             (*target_before.weights, *target_before.biases)):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(**DQN_STEP_CASES)
    def test_step_gradients_are_masked_backward_bit_for_bit(self, sizes, batch, scale, seed):
        # _dqn_step's one-hot residual, no hidden layer included: its loss and every
        # gradient entry, which the updated parameters alone could hide by an ulp
        rng = np.random.default_rng(seed)
        layers = (*sizes, 3)
        net, target = init_mlp(layers, seed=rng), init_mlp(layers, seed=rng)
        transitions = random_transitions(rng, sizes[0], batch, scale)
        unselected = scale * rng.normal(size=(batch, 3))  # entries the mask must not count
        expected_loss, expected = masked_backward(net, target, transitions, 0.95, unselected)

        block = _ParameterBlock((net, target), batch)
        loss = _dqn_step(block, *_stack(transitions), 0.95, 0.01)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        for got, want in zip((*block.grads.weights, *block.grads.biases),
                             (*expected.weights, *expected.biases)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(**DQN_STEP_CASES)
    def test_step_is_the_frozen_matmul_step_bit_for_bit(self, sizes, batch, scale, seed):
        # independent of backward, which runs the same products as the step
        rng = np.random.default_rng(seed)
        layers = (*sizes, 3)
        net, target = init_mlp(layers, seed=rng), init_mlp(layers, seed=rng)
        arrays = _stack(random_transitions(rng, sizes[0], batch, scale))
        want_loss, want_grads, want_params = matmul_step(net, target, *arrays, 0.95, 0.01)

        block = _ParameterBlock((net, target), batch)
        loss = _dqn_step(block, *arrays, 0.95, 0.01)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        online = block.nets[0]
        for got, want in zip((*block.grads.weights, *block.grads.biases, *online.weights,
                              *online.biases), (*want_grads, *want_params)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert block.params[1].tobytes() == _ParameterBlock((target,), 1).params[0].tobytes()

    def test_step_reads_nothing_an_earlier_step_left_in_its_workspace(self):
        # every array the block holds for a step poisoned first, the flat gradient
        # included: a step must write each before reading it
        rng = np.random.default_rng(5)
        layers = (3, 6, 5, 3)
        net, target = init_mlp(layers, seed=rng), init_mlp(layers, seed=rng)
        batch = _stack(random_transitions(rng, 3, 8, 1.0))
        results = []
        for poisoned in (False, True):
            block = _ParameterBlock((net, target), 8)
            if poisoned:
                for a in (*block.activations, *block.deltas, *block.masks,
                          block.targets, block.residual, block.step, block.grad):
                    a.fill(True if a.dtype == bool else np.nan)
            loss = _dqn_step(block, *batch, 0.95, 0.01)
            results.append((np.float64(loss).tobytes(), block.params.tobytes(), block.grad.tobytes()))
        assert results[0] == results[1]


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


def trading_case(**extra):
    """(env, cut points) of a many-state tabular run on a GBM series with indicators."""
    def build():
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
                **extra,
            }
        )
        _, _, window = prepare_train(cfg, load_bars(cfg))
        return make_config_env(cfg, window), (tuple(cfg.state_cuts),) * window.obs_dim
    return build


# id -> (builder of the env and its cut points, episodes, fewest states the table must reach,
# (eps_start, eps_end))
REFERENCE_CASES = {
    "percentage-reward": (trading_case(), 8, 11, (1.0, 0.05)),
    "absolute-reward-half-sells": (
        trading_case(reward_mode="absolute", sell_fraction=0.5), 8, 11, (1.0, 0.05)),
    # the next observation depends on the action, and an episode lasts 2 or 3 steps
    "chain-mdp": (lambda: (ChainMdp(), ((0.5, 1.5),)), 200, 3, (1.0, 0.05)),
    # greedy throughout: nothing is drawn
    "percentage-reward-epsilon-0": (trading_case(), 8, 11, (0.0, 0.0)),
    "chain-mdp-epsilon-0": (lambda: (ChainMdp(), ((0.5, 1.5),)), 200, 3, (0.0, 0.0)),
    # random throughout: integers(0, 3) every step, both halves of each word
    "percentage-reward-epsilon-1": (trading_case(), 8, 11, (1.0, 1.0)),
    "chain-mdp-epsilon-1": (lambda: (ChainMdp(), ((0.5, 1.5),)), 200, 3, (1.0, 1.0)),
}


class TestTrainQLearning:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_twice_per_step_reference(self, case):
        build, episodes, states, (eps_start, eps_end) = REFERENCE_CASES[case]
        env, cuts = build()
        train_cfg = TrainConfig(
            alpha=0.2, gamma=0.9, episodes=episodes, seed=3, eps_start=eps_start,
            eps_end=eps_end, eps_decay_fraction=0.5,
        )
        schedule = EpsilonSchedule(eps_start, eps_end, episodes // 2 * env.steps_per_episode)
        table, history = train_qlearning(env, train_cfg, Discretizer(cuts))
        ref_table, ref_history = reference_qlearning(env, train_cfg, cuts, schedule)
        assert len(table) >= states
        pairs = list(zip(table.items(), ref_table.items(), strict=True))
        assert all(
            k == ref_k and q.dtype == ref_q.dtype and q.tobytes() == ref_q.tobytes()
            for (k, q), (ref_k, ref_q) in pairs
        )
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

    def test_non_finite_q_values_raise_at_episode_end(self):
        # an overflowed reward must not reach a saved table
        class Overflowing(ChainMdp):
            REWARDS = np.full((3, 3), np.inf)

        cfg = TrainConfig(alpha=0.1, episodes=2, seed=11)
        with pytest.raises(ValueError, match="non-finite Q-values after episode 0, step [23]$"):
            train_qlearning(Overflowing(), cfg, chain_discretizer)

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
        self.check_public_replay_reference((8,), 4, 0.05)

    def test_replay_rewrite_replaces_the_whole_action_mask(self):
        replay = _ReplayArrays(2, 1)
        for action in (2, 1, 0):  # the third push rewrites slot 0, which held action 2
            replay.push(np.zeros(1), action, 0.0, np.zeros(1), False)
        assert replay.taken.tolist() == [[True, False, False], [False, True, False]]

    @pytest.mark.parametrize(
        "hidden, batch_size, eps_end",
        [
            ((), 4, 0.05),
            ((5, 7, 3), 4, 0.05),
            ((8,), 1, 0.05),
            # epsilon is 0 for the last 8 steps, which draw nothing
            ((8,), 4, 0.0),
        ],
    )
    def test_matches_public_replay_reference_over_settings(self, hidden, batch_size, eps_end):
        self.check_public_replay_reference(hidden, batch_size, eps_end)

    # 39 pushes wrap a ring of at most 19 slots at least twice, so slots are
    # rewritten, often with another action; training reuses one parameter block
    # for every update, the reference builds a new one per update
    @settings(max_examples=200, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 8), max_size=3),
        capacity=st.integers(1, 19),
        data=st.data(),
        gamma=st.floats(0.0, 0.99),
        eps_end=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_public_replay_reference_property(
        self, hidden, capacity, data, gamma, eps_end, seed
    ):
        batch_size = data.draw(st.integers(1, capacity), label="batch_size")
        self.check_public_replay_reference(
            tuple(hidden), batch_size, eps_end, capacity=capacity, gamma=gamma, seed=seed
        )

    def check_public_replay_reference(
        self, hidden, batch_size, eps_end, capacity=16, gamma=0.99, seed=3
    ):
        # 3 episodes x 13 steps = 39 pushes; the default 16 slots wrap twice
        env = make_env(np.linspace(100, 115, 14), obs_dim=3)
        cfg = TrainConfig(
            alpha=0.01, gamma=gamma, episodes=3, batch_size=batch_size,
            buffer_capacity=capacity, target_sync_period=5, eps_end=eps_end, seed=seed,
        )
        layers = (3, *hidden, 3)
        trained, history = train_dqn(env, cfg, init_mlp(layers, seed=seed))

        # the same loop through ReplayBuffer, Transition and dqn_update
        net = init_mlp(layers, seed=seed)
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
            losses_per_episode.append(np.mean(losses).tobytes() if losses else None)

        for got, want in zip((*trained.weights, *trained.biases), (*net.weights, *net.biases)):
            assert got.tobytes() == want.tobytes()
        assert [None if r.mean_loss is None else np.float64(r.mean_loss).tobytes()
                for r in history] == losses_per_episode

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

    def test_buy_and_hold_keeps_opening_shares(self):
        # 3 opening shares; the cash buys 2 more at the first affordable close
        curve, fills = baseline_buy_and_hold(
            make_series([200.0, 90.0, 100.0]), 150.0, initial_shares=3
        )
        assert [(f.date, f.side, f.shares) for f in fills] == [(curve.dates[1], "buy", 1)]
        assert curve.values.tolist() == [750.0, 420.0, 460.0]

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

    def test_crossover_sells_opening_shares_without_long_signal(self):
        curve, fills = baseline_sma_crossover(make_series([50.0] * 30), 3, 8, 1000.0, initial_shares=4)
        assert [(f.date, f.side, f.shares) for f in fills] == [(curve.dates[0], "sell", 4)]
        assert curve.values.tolist() == [1200.0] * 30

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
        opening = [Fill(dates[0], "buy", shares, prices[0])] if shares else []
        trades = match_trades([*opening, *fills], prices[-1], dates[-1])
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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda width: st.dictionaries(
        st.tuples(*[st.integers(0, 12)] * width),
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e300]) | st.floats(-1e300, 1e300),
                 min_size=len(Action), max_size=len(Action)),
        max_size=20,
    )))
    def test_qtable_round_trip_bit_exact_over_magnitudes(self, tmp_path_factory, rows):
        table = QTable()
        for key, values in rows.items():
            table._writable(key)[:] = values
        path = tmp_path_factory.getbasetemp() / "property_q.csv"
        table.save(path)
        again = QTable.load(path)
        assert sorted(k for k, _ in again.items()) == sorted(rows)
        for key, values in table.items():
            assert again.action_values(key).tobytes() == values.tobytes()

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
