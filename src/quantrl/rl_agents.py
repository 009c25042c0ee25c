"""Learning algorithms and baseline strategies.

Tabular Q-learning over discretized observations, a DQN trained with
experience replay and a periodically synchronized target network, the
evaluation loop (`simulate`) and the two non-learning benchmarks run by it
(buy-and-hold, SMA crossover). Every stochastic choice flows from one
seeded generator, so identical seeds give identical training runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date
from itertools import chain
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .market_data import BarSeries, sma
from .metrics import EquityCurve, Fill
from .neural_net import (
    Mlp,
    _ParameterBlock,
    _ZERO,
    _backprop,
    _copy_parameters,
    _forward,
    forward,
)
from .trading_env import Action, CostModel, Portfolio, ZERO_COST, _trade

StateKey = tuple[int, ...]

_ACTIONS = tuple(Action)
# Row a of the identity: the one-hot mask of action a.
_ONE_HOT = np.eye(len(_ACTIONS), dtype=bool)
# What an unvisited state reads as; shared, so it is read-only.
_ZERO_ROW = np.zeros(len(Action))
_ZERO_ROW.flags.writeable = False
_QTABLE_HEADER = "state_key,q_hold,q_buy,q_sell"


class Env(Protocol):
    """What the training loops need from an environment, and no more.

    TradingEnv's observations depend only on the step index, but an Env's
    next observation may also depend on the action taken (a chain MDP does).
    """

    steps_per_episode: int

    def reset(self): ...

    def step(self, state, action): ...

    def roi(self, state) -> float: ...


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool

    def __post_init__(self) -> None:
        if np.asarray(self.state).shape != np.asarray(self.next_state).shape:
            raise ValueError("state and next_state must have identical shape")
        if self.action not in (Action.HOLD, Action.BUY, Action.SELL):
            raise ValueError(f"{self.action!r} is not a valid Action")


class ReplayBuffer:
    """Bounded FIFO store of transitions; eviction is strictly oldest-first."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._ring)

    def push(self, transition: Transition) -> "ReplayBuffer":
        if len(self._ring) < self.capacity:
            self._ring.append(transition)
        else:
            self._ring[self._next] = transition
            self._next = (self._next + 1) % self.capacity
        return self

    def in_order(self) -> list[Transition]:
        """Stored transitions, oldest first."""
        return self._ring[self._next :] + self._ring[: self._next]

    def sample(self, k: int, rng: np.random.Generator) -> list[Transition]:
        """k transitions drawn uniformly with replacement."""
        if k < 1:
            raise ValueError("batch size must be >= 1")
        if k > len(self._ring):
            raise ValueError(f"cannot sample {k} from buffer of size {len(self._ring)}")
        indices = rng.integers(0, len(self._ring), size=k)
        return [self._ring[i] for i in indices]


class _ReplayArrays:
    """Array-backed replay for the training loop.

    Fills and evicts slots in ReplayBuffer's order and samples with the same
    single `rng.integers` draw, so a batch holds the same values a
    ReplayBuffer of Transitions would return, without per-step objects.
    States and next states share one (2, capacity, width) ring, so a batch's
    pair is one gather, stacked as the online/target forward takes it. Each
    action is stored as its one-hot row, the mask the update regresses.
    """

    def __init__(self, capacity: int, obs_dim: int) -> None:
        self.capacity = capacity
        self.size = 0
        self._pushes = 0
        self.state_pairs = np.empty((2, capacity, obs_dim))
        self.taken = np.empty((capacity, len(_ACTIONS)), dtype=bool)
        self.rewards = np.empty(capacity)
        self.terminal = np.empty(capacity, dtype=bool)

    def push(self, state, action: int, reward: float, next_state, terminal: bool) -> None:
        slot = self._pushes % self.capacity
        self.state_pairs[0, slot] = state
        self.state_pairs[1, slot] = next_state
        self.taken[slot] = _ONE_HOT[action]
        self.rewards[slot] = reward
        self.terminal[slot] = terminal
        self._pushes += 1
        self.size = min(self._pushes, self.capacity)

    def sample(self, k: int, rng: np.random.Generator):
        """(state pairs (2, k, width), taken (k, actions), rewards, terminal) of k uniform draws."""
        i = rng.integers(0, self.size, size=k)
        return self.state_pairs.take(i, 1), self.taken.take(i, 0), self.rewards[i], self.terminal[i]


def _stack(batch: Sequence[Transition]):
    """A Transition list as the arrays _ReplayArrays.sample returns."""
    return (
        np.stack([[t.state for t in batch], [t.next_state for t in batch]]),
        np.array([int(t.action) for t in batch])[:, None] == np.arange(len(_ACTIONS)),
        np.array([t.reward for t in batch], dtype=float),
        np.array([t.terminal for t in batch], dtype=bool),
    )


def buffer_push(buf: ReplayBuffer, transition: Transition) -> ReplayBuffer:
    return buf.push(transition)


def buffer_sample(buf: ReplayBuffer, k: int, rng: np.random.Generator) -> list[Transition]:
    return buf.sample(k, rng)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear decay from eps_start to eps_end, flat afterwards."""

    eps_start: float = 1.0
    eps_end: float = 0.05
    decay_steps: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.eps_end <= self.eps_start <= 1.0):
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")
        if self.decay_steps < 1:
            raise ValueError("decay_steps must be >= 1")

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.eps_end
        return self.eps_start + (self.eps_end - self.eps_start) * (step / self.decay_steps)


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.001
    gamma: float = 0.99
    episodes: int = 200
    batch_size: int = 32
    buffer_capacity: int = 10_000
    target_sync_period: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")
        EpsilonSchedule(self.eps_start, self.eps_end)  # validates the epsilon range
        if not 0.0 < self.eps_decay_fraction <= 1.0:
            raise ValueError("eps_decay_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class HistoryRow:
    episode: int
    epsilon: float
    mean_loss: float | None
    roi: float


HISTORY_HEADER = ",".join(f.name for f in fields(HistoryRow))


def write_history(rows: Sequence[HistoryRow], path: str | Path) -> None:
    lines = [HISTORY_HEADER]
    for row in rows:
        loss = "" if row.mean_loss is None else repr(float(row.mean_loss))
        lines.append(f"{row.episode},{repr(float(row.epsilon))},{loss},{repr(float(row.roi))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Discretizer:
    """Maps observation vectors to per-feature bin indices via cut points."""

    cuts: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cuts", tuple(tuple(c) for c in self.cuts))
        if not self.cuts:
            raise ValueError("need cut points for at least one feature")
        for feature_cuts in self.cuts:
            if not feature_cuts:
                raise ValueError("each feature needs at least one cut point")
            if any(b <= a for a, b in zip(feature_cuts, feature_cuts[1:])):
                raise ValueError("cut points must be strictly increasing")

    @classmethod
    def uniform(cls, dim: int, cuts: Sequence[float]) -> "Discretizer":
        """Same cut points for every one of `dim` features."""
        return cls(tuple(tuple(cuts) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.cuts)

    def __call__(self, obs: np.ndarray) -> StateKey:
        return discretize(obs, self.cuts)


def discretize(obs: np.ndarray, cuts: Sequence[Sequence[float]]) -> StateKey:
    """Bin each feature by its cut points; values on a cut go to the lower bin."""
    values = np.asarray(obs, dtype=float).ravel()
    if values.size != len(cuts):
        raise ValueError(f"observation has {values.size} features, cuts cover {len(cuts)}")
    return tuple(
        int(np.searchsorted(np.asarray(feature_cuts, dtype=float), v, side="left"))
        for v, feature_cuts in zip(values, cuts)
    )


def _discretize_rows(obs: np.ndarray, cuts: Sequence[float]) -> list[StateKey]:
    """`discretize` of each row of a matrix, with the same cut points for every feature.

    One `searchsorted` bins the whole matrix, without a per-row call.
    """
    bins = np.searchsorted(np.asarray(cuts, dtype=float), np.asarray(obs, dtype=float), side="left")
    return [tuple(row) for row in bins.tolist()]


class QTable:
    """State key to one value per action; unvisited states read as zero."""

    def __init__(self) -> None:
        self._q: dict[StateKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._q)

    def action_values(self, key: StateKey) -> np.ndarray:
        """The stored row of `key`, or a read-only zero row if it was never updated."""
        stored = self._q.get(key)
        return stored if stored is not None else _ZERO_ROW

    def _writable(self, key: StateKey) -> np.ndarray:
        stored = self._q.get(key)
        if stored is None:
            stored = np.zeros(len(Action))
            self._q[key] = stored
        return stored

    def items(self):
        return self._q.items()

    def save(self, path: str | Path) -> None:
        lines = [_QTABLE_HEADER]
        for key in sorted(self._q):
            key_text = "-".join(str(i) for i in key)
            lines.append(",".join([key_text, *(repr(float(v)) for v in self._q[key])]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "QTable":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != _QTABLE_HEADER:
            raise ValueError(f"{path}: not a q-table file")
        table = cls()
        for line in lines[1:]:
            if not line:
                continue
            key_text, *values = line.split(",")
            if len(values) != len(Action):
                raise ValueError(f"{path}: malformed row {line!r}")
            try:
                key = tuple(int(tok) for tok in key_text.split("-"))
            except ValueError:
                raise ValueError(f"{path}: malformed state key in row {line!r}") from None
            if key in table._q:
                raise ValueError(f"{path}: repeated state {key_text} in row {line!r}")
            q = np.array([float(v) for v in values])
            if not np.isfinite(q).all():
                raise ValueError(f"{path}: non-finite value in row {line!r}")
            table._q[key] = q
        return table


def q_update(
    table: QTable,
    s: StateKey,
    a: Action | int,
    r: float,
    s_next: StateKey,
    terminal: bool,
    alpha: float,
    gamma: float,
) -> QTable:
    """Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)); terminal drops the max."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    # Python floats round as float64 does. On a finite row max() differs from
    # np.max at most in the sign of a zero, which the update below cannot see.
    target = r if terminal else r + gamma * max(table.action_values(s_next).tolist())
    q_s = table._writable(s)
    a = int(a)
    q = q_s.item(a)
    q_s[a] = q + alpha * (target - q)
    return table


def select_action(
    values: np.ndarray | Sequence[float],
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> Action:
    """Epsilon-greedy: random with probability epsilon, else argmax.

    Ties break toward the lowest action index. With epsilon 0 no generator
    is needed or consumed.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng is None:
        raise ValueError("epsilon > 0 requires a random generator")
    explored = _explore(epsilon, rng)
    return explored if explored is not None else _ACTIONS[np.asarray(values, dtype=float).argmax()]


def _greedy(row: Sequence[float]) -> int:
    """`np.argmax` of a three-value row: the first NaN if there is one, else the first maximum."""
    hold, buy, sell = row
    # Every comparison with a NaN is false, so each test also says its operands are numbers.
    if hold >= buy and hold >= sell:
        return 0
    if buy > hold and buy >= sell:
        return 1
    if sell > hold and sell > buy:
        return 2
    return next(i for i, v in enumerate(row) if v != v)


def _explore(epsilon: float, rng: np.random.Generator | None) -> Action | None:
    """The epsilon draw: a random action with probability epsilon, else None.

    At epsilon 0 nothing is drawn; otherwise one `random()`, then one
    `integers(0, 3)` when it explores.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return _ACTIONS[rng.integers(0, len(_ACTIONS))]
    return None


def _pcg64_draws(bit_generator: np.random.BitGenerator, n: int, block: int = 1024):
    """A fresh PCG64 Generator's `random()` and `integers(0, n)`, 2 <= n < 2**32, call for call.

    Both decode raw words fetched `block` at a time: `random()` is a word's top 53 bits
    times 2**-53; `integers` is numpy's 32-bit Lemire draw on a word's low half, then its
    high half (kept across `random()` calls), redrawn while half * n % 2**32 < (2**32 - n) % n.
    """
    words = chain.from_iterable(iter(lambda: bit_generator.random_raw(block).tolist(), None))
    threshold = (2**32 - n) % n
    spare = None

    def random() -> float:
        return (next(words) >> 11) * 2.0**-53

    def integers() -> int:
        nonlocal spare
        while True:
            if spare is None:
                word = next(words)
                half, spare = word & 0xFFFFFFFF, word >> 32
            else:
                half, spare = spare, None
            product = half * n
            if product & 0xFFFFFFFF >= threshold:
                return product >> 32

    return random, integers


def bellman_targets(
    batch: Sequence[Transition], target_net: Mlp, gamma: float
) -> np.ndarray:
    """r_i, plus gamma * max of the target network at next_state_i unless terminal."""
    state_pairs, _, rewards, terminal = _stack(batch)
    return _targets(rewards, forward(target_net, state_pairs[1]), terminal, gamma)


def _targets(rewards, q_next: np.ndarray, terminal, gamma: float, out=None) -> np.ndarray:
    """The Bellman targets, given the target network's values at each next state; into `out`."""
    best = np.maximum.reduce(q_next, axis=1, out=out)
    np.copyto(best, _ZERO, where=terminal)
    return np.add(rewards, np.multiply(gamma, best, out=best), out=best)


def _schedule_for(env: Env, cfg: TrainConfig) -> EpsilonSchedule:
    total_steps = cfg.episodes * env.steps_per_episode
    decay = max(1, int(round(cfg.eps_decay_fraction * total_steps)))
    return EpsilonSchedule(cfg.eps_start, cfg.eps_end, decay)


def train_qlearning(
    env: Env,
    cfg: TrainConfig,
    discretizer: Callable[[np.ndarray], StateKey],
) -> tuple[QTable, list[HistoryRow]]:
    """Tabular Q-learning, cfg.episodes full passes; a non-finite Q-value raises ValueError.

    Each step is `select_action` then `q_update`, inlined on rows of Python
    floats: the same draws (decoded from raw words), the same greedy picks and
    the same float64 arithmetic, so the table and history equal those two
    calls'. A state gets its row on its first update, as `QTable._writable` adds it.
    """
    if not 0.0 < cfg.alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    alpha, gamma = cfg.alpha, cfg.gamma
    random, integers = _pcg64_draws(np.random.default_rng(cfg.seed).bit_generator, len(_ACTIONS))
    epsilon_at = _schedule_for(env, cfg).value
    env_step = env.step
    width = len(_ACTIONS)
    zero = [0.0] * width  # what an unvisited state reads as; never written
    q: dict[StateKey, list[float]] = {}
    history: list[HistoryRow] = []
    step = 0
    for episode in range(cfg.episodes):
        state, obs = env.reset()
        key = discretizer(obs)
        episode_eps = epsilon_at(step)
        done = False
        while not done:
            epsilon = epsilon_at(step)
            if epsilon > 0.0 and random() < epsilon:
                action = integers()
            else:
                action = _greedy(q.get(key, zero))
            state, next_obs, reward, done = env_step(state, _ACTIONS[action])
            next_key = discretizer(next_obs)
            target = reward if done else reward + gamma * max(q.get(next_key, zero))
            row = q.get(key)
            if row is None:
                row = q[key] = [0.0] * width
            value = row[action]
            row[action] = value + alpha * (target - value)
            key = next_key
            step += 1
        if not np.isfinite(list(q.values())).all():
            raise ValueError(
                f"training diverged: non-finite Q-values after episode {episode}, step {step}"
            )
        history.append(HistoryRow(episode, episode_eps, None, env.roi(state)))
    table = QTable()
    table._q = {k: np.array(row, dtype=float) for k, row in q.items()}
    return table, history


def dqn_update(
    net: Mlp,
    target_net: Mlp,
    batch: Sequence[Transition],
    gamma: float,
    lr: float,
) -> float:
    """One masked-MSE SGD step toward the Bellman targets; returns the loss."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    block = _ParameterBlock((net, target_net), len(batch))
    loss = _dqn_step(block, *_stack(batch), gamma, lr)
    _copy_parameters(block.nets[0], net)
    return loss


def _dqn_step(
    block: _ParameterBlock,
    state_pairs: np.ndarray,
    taken: np.ndarray,
    rewards: np.ndarray,
    terminal: np.ndarray,
    gamma: float,
    lr: float,
) -> float:
    """dqn_update of block row 0 (online) against row 1 (target): only Q(s_i, a_i) regresses.

    One stacked forward gives the online net's values at the states and the
    target net's at the next states; `taken` is each row's one-hot action
    mask. Every intermediate goes to the block's buffers; the SGD step updates
    row 0 in place. With two hidden layers that is 32 numpy calls (8 forward,
    4 targets, 2 residual, 16 backprop, 2 SGD). gamma and lr may be 0-d arrays.
    """
    _forward(block.stacked, state_pairs, block.activations)
    _targets(rewards, block.q_next, terminal, gamma, block.targets)
    residual = block.residual
    residual.fill(0.0)  # where=taken leaves the other entries as they are
    np.subtract(block.online[-1], block.column, out=residual, where=taken)
    loss = _backprop(block, state_pairs[0], residual, len(taken))
    np.subtract(block.row, np.multiply(lr, block.grad, out=block.step), out=block.row)
    return loss


def _check_outputs(net: Mlp) -> None:
    """A Q-network has one output per action."""
    if net.layer_sizes[-1] != len(Action):
        raise ValueError(f"network must emit one value per action ({len(Action)} outputs)")


# A diverging update overflows; the finite checks report that, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train_dqn(
    env: Env,
    cfg: TrainConfig,
    net: Mlp,
) -> tuple[Mlp, list[HistoryRow]]:
    """DQN training with uniform replay and a periodically synced target net.

    Gradient steps start once the buffer holds batch_size transitions; the
    target network is re-cloned every target_sync_period environment steps.
    Replay lives in arrays that match a ReplayBuffer of Transitions slot for
    slot and draw for draw. Online and target networks are the two rows of
    one parameter block; `net` receives the online row when training ends.
    A non-finite loss or parameter raises ValueError.
    """
    if cfg.batch_size > cfg.buffer_capacity:
        raise ValueError("batch_size cannot exceed buffer_capacity")
    _check_outputs(net)
    # Numpy's own calls, not _pcg64_draws: the replay draw `integers(0, size,
    # size=k)` shares the spare 32-bit half that `integers(0, 3)` leaves.
    rng = np.random.default_rng(cfg.seed)
    schedule = _schedule_for(env, cfg)
    block = _ParameterBlock((net, net), cfg.batch_size)
    online, params = block.nets[0], block.params
    replay = _ReplayArrays(cfg.buffer_capacity, net.layer_sizes[0])
    # Bound once for the step loop; gamma and alpha as 0-d arrays, as _ZERO is.
    push, sample, env_step, epsilon = replay.push, replay.sample, env.step, schedule.value
    batch_size, sync = cfg.batch_size, cfg.target_sync_period
    gamma, alpha = np.array(cfg.gamma), np.array(cfg.alpha)
    history: list[HistoryRow] = []
    step = 0
    for episode in range(cfg.episodes):
        state, obs = env.reset()
        episode_eps = epsilon(step)
        losses: list[float] = []
        done = False
        while not done:
            action = _explore(epsilon(step), rng)
            if action is None:
                action = _ACTIONS[forward(online, obs).argmax()]
            state, next_obs, reward, done = env_step(state, action)
            push(obs, int(action), reward, next_obs, done)
            if replay.size >= batch_size:
                loss = _dqn_step(block, *sample(batch_size, rng), gamma, alpha)
                if not math.isfinite(loss):
                    raise ValueError(
                        f"training diverged: loss {loss} at episode {episode}, step {step}"
                    )
                losses.append(loss)
            obs = next_obs
            step += 1
            if step % sync == 0:
                params[1] = params[0]
        if not np.isfinite(params[0]).all():
            raise ValueError(
                f"training diverged: non-finite parameters after episode {episode}, step {step}"
            )
        mean_loss = float(np.mean(losses)) if losses else None
        history.append(HistoryRow(episode, episode_eps, mean_loss, env.roi(state)))
    return _copy_parameters(online, net), history


def simulate(
    prices: Sequence[float] | np.ndarray,
    dates: Sequence[date],
    portfolio: Portfolio,
    decide: Callable[[int, Portfolio], Action | int],
    costs: CostModel = ZERO_COST,
    buy_fraction: float = 1.0,
    sell_fraction: float = 1.0,
) -> tuple[EquityCurve, list[Fill]]:
    """The evaluation loop shared by agents and baselines.

    At each close t, decide(t, portfolio) picks an action that executes at
    that close; the share change is recorded as a Fill and wealth is marked
    at the same close.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.size and (not np.isfinite(prices).all() or prices.min() <= 0):
        raise ValueError("price must be positive")
    if not (0.0 < buy_fraction <= 1.0 and 0.0 < sell_fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    rate = costs.proportional_rate
    values: list[float] = []
    fills: list[Fill] = []
    for t, price in enumerate(prices.tolist()):
        traded = _trade(portfolio, decide(t, portfolio), price, rate, buy_fraction, sell_fraction)
        if traded is not portfolio:
            delta = traded.shares - portfolio.shares
            side = "buy" if delta > 0 else "sell"
            fills.append(Fill(dates[t], side, abs(delta), price, cost=abs(delta) * price * rate))
            portfolio = traded
        values.append(portfolio.cash + portfolio.shares * price)
    return EquityCurve(dates, values), fills


def baseline_buy_and_hold(
    bars: BarSeries,
    initial_cash: float,
    costs: CostModel = ZERO_COST,
    initial_shares: int = 0,
) -> tuple[EquityCurve, list[Fill]]:
    """Keep the opening shares, buy maximal whole shares with the cash at the
    first affordable close, hold to the end."""
    if len(bars) < 2:
        raise ValueError("need at least 2 bars")
    if initial_cash <= 0:
        raise ValueError("initial cash must be positive")

    def decide(t: int, portfolio: Portfolio) -> Action:
        return Action.BUY if portfolio.shares == initial_shares else Action.HOLD

    return simulate(
        bars.closes(), bars.dates(), Portfolio(initial_cash, initial_shares), decide, costs
    )


def baseline_sma_crossover(
    bars: BarSeries,
    fast_period: int,
    slow_period: int,
    initial_cash: float,
    costs: CostModel = ZERO_COST,
    initial_shares: int = 0,
) -> tuple[EquityCurve, list[Fill]]:
    """All-in long while the fast SMA exceeds the slow SMA, flat otherwise.

    Trades at the close of the day the crossing is observed. Opening shares
    count as long, so they are sold at the first close without a long signal.
    """
    if not 1 <= fast_period < slow_period:
        raise ValueError("need slow_period > fast_period >= 1")
    if len(bars) <= slow_period:
        raise ValueError("series must be longer than the slow period")
    if initial_cash <= 0:
        raise ValueError("initial cash must be positive")
    closes = bars.closes()
    # long_signal[t]: the fast SMA over the bars ending at t exceeds the slow one.
    long_signal = [False] * (slow_period - 1) + (
        sma(closes, fast_period)[slow_period - fast_period :] > sma(closes, slow_period)
    ).tolist()

    def decide(t: int, portfolio: Portfolio) -> Action:
        if long_signal[t] == (portfolio.shares > 0):
            return Action.HOLD
        return Action.BUY if long_signal[t] else Action.SELL

    return simulate(closes, bars.dates(), Portfolio(initial_cash, initial_shares), decide, costs)
