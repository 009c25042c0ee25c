"""Learning algorithms and baseline strategies.

Tabular Q-learning over discretized observations, a DQN trained with
experience replay and a periodically synchronized target network, the
evaluation loop (`simulate`) and the two non-learning benchmarks run by it
(buy-and-hold, SMA crossover). Every stochastic choice flows from one
seeded generator, so identical seeds give identical training runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .market_data import BarSeries, sma
from .metrics import EquityCurve, Fill
from .neural_net import Mlp, _column_backward, clone_parameters, forward, sgd_step
from .trading_env import Action, CostModel, Portfolio, ZERO_COST, execute_action, wealth

StateKey = tuple[int, ...]

HISTORY_HEADER = "episode,epsilon,mean_loss,roi"


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
    """

    def __init__(self, capacity: int, obs_dim: int) -> None:
        self.capacity = capacity
        self.size = 0
        self._pushes = 0
        self.states = np.empty((capacity, obs_dim))
        self.next_states = np.empty((capacity, obs_dim))
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.terminal = np.empty(capacity, dtype=bool)

    def push(self, state, action: int, reward: float, next_state, terminal: bool) -> None:
        slot = self._pushes % self.capacity
        self.states[slot] = state
        self.actions[slot] = action
        self.rewards[slot] = reward
        self.next_states[slot] = next_state
        self.terminal[slot] = terminal
        self._pushes += 1
        self.size = min(self._pushes, self.capacity)

    def sample(self, k: int, rng: np.random.Generator):
        """(states, actions, rewards, next_states, terminal) of k uniform draws."""
        i = rng.integers(0, self.size, size=k)
        return self.states[i], self.actions[i], self.rewards[i], self.next_states[i], self.terminal[i]


def _stack(batch: Sequence[Transition]):
    """A Transition list as the arrays _ReplayArrays.sample returns."""
    return (
        np.stack([t.state for t in batch]),
        np.array([int(t.action) for t in batch]),
        np.array([t.reward for t in batch], dtype=float),
        np.stack([t.next_state for t in batch]),
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


@dataclass
class HistoryRow:
    episode: int
    epsilon: float
    mean_loss: float | None
    roi: float


def write_history(rows: Sequence[HistoryRow], path: str | Path) -> None:
    lines = [HISTORY_HEADER]
    for row in rows:
        loss = "" if row.mean_loss is None else repr(float(row.mean_loss))
        lines.append(f"{row.episode},{repr(float(row.epsilon))},{loss},{repr(float(row.roi))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Discretizer:
    """Maps observation vectors to per-feature bin indices via cut points.

    Keys are memoized per observation (by its float64 bytes), so each
    distinct observation is binned once per instance.
    """

    cuts: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cuts", tuple(tuple(c) for c in self.cuts))
        # Not a field: the memo stays out of ==, hash and repr.
        object.__setattr__(self, "_keys", {})
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
        raw = np.asarray(obs, dtype=float).tobytes()
        key = self._keys.get(raw)
        if key is None:
            key = self._keys[raw] = discretize(obs, self.cuts)
        return key


def discretize(obs: np.ndarray, cuts: Sequence[Sequence[float]]) -> StateKey:
    """Bin each feature by its cut points; values on a cut go to the lower bin."""
    values = np.asarray(obs, dtype=float).ravel()
    if values.size != len(cuts):
        raise ValueError(f"observation has {values.size} features, cuts cover {len(cuts)}")
    return tuple(
        int(np.searchsorted(np.asarray(feature_cuts, dtype=float), v, side="left"))
        for v, feature_cuts in zip(values, cuts)
    )


class QTable:
    """State-key to 3-vector of action values; unvisited states read as zero."""

    def __init__(self) -> None:
        self._q: dict[StateKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._q)

    def action_values(self, key: StateKey) -> np.ndarray:
        stored = self._q.get(key)
        return stored if stored is not None else np.zeros(3)

    def _writable(self, key: StateKey) -> np.ndarray:
        stored = self._q.get(key)
        if stored is None:
            stored = np.zeros(3)
            self._q[key] = stored
        return stored

    def items(self):
        return self._q.items()

    def save(self, path: str | Path) -> None:
        lines = ["state_key,q_hold,q_buy,q_sell"]
        for key in sorted(self._q):
            q = self._q[key]
            key_text = "-".join(str(i) for i in key)
            lines.append(f"{key_text},{repr(float(q[0]))},{repr(float(q[1]))},{repr(float(q[2]))}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "QTable":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "state_key,q_hold,q_buy,q_sell":
            raise ValueError(f"{path}: not a q-table file")
        table = cls()
        for line in lines[1:]:
            if not line:
                continue
            key_text, *values = line.split(",")
            if len(values) != 3:
                raise ValueError(f"{path}: malformed row {line!r}")
            key = tuple(int(tok) for tok in key_text.split("-"))
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
    target = r if terminal else r + gamma * float(table.action_values(s_next).max())
    q_s = table._writable(s)
    q_s[int(a)] += alpha * (target - q_s[int(a)])
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
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires a random generator")
        if rng.random() < epsilon:
            return Action(int(rng.integers(0, 3)))
    return Action(int(np.argmax(np.asarray(values, dtype=float))))


def bellman_targets(
    batch: Sequence[Transition], target_net: Mlp, gamma: float
) -> np.ndarray:
    """r_i, plus gamma * max of the target network at next_state_i unless terminal."""
    _, _, rewards, next_states, terminal = _stack(batch)
    return _targets(rewards, next_states, terminal, target_net, gamma)


def _targets(rewards, next_states, terminal, target_net: Mlp, gamma: float) -> np.ndarray:
    q_next = forward(target_net, next_states)
    return rewards + gamma * np.where(terminal, 0.0, q_next.max(axis=1))


def _schedule_for(env: Env, cfg: TrainConfig) -> EpsilonSchedule:
    total_steps = cfg.episodes * env.steps_per_episode
    decay = max(1, int(round(cfg.eps_decay_fraction * total_steps)))
    return EpsilonSchedule(cfg.eps_start, cfg.eps_end, decay)


def train_qlearning(
    env: Env,
    cfg: TrainConfig,
    discretizer: Callable[[np.ndarray], StateKey],
    schedule: EpsilonSchedule | None = None,
) -> tuple[QTable, list[HistoryRow]]:
    """Tabular Q-learning: cfg.episodes full passes over the environment."""
    rng = np.random.default_rng(cfg.seed)
    schedule = schedule or _schedule_for(env, cfg)
    table = QTable()
    history: list[HistoryRow] = []
    step = 0
    for episode in range(cfg.episodes):
        state, obs = env.reset()
        key = discretizer(obs)
        episode_eps = schedule.value(step)
        done = False
        while not done:
            action = select_action(table.action_values(key), schedule.value(step), rng)
            state, next_obs, reward, done = env.step(state, action)
            next_key = discretizer(next_obs)
            q_update(table, key, action, reward, next_key, done, cfg.alpha, cfg.gamma)
            key = next_key
            step += 1
        history.append(HistoryRow(episode, episode_eps, None, env.roi(state)))
    return table, history


def dqn_update(
    net: Mlp,
    target_net: Mlp,
    batch: Sequence[Transition],
    gamma: float,
    lr: float,
) -> float:
    """One masked-MSE SGD step toward the Bellman targets; returns the loss."""
    return _dqn_step(net, target_net, *_stack(batch), gamma, lr)


def _dqn_step(
    net: Mlp,
    target_net: Mlp,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    terminal: np.ndarray,
    gamma: float,
    lr: float,
) -> float:
    """dqn_update on a batch already in array form: only Q(s_i, a_i) regresses."""
    targets = _targets(rewards, next_states, terminal, target_net, gamma)
    loss, grads = _column_backward(net, states, actions, targets)
    sgd_step(net, grads, lr)
    return loss


# A diverging update overflows; the finite checks report that, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train_dqn(
    env: Env,
    cfg: TrainConfig,
    net: Mlp,
    schedule: EpsilonSchedule | None = None,
) -> tuple[Mlp, list[HistoryRow]]:
    """DQN training with uniform replay and a periodically synced target net.

    Gradient steps start once the buffer holds batch_size transitions; the
    target network is re-cloned every target_sync_period environment steps.
    Replay lives in arrays that match a ReplayBuffer of Transitions slot for
    slot and draw for draw. A non-finite loss or parameter raises ValueError.
    """
    if cfg.batch_size > cfg.buffer_capacity:
        raise ValueError("batch_size cannot exceed buffer_capacity")
    if net.layer_sizes[-1] != 3:
        raise ValueError("network must emit one value per action (3 outputs)")
    rng = np.random.default_rng(cfg.seed)
    schedule = schedule or _schedule_for(env, cfg)
    target_net = clone_parameters(net)
    replay = _ReplayArrays(cfg.buffer_capacity, net.layer_sizes[0])
    history: list[HistoryRow] = []
    step = 0
    for episode in range(cfg.episodes):
        state, obs = env.reset()
        episode_eps = schedule.value(step)
        losses: list[float] = []
        done = False
        while not done:
            action = select_action(forward(net, obs), schedule.value(step), rng)
            state, next_obs, reward, done = env.step(state, action)
            replay.push(obs, int(action), reward, next_obs, done)
            if replay.size >= cfg.batch_size:
                batch = replay.sample(cfg.batch_size, rng)
                loss = _dqn_step(net, target_net, *batch, cfg.gamma, cfg.alpha)
                if not math.isfinite(loss):
                    raise ValueError(
                        f"training diverged: loss {loss} at episode {episode}, step {step}"
                    )
                losses.append(loss)
            obs = next_obs
            step += 1
            if step % cfg.target_sync_period == 0:
                target_net = clone_parameters(net)
        if not all(np.isfinite(p).all() for p in (*net.weights, *net.biases)):
            raise ValueError(
                f"training diverged: non-finite parameters after episode {episode}, step {step}"
            )
        mean_loss = float(np.mean(losses)) if losses else None
        history.append(HistoryRow(episode, episode_eps, mean_loss, env.roi(state)))
    return net, history


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
    rate = costs.proportional_rate
    values = np.empty(len(dates))
    fills: list[Fill] = []
    for t, price in enumerate(np.asarray(prices, dtype=float).tolist()):
        after = execute_action(
            portfolio, decide(t, portfolio), price, costs, buy_fraction, sell_fraction
        )
        delta = after.shares - portfolio.shares
        if delta:
            side = "buy" if delta > 0 else "sell"
            fills.append(Fill(dates[t], side, abs(delta), price, cost=abs(delta) * price * rate))
        portfolio = after
        values[t] = wealth(portfolio, price)
    return EquityCurve(dates, values), fills


def baseline_buy_and_hold(
    bars: BarSeries,
    initial_cash: float,
    costs: CostModel = ZERO_COST,
) -> tuple[EquityCurve, list[Fill]]:
    """Buy maximal whole shares at the first affordable close, hold to the end."""
    if len(bars) < 2:
        raise ValueError("need at least 2 bars")
    if initial_cash <= 0:
        raise ValueError("initial cash must be positive")

    def decide(t: int, portfolio: Portfolio) -> Action:
        return Action.BUY if portfolio.shares == 0 else Action.HOLD

    return simulate(bars.closes(), bars.dates(), Portfolio(initial_cash, 0), decide, costs)


def baseline_sma_crossover(
    bars: BarSeries,
    fast_period: int,
    slow_period: int,
    initial_cash: float,
    costs: CostModel = ZERO_COST,
) -> tuple[EquityCurve, list[Fill]]:
    """All-in long while the fast SMA exceeds the slow SMA, flat otherwise.

    Trades at the close of the day the crossing is observed.
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

    return simulate(closes, bars.dates(), Portfolio(initial_cash, 0), decide, costs)
