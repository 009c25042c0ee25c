"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with -s to see them).

Two golden-value checks are marked strict-xfail: the quoted reference
outputs contradict the very formulas they illustrate (details at the two
tests). Companion tests assert the formula-true values.
"""

import json
import math
import os
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from quantrl.experiment import config_from_dict, emit_report, run_experiment
from quantrl.market_data import (
    apply_normalizer,
    build_observations,
    daily_returns,
    fit_normalizer,
    generate_synthetic,
)
from quantrl.metrics import (
    EquityCurve,
    adtv,
    average_holding_period,
    cumulative_return,
    max_drawdown,
    profit_factor,
    winning_percentage,
)
from quantrl.neural_net import (
    backward,
    clone_parameters,
    forward,
    init_mlp,
    mse_loss,
)
from quantrl.rl_agents import (
    ReplayBuffer,
    TrainConfig,
    Transition,
    bellman_targets,
    dqn_update,
    train_qlearning,
)
from quantrl.trading_env import Action, MarketWindow, TradingEnv, wealth

from conftest import make_series
from test_metrics import curve_of, trade_with_profit
from test_neural_net import finite_difference_grads, gradient_errors
from test_rl_agents import ChainMdp, chain_discretizer

GOLDEN_TOL = 1e-9


# --- criterion 1: golden metric worked examples ---------------------------


class TestCriterion1GoldenMetrics:
    def test_max_drawdown_golden(self):
        assert max_drawdown(curve_of([100_000.0, 70_000.0])) == pytest.approx(
            0.30, rel=GOLDEN_TOL
        )
        print("[criterion 1] PASS max drawdown 100,000 -> 70,000 = 0.30")

    def test_adtv_golden(self):
        assert adtv(10_000_000, 250) == pytest.approx(40_000.0, rel=GOLDEN_TOL)
        print("[criterion 1] PASS ADTV 10,000,000 / 250 = 40,000")

    def test_winning_percentage_golden(self):
        trades = [trade_with_profit(1.0)] * 60 + [trade_with_profit(-1.0)] * 40
        assert winning_percentage(trades) == pytest.approx(60.0, rel=GOLDEN_TOL)
        print("[criterion 1] PASS winning percentage 60 / 100 = 60%")

    def test_profit_factor_golden(self):
        trades = [trade_with_profit(30.0), trade_with_profit(-20.0)]
        assert profit_factor(trades) == pytest.approx(1.5, rel=GOLDEN_TOL)
        print("[criterion 1] PASS profit factor wins {30} / losses {-20} = 1.5")

    @pytest.mark.xfail(
        strict=True,
        reason="quoted value 0.1175 is not the compounding product of these "
        "returns: (1.05)(1.10)(0.97) - 1 = 0.12035; asserted verbatim",
    )
    def test_cumulative_return_quoted_value(self):
        assert cumulative_return([0.05, 0.10, -0.03]) == pytest.approx(
            0.1175, rel=GOLDEN_TOL
        )

    def test_cumulative_return_formula(self):
        # same inputs, value recomputed from the defining product
        expected = (1 + 0.05) * (1 + 0.10) * (1 - 0.03) - 1
        assert cumulative_return([0.05, 0.10, -0.03]) == pytest.approx(
            expected, rel=GOLDEN_TOL
        )
        print(f"[criterion 1] PASS cumulative return formula value = {expected:.5f}")

    @pytest.mark.xfail(
        strict=True,
        reason="quoted value 21.5 is not the mean of the ten listed periods: "
        "(10+20+30+15+25+10+20+15+30+25)/10 = 20.0; asserted verbatim",
    )
    def test_average_holding_period_quoted_value(self):
        periods = [10, 20, 30, 15, 25, 10, 20, 15, 30, 25]
        trades = [trade_with_profit(1.0, days=p) for p in periods]
        assert average_holding_period(trades) == pytest.approx(21.5, rel=GOLDEN_TOL)

    def test_average_holding_period_formula(self):
        periods = [10, 20, 30, 15, 25, 10, 20, 15, 30, 25]
        trades = [trade_with_profit(1.0, days=p) for p in periods]
        expected = sum(periods) / len(periods)
        assert average_holding_period(trades) == pytest.approx(expected, rel=GOLDEN_TOL)
        print(f"[criterion 1] PASS average holding period formula value = {expected}")


# --- criterion 2: tabular Q-learning matches value iteration ---------------


def test_criterion_2_tabular_oracle_equivalence():
    start = time.time()
    mdp = ChainMdp()
    cfg = TrainConfig(alpha=0.1, gamma=0.99, episodes=5000, seed=11)
    table, _ = train_qlearning(mdp, cfg, chain_discretizer)
    q_star = mdp.q_star(0.99)
    learned = np.array([table.action_values((s,)) for s in range(3)])
    error = float(np.abs(learned - q_star).max())
    elapsed = time.time() - start
    assert error < 1e-2
    assert elapsed < 10.0
    print(f"[criterion 2] PASS max|Q - Q*| = {error:.2e} after 5000 episodes ({elapsed:.1f}s)")


# --- criterion 3: gradient correctness over 100 randomized networks --------


def test_criterion_3_gradient_check():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = init_mlp((4, 8, 3), seed=seed)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))
        mask = rng.random((5, 3)) < 0.6
        mask[0, 0] = True
        _, analytic = backward(net, x, target, mask)
        numeric = finite_difference_grads(net, x, target, mask, step=1e-5)
        worst = max(worst, gradient_errors(analytic, numeric))
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"[criterion 3] PASS worst relative gradient error = {worst:.2e} ({elapsed:.1f}s)")


# --- criterion 4: DQN sanity on the sinusoid fixture -----------------------


def sinusoid_experiment_config(agent: str) -> dict:
    bars = generate_synthetic("sinusoid", length=260, base=100.0, amplitude=10.0, period_days=10.0)
    dates = bars.dates()
    return {
        "data": {
            "synthetic": {
                "kind": "sinusoid",
                "length": 260,
                "base": 100.0,
                "amplitude": 10.0,  # 10% of base
                "period_days": 10.0,
            }
        },
        "agent": agent,
        "train_start": dates[0].isoformat(),
        "train_end": dates[199].isoformat(),  # 200 training days
        "test_start": dates[200].isoformat(),
        "test_end": dates[-1].isoformat(),
        "seed": 42,
    }


def test_criterion_4_dqn_beats_buy_and_hold_on_sinusoid():
    start = time.time()
    report = run_experiment(config_from_dict(sinusoid_experiment_config("dqn")))
    dqn_roi = report.strategies["dqn"].test_metrics.roi
    bh_roi = report.strategies["buy_and_hold"].test_metrics.roi
    elapsed = time.time() - start
    assert dqn_roi >= bh_roi
    assert elapsed < 120.0
    print(
        f"[criterion 4] PASS dqn test ROI {dqn_roi:+.4f} >= buy-and-hold {bh_roi:+.4f} ({elapsed:.1f}s)"
    )


def test_criterion_4_fixed_batch_overfit():
    # 32 transitions collected once from the sinusoid environment, then the
    # full update path (sample, Bellman targets, masked MSE, SGD) must
    # collapse the loss against a frozen target network
    bars = generate_synthetic("sinusoid", length=60, base=100.0, amplitude=10.0, period_days=10.0)
    returns = daily_returns(bars)
    normalized = apply_normalizer(fit_normalizer(returns), returns)
    observations = build_observations(normalized, None, 10)
    window = MarketWindow(bars.dates()[10:], bars.closes()[10:], observations)
    env = TradingEnv(window, 100_000.0)
    rng = np.random.default_rng(0)
    buffer = ReplayBuffer(32)
    state, obs = env.reset()
    done = False
    while len(buffer) < 32:
        if done:
            state, obs = env.reset()
            done = False
        action = int(rng.integers(0, 3))
        state, next_obs, reward, done = env.step(state, action)
        buffer.push(Transition(obs, action, reward, next_obs, done))
        obs = next_obs

    net = init_mlp((10, 32, 32, 3), seed=42)
    frozen_target = clone_parameters(net)
    gamma = 0.99

    def evaluation_loss() -> float:
        batch = buffer.in_order()
        targets = bellman_targets(batch, frozen_target, gamma)
        states = np.stack([t.state for t in batch])
        rows = np.arange(len(batch))
        actions = np.array([t.action for t in batch])
        target_matrix = np.zeros((len(batch), 3))
        mask = np.zeros((len(batch), 3), dtype=bool)
        target_matrix[rows, actions] = targets
        mask[rows, actions] = True
        return mse_loss(forward(net, states), target_matrix, mask)

    initial = evaluation_loss()
    sample_rng = np.random.default_rng(1)
    for _ in range(500):
        dqn_update(net, frozen_target, buffer.sample(32, sample_rng), gamma, lr=0.01)
    final = evaluation_loss()
    assert final < 0.10 * initial
    print(
        f"[criterion 4] PASS overfit loss {initial:.3e} -> {final:.3e} "
        f"({final / initial:.1%} of initial) in 500 steps"
    )


# --- criterion 5: accounting properties over 10,000 random sequences -------


def test_criterion_5_accounting_properties():
    start = time.time()
    rng = np.random.default_rng(5)
    n_days = 21
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(n_days))
    blank = np.zeros((n_days, 1))
    walk_prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.04, size=n_days)))
    env_walk = TradingEnv(MarketWindow(dates, walk_prices, blank), 10_000.0)
    env_flat = TradingEnv(MarketWindow(dates, np.full(n_days, 100.0), blank), 10_000.0)
    actions = (Action.HOLD, Action.BUY, Action.SELL)

    for _ in range(6000):
        state, _ = env_walk.reset()
        done = False
        while not done:
            state, _, _, done = env_walk.step(state, actions[rng.integers(0, 3)])
            p = state.portfolio
            assert p.cash >= 0.0
            assert p.shares >= 0
            marked = wealth(p, float(walk_prices[state.step_index]))
            assert state.wealth_prev == marked

    for _ in range(4000):
        state, _ = env_flat.reset()
        done = False
        while not done:
            state, _, _, done = env_flat.step(state, actions[rng.integers(0, 3)])
            assert state.portfolio.cash >= 0.0
        assert state.wealth_prev == 10_000.0  # zero-cost constant price: exact

    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"[criterion 5] PASS 10,000 random action sequences ({elapsed:.1f}s)")


# --- criterion 6: single-pass drawdown equals brute force -------------------


def test_criterion_6_drawdown_oracle():
    start = time.time()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, size=n)))
        # brute force over every index pair i < j, same expression shape
        pairwise = (values[:, None] - values[None, :]) / values[:, None]
        brute = max(0.0, float(np.triu(pairwise, k=1).max()))
        curve = EquityCurve(tuple(date(2020, 1, 1) + timedelta(days=k) for k in range(n)), values)
        assert max_drawdown(curve) == brute
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"[criterion 6] PASS 1000 random curves, exact equality ({elapsed:.1f}s)")


# --- criterion 7: byte-identical outputs per (config, seed) -----------------


def test_criterion_7_run_determinism(tmp_path):
    config = sinusoid_experiment_config("dqn")
    config["episodes"] = 5
    outputs = []
    for run_dir in ("first", "second"):
        report = run_experiment(config_from_dict(config))
        out = tmp_path / run_dir
        emit_report(report, out)
        outputs.append(out)
    compared = []
    for name in (
        "metrics.json",
        "equity_dqn.csv",
        "equity_buy_and_hold.csv",
        "checkpoint_dqn.txt",
        "history.csv",
        "config_echo.json",
    ):
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
        compared.append(name)
    print(f"[criterion 7] PASS byte-identical outputs: {', '.join(compared)}")


def _cli(cwd, hash_seed, *args):
    """`python -m quantrl.cli *args` in a fresh interpreter under PYTHONHASHSEED=hash_seed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-m", "quantrl.cli", *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# the qtable_train benchmark's settings (window 3, indicators, costs and its 11
# state cuts) on a GBM series: buys and sells under costs with a percentage
# reward reach over a hundred states, where the sine run's table has few
MANY_STATES = {
    "data": {"synthetic": {"kind": "gbm", "length": 260, "seed": 42, "drift": 0.05,
                           "volatility": 0.2}},
    "episodes": 3,
    "window": 3,
    "use_indicators": True,
    "cost_rate": 0.001,
    "state_cuts": [-0.5, -0.2, 0.0, 0.2, 0.5, 0.8, 0.97, 0.99, 1.0, 1.01, 1.03],
}


@pytest.mark.parametrize("agent, artifact, overrides", [
    pytest.param("qtable", "qtable.csv", {"episodes": 20}, id="qtable-qtable.csv"),
    pytest.param("dqn", "checkpoint_dqn.txt", {"episodes": 3}, id="dqn-checkpoint_dqn.txt"),
    # a batch of one and one hidden layer of 8: each weight gradient is an
    # outer product, whose sums have one term, and acting is a one-row
    # product; the update picks np.dot or matmul per shape
    pytest.param("dqn", "checkpoint_dqn.txt", {"episodes": 3, "batch_size": 1, "hidden_sizes": [8]},
                 id="dqn-batch-1-hidden-8"),
    pytest.param("qtable", "qtable.csv", MANY_STATES, id="qtable-many-states"),
])
def test_criterion_7_cross_process_determinism(tmp_path, agent, artifact, overrides):
    # two interpreters with different string hashing write the same bytes,
    # evaluating the first run's artifact reproduces its report, and train
    # writes exactly run's config echo, history and artifact
    config = sinusoid_experiment_config(agent) | overrides
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    for run_dir, hash_seed in (("first", "0"), ("second", "12345")):
        _cli(tmp_path, hash_seed, "run", "--config", "c.json", "--out", run_dir)
    _cli(tmp_path, "1", "evaluate", "--config", "c.json", "--checkpoint", f"first/{artifact}",
         "--out", "evaluated")
    _cli(tmp_path, "2", "train", "--config", "c.json", "--out", "trained")
    first, second, evaluated, trained = (
        tmp_path / d for d in ("first", "second", "evaluated", "trained"))
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in second.iterdir()) and artifact in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    reported = [n for n in names if n == "metrics.json" or n.startswith(("equity_", "trades_"))]
    assert len(reported) == 5
    for name in reported:
        assert (first / name).read_bytes() == (evaluated / name).read_bytes(), name
    trained_names = sorted(f.name for f in trained.iterdir())
    assert trained_names == sorted(["config_echo.json", "history.csv", artifact])
    for name in trained_names:
        assert (first / name).read_bytes() == (trained / name).read_bytes(), name
    if overrides is MANY_STATES:
        assert len((first / artifact).read_text().splitlines()) - 1 > 100


# --- criterion 8: buy-and-hold closed form ----------------------------------


def test_criterion_8_buy_and_hold_closed_form():
    fixtures = {
        "trend": generate_synthetic("trend", length=40, base=100.0, drift=0.01),
        "sinusoid": generate_synthetic("sinusoid", length=40, base=100.0, amplitude=10.0),
        "gbm": generate_synthetic("gbm", length=40, seed=9, drift=0.1, volatility=0.3),
        "pricey": make_series([150.0, 90.0, 120.0]),  # entry deferred to day 2
    }
    from quantrl.rl_agents import baseline_buy_and_hold

    for name, bars in fixtures.items():
        cash = 100_000.0 if name != "pricey" else 100.0
        curve, fills = baseline_buy_and_hold(bars, cash)
        closes = bars.closes()
        # hand ledger: scan for the first affordable close, floor-size there
        shares, entry, remainder = 0, None, cash
        for i, price in enumerate(closes):
            k = math.floor(cash / price)
            if k >= 1:
                shares, entry, remainder = k, i, cash - k * price
                break
        expected_final = remainder + shares * closes[-1] if entry is not None else cash
        assert curve.values[-1] == expected_final
        assert curve.roi() == expected_final / cash - 1.0
        if entry is not None:
            assert fills[0].shares == shares
            assert fills[0].date == bars.dates()[entry]
    print("[criterion 8] PASS buy-and-hold matches the hand ledger on all fixtures")
