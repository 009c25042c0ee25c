"""The benchmark's workloads: deterministic inputs generated from a seed.

Each workload writes a price CSV, an experiment config (JSON) and, for
evaluation, a checkpoint into its own work directory. The program under
test receives only those files. Paths inside the config are relative to the
work directory, so emitted files (config_echo.json included) do not depend
on where the checkout lives.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from quantrl.market_data import generate_synthetic, write_csv

HERE = Path(__file__).resolve().parent
FIXTURE_CHECKPOINT = HERE / "fixtures" / "evaluate_long_dqn.txt"

DEFAULT_SEED = 42

# The Q-table discretizer applies the same cut points to every feature:
# window returns live in [-1, 1], RSI/100 in [0, 1] and SMA/close near 1.
# Cuts in all three ranges give the table hundreds of states; the default
# cuts (-0.001, 0.001) give it 14, which hides its working set.
QTABLE_CUTS = [-0.5, -0.2, 0.0, 0.2, 0.5, 0.8, 0.97, 0.99, 1.0, 1.01, 1.03]


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    subcommand: str  # "run" or "evaluate"
    kind: str  # synthetic price process
    length: int  # bars in the CSV
    train_bars: int  # leading bars that form the train window; the rest is test
    config: dict  # experiment keys beyond data, windows and seed


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "dqn_train",
            "README quick-start DQN run, long enough that the 10k replay ring wraps; "
            "neural_net and replay carry it",
            "run",
            "sinusoid",
            260,
            200,
            {"agent": "dqn", "episodes": 60},
        ),
        Spec(
            "qtable_train",
            "tabular Q-learning with hundreds of states; discretize, q_update and env step "
            "carry it and neural_net never runs",
            "run",
            "gbm",
            1300,
            1040,
            {
                "agent": "qtable",
                "episodes": 40,
                "window": 3,
                "use_indicators": True,
                "cost_rate": 0.001,
                "state_cuts": QTABLE_CUTS,
            },
        ),
        Spec(
            "evaluate_long",
            "greedy evaluation of a committed DQN checkpoint on 20k bars; CSV read, "
            "single-row forward, env step and trade matching, no training",
            "evaluate",
            "gbm",
            21_000,
            1_000,
            {
                "agent": "dqn",
                "use_indicators": True,
                "cost_rate": 0.001,
                "holding_day_count": "trading",
            },
        ),
    )
}


@dataclass(frozen=True)
class Prepared:
    """One workload's inputs on disk plus what its outputs must look like."""

    spec: Spec
    workdir: Path
    config: dict
    steps: int  # env steps the workload requires, fixed by its inputs
    test_rows: int  # rows every equity_<strategy>.csv must hold

    def cli_args(self, out: str) -> list[str]:
        args = [self.spec.subcommand, "--config", "config.json", "--out", out]
        if self.spec.subcommand == "evaluate":
            args += ["--checkpoint", "checkpoint.txt"]
        return args

    @property
    def strategies(self) -> tuple[str, str]:
        return (self.config["agent"], "buy_and_hold")

    @property
    def expected_files(self) -> list[str]:
        files = ["checkpoint_dqn.txt" if self.config["agent"] == "dqn" else "qtable.csv"]
        files += ["config_echo.json", "history.csv", "metrics.json"]
        for name in self.strategies:
            files += [f"equity_{name}.csv", f"trades_{name}.csv"]
        return sorted(files)


def _context_length(config: dict) -> int:
    """Leading train bars consumed by feature warm-up (window, SMA, RSI)."""
    window = config.get("window", 3 if config["agent"] == "qtable" else 10)
    if not config.get("use_indicators", False):
        return window
    return max(window, config.get("sma_period", 14) - 1, config.get("rsi_period", 14))


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Write the workload's CSV, config and checkpoint for `seed` into `workdir`."""
    spec = SPECS[name]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    bars = generate_synthetic(spec.kind, length=spec.length, seed=seed, drift=0.05, volatility=0.2)
    write_csv(bars, workdir / "prices.csv")
    dates = bars.dates()
    config = {
        "data": {"csv": "prices.csv"},
        "train_start": dates[0].isoformat(),
        "train_end": dates[spec.train_bars - 1].isoformat(),
        "test_start": dates[spec.train_bars].isoformat(),
        "test_end": dates[-1].isoformat(),
        "seed": seed,
        **spec.config,
    }
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    if spec.subcommand == "evaluate":
        shutil.copyfile(FIXTURE_CHECKPOINT, workdir / "checkpoint.txt")

    train_steps = spec.train_bars - _context_length(config) - 1
    test_steps = spec.length - spec.train_bars - 1
    episodes = config["episodes"] if spec.subcommand == "run" else 0
    steps = episodes * train_steps + 2 * (train_steps + test_steps)
    return Prepared(spec, workdir, config, steps, test_steps + 1)
