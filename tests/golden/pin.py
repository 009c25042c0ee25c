"""Golden config grid: the bytes quantrl emits for a fixed set of small runs.

    PYTHONPATH=src python tests/golden/pin.py

runs every case of `cases()` through the CLI in a fresh work directory and
writes tests/golden/digests.json: per case the exit code, stdout, stderr,
warnings and the sha256 of every file it wrote. tests/test_golden.py reruns
the grid and compares. Re-pin only in a change that argues a byte change;
the diff of digests.json then lists every changed file. The pins hold for
the python and numpy versions recorded with them (tiny matmuls may round
differently under another BLAS build).

The grid crosses the four agents with an 8-row two-level orthogonal array
over data source, cost, fractions, opening shares, reward mode, holding-day
count and indicators, so every pair of settings occurs. A `quantrl synth`
per kind, an `ingest` of the grid's CSV, a `train` and an `evaluate
--checkpoint` per learner, a diverging DQN and a `compare` ride along.
Every path in a config or argument is relative to the work directory, so no
emitted byte depends on where the grid runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from quantrl import cli
from quantrl.market_data import generate_synthetic

DIGESTS = Path(__file__).resolve().parent / "digests.json"

LENGTH = 120
TRAIN_BARS = 80
AGENTS = ("qtable", "dqn", "buy_and_hold", "sma_crossover")
# Two-level orthogonal array L8(2^7): any two columns hold all four pairs.
L8 = (
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 1, 1, 1, 1, 0, 0),
    (1, 0, 1, 0, 1, 0, 1),
    (1, 0, 1, 1, 0, 1, 0),
    (1, 1, 0, 0, 1, 1, 0),
    (1, 1, 0, 1, 0, 0, 1),
)
# Column of L8 -> the config keys its level 0 and level 1 set.
AXES = (
    ({"data": "synthetic"}, {"data": "csv"}),
    ({"cost_rate": 0.0}, {"cost_rate": 0.002}),
    ({}, {"buy_fraction": 0.5, "sell_fraction": 0.4}),
    ({"initial_shares": 0}, {"initial_shares": 5}),
    ({"reward_mode": "percentage"}, {"reward_mode": "absolute"}),
    ({"holding_day_count": "calendar"}, {"holding_day_count": "trading"}),
    ({"use_indicators": False}, {"use_indicators": True, "sma_period": 5, "rsi_period": 6}),
)
AGENT_KEYS = {
    "qtable": {"episodes": 4, "alpha": 0.1},
    "dqn": {"episodes": 4, "alpha": 0.001, "hidden_sizes": [8, 8], "batch_size": 16},
    "buy_and_hold": {},
    "sma_crossover": {"fast_period": 3, "slow_period": 8},
}
CSV_SYNTH = ["synth", "--kind", "gbm", "--length", str(LENGTH), "--seed", "7",
             "--volatility", "0.3", "--out", "prices.csv"]


def config(agent: str, row: int) -> dict:
    """The experiment config of grid case `<agent>-<row>`."""
    settings: dict = {}
    for level, axis in zip(L8[row], AXES):
        settings.update(axis[level])
    dates = generate_synthetic("sinusoid", length=LENGTH).dates()
    if settings.pop("data") == "csv":
        data = {"csv": "prices.csv"}
    else:
        data = {"synthetic": {"kind": "sinusoid", "length": LENGTH, "period_days": 7 + row,
                              "amplitude": 8.0}}
    return {
        "data": data,
        "agent": agent,
        "seed": row,
        "train_start": dates[0].isoformat(),
        "train_end": dates[TRAIN_BARS - 1].isoformat(),
        "test_start": dates[TRAIN_BARS].isoformat(),
        "test_end": dates[-1].isoformat(),
        **settings,
        **AGENT_KEYS[agent],
    }


def cases() -> list[tuple[str, list[str], str]]:
    """(name, CLI argv, output path) per case, in the order they must run."""
    out = [
        ("synth-gbm", CSV_SYNTH, "prices.csv"),
        # ingest writes nothing: its pins are the exit code and the summary line
        ("ingest", ["ingest", "--csv", "prices.csv"], "ingest"),
        *[(f"synth-{kind}", ["synth", "--kind", kind, "--length", "60", "--drift", "0.01",
                             "--out", f"{kind}.csv"], f"{kind}.csv")
          for kind in ("sinusoid", "trend")],
    ]
    for agent in AGENTS:
        for row in range(len(L8)):
            name = f"{agent}-{row}"
            out.append((name, ["run", "--config", f"{name}.json", "--out", name], name))
    for agent, artifact in (("dqn", "checkpoint_dqn.txt"), ("qtable", "qtable.csv")):
        source = f"{agent}-5"
        out.append((f"train-{agent}", ["train", "--config", f"{agent}-3.json", "--out",
                                       f"train-{agent}"], f"train-{agent}"))
        out.append((f"evaluate-{agent}",
                    ["evaluate", "--config", f"{source}.json", "--checkpoint",
                     f"{source}/{artifact}", "--out", f"evaluate-{agent}"],
                    f"evaluate-{agent}"))
    # absolute rewards of ~1e3 at alpha 0.1 overflow the network: a [train] error
    out.append(("dqn-diverged", ["run", "--config", "dqn-4.json", "--alpha=0.1",
                                 "--hidden_sizes=[32,32]", "--out", "dqn-diverged"],
                "dqn-diverged"))
    out.append(("compare", ["compare", "dqn-0", "qtable-0", "sma_crossover-0",
                            "--out", "compare.csv"], "compare.csv"))
    return out


def _digests(path: Path) -> dict[str, str]:
    """sha256 by name of what a case wrote: one file, a directory's files, or nothing."""
    if path.is_dir():
        files = {p.relative_to(path).as_posix(): p for p in path.rglob("*") if p.is_file()}
    else:
        files = {path.name: path} if path.exists() else {}
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}


def run_grid(workdir: Path) -> dict[str, dict]:
    """Run every case in `workdir` (which must be empty); results by case name."""
    for agent in AGENTS:
        for row in range(len(L8)):
            path = workdir / f"{agent}-{row}.json"
            path.write_text(json.dumps(config(agent, row), indent=1), encoding="utf-8")
    results = {}
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        for name, argv, output in cases():
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            results[name] = {
                "exit": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "warnings": [str(w.message) for w in caught],
                "files": _digests(workdir / output),
            }
    finally:
        os.chdir(previous)
    return results


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = run_grid(Path(tmp))
    DIGESTS.write_text(
        json.dumps({"environment": environment(), "cases": results}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    failed = sorted(name for name, r in results.items() if r["exit"] != 0)
    print(f"wrote {len(results)} cases to {DIGESTS}; nonzero exit: {', '.join(failed) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
