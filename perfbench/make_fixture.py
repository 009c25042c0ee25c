"""Train the DQN checkpoint that the evaluate_long workload evaluates.

The checkpoint is committed (fixtures/evaluate_long_dqn.txt), so later
changes to training arithmetic cannot change evaluate_long's input. Rerun
this only to replace the fixture on purpose; every pinned evaluate_long
digest changes with it.

    python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    from quantrl.market_data import generate_synthetic, write_csv
    from workloads import FIXTURE_CHECKPOINT

    workdir = run.WORK_ROOT / "fixture"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    bars = generate_synthetic("gbm", length=1300, seed=7, drift=0.05, volatility=0.2)
    write_csv(bars, workdir / "prices.csv")
    dates = bars.dates()
    config = {
        "data": {"csv": "prices.csv"},
        "agent": "dqn",
        "use_indicators": True,
        "cost_rate": 0.001,
        "train_start": dates[0].isoformat(),
        "train_end": dates[1039].isoformat(),
        "test_start": dates[1040].isoformat(),
        "test_end": dates[-1].isoformat(),
        "episodes": 8,
        "seed": 7,
    }
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    sample = run.run_cli(workdir, ["train", "--config", "config.json", "--out", "out"])
    if sample.returncode != 0:
        print(sample.stderr, file=sys.stderr)
        return 1
    FIXTURE_CHECKPOINT.parent.mkdir(exist_ok=True)
    shutil.copyfile(workdir / "out" / "checkpoint_dqn.txt", FIXTURE_CHECKPOINT)
    print(f"wrote {FIXTURE_CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
