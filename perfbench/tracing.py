"""Traced quantrl invocation and the per-layer metrics derived from its spans.

Run as a script, this wraps the public functions of every quantrl module,
runs the CLI exactly as the untraced benchmark does, and writes the spans
(name, start, end, parent) to an .npz file when the run ends:

    python3 perfbench/tracing.py SPANS_NPZ run --config config.json --out out

Functions are wrapped at every binding their callers resolve: modules that
import a function by name (`from .neural_net import forward`) hold their own
reference, so each quantrl module namespace is patched, not only the
defining one. Methods are patched on their class.

`layer_metrics` turns a spans file into the `<module>.<function>.<stat>`
metrics the benchmark reports.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

# Span name -> stats reported for it. Per-step functions get percentiles.
_STEP = ("calls", "total_ms", "p50_us", "p99_us")
LAYER_STATS = {
    "market_data.load_csv": ("calls", "total_ms"),
    "market_data.rsi": ("calls", "total_ms"),
    "market_data.build_observations": ("calls", "total_ms"),
    "trading_env.TradingEnv.step": _STEP,
    "neural_net.forward.single": _STEP,
    "neural_net.forward.batch": _STEP,
    "neural_net.backward": _STEP,
    "neural_net.sgd_step": _STEP,
    "neural_net.clone_parameters": ("calls",),
    "neural_net.save_checkpoint": ("total_ms",),
    "neural_net.load_checkpoint": ("total_ms",),
    "rl_agents.select_action": _STEP,
    "rl_agents.discretize": _STEP,
    "rl_agents.q_update": _STEP,
    "rl_agents.ReplayBuffer.push": ("calls", "total_ms"),
    "rl_agents.ReplayBuffer.sample": _STEP,
    "rl_agents.bellman_targets": _STEP,
    "rl_agents.dqn_update": ("calls", "total_ms", "self_ms", "p50_us", "p99_us"),
    "rl_agents.train_dqn": ("total_ms", "self_ms"),
    "rl_agents.train_qlearning": ("total_ms", "self_ms"),
    "rl_agents.baseline_buy_and_hold": ("total_ms",),
    "metrics.match_trades": ("calls", "total_ms"),
    "metrics.compute_report": ("calls", "total_ms", "self_ms"),
    "experiment.run_policy": ("calls", "total_ms", "self_ms"),
    "cli.main": ("self_ms",),
}
STAT_UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms", "p50_us": "us", "p99_us": "us"}
# Pipeline stages, named as the program's own trace will name them, and the
# wrapped function whose span is the stage. `evaluate` is run_experiment
# minus its ingest, prepare and train children.
STAGES = {
    "ingest": "experiment.load_bars",
    "prepare": "experiment.prepare_data",
    "train": "experiment.train_agent",
    "emit": "experiment.emit_report",
}
# Counts taken from return values rather than spans.
COUNTS = {"rl_agents.qtable.states": "count", "experiment.emit_report.bytes": "bytes"}

# Functions wrapped, as (module, attribute path). Spans of functions that
# only serve to derive stages or self time are not reported on their own.
TARGETS = [
    *[(name.split(".")[0], ".".join(name.split(".")[1:])) for name in LAYER_STATS
      if not name.startswith("neural_net.forward.")],
    ("neural_net", "forward"),
    ("experiment", "load_bars"),
    ("experiment", "prepare_data"),
    ("experiment", "train_agent"),
    ("experiment", "run_experiment"),
    ("experiment", "emit_report"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the benchmark reports, with its unit."""
    units = {
        f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_STATS.items() for stat in stats
    }
    units.update({f"experiment.stage.{stage}.ms": "ms" for stage in (*STAGES, "evaluate")})
    units.update(COUNTS)
    units["trace.overhead"] = "ratio"  # traced over untraced total_s, computed by run.py
    return units


class Recorder:
    """In-memory span store; one span per wrapped call, parent = enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts = {name: 0 for name in COUNTS}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name_of, after=None):
        """`fn` recording a span named name_of(args, kwargs) per call; after(result) runs untimed."""
        clock = time.perf_counter_ns
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            self.name_id.append(self._id(name_of(args, kwargs)))
            self.parent.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def save(self, path: str | Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            count_names=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS function at each binding in the loaded quantrl modules."""
    import quantrl.cli  # noqa: F401  (loads every quantrl module)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "quantrl"]
    for module_name, attr_path in TARGETS:
        module = sys.modules[f"quantrl.{module_name}"]
        owner_path, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = getattr(owner, attr)
        name = f"{module_name}.{attr_path}"
        after = None
        if name == "neural_net.forward":
            def name_of(args, kwargs):
                inputs = args[1] if len(args) > 1 else kwargs["inputs"]
                return f"neural_net.forward.{'single' if np.ndim(inputs) == 1 else 'batch'}"
        else:
            def name_of(args, kwargs, name=name):
                return name
        if name == "rl_agents.train_qlearning":
            def after(result):
                recorder.counts["rl_agents.qtable.states"] = len(result[0])
        elif name == "experiment.emit_report":
            def after(result):
                recorder.counts["experiment.emit_report.bytes"] += sum(p.stat().st_size for p in result)
        wrapped = recorder.wrap(original, name_of, after)
        if owner_path:  # a method: patch it on the class
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def layer_metrics(path: str | Path) -> dict[str, float]:
    """Per-layer metrics from one spans file; functions never called read 0."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id = data["name_id"]
        duration = (data["end"] - data["start"]).astype(np.float64)
        parent = data["parent"]
        counts = dict(zip((str(n) for n in data["count_names"]), data["count_values"].tolist()))
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    self_time = duration - child_time

    def spans_of(name: str) -> np.ndarray:
        return name_id == names.index(name) if name in names else np.zeros(name_id.size, dtype=bool)

    out: dict[str, float] = {}
    for name, stats in LAYER_STATS.items():
        mask = spans_of(name)
        durs = duration[mask]
        values = {
            "calls": int(mask.sum()),
            "total_ms": float(durs.sum()) / 1e6,
            "self_ms": float(self_time[mask].sum()) / 1e6,
            "p50_us": float(np.percentile(durs, 50)) / 1e3 if durs.size else 0.0,
            "p99_us": float(np.percentile(durs, 99)) / 1e3 if durs.size else 0.0,
        }
        out.update({f"{name}.{stat}": values[stat] for stat in stats})
    for stage, name in STAGES.items():
        out[f"experiment.stage.{stage}.ms"] = float(duration[spans_of(name)].sum()) / 1e6
    run_mask = spans_of("experiment.run_experiment")
    stage_child = np.zeros(name_id.size, dtype=bool)
    for name in ("experiment.load_bars", "experiment.prepare_data", "experiment.train_agent"):
        stage_child |= spans_of(name)
    stage_child &= np.isin(parent, np.flatnonzero(run_mask))
    evaluate_ns = duration[run_mask].sum() - duration[stage_child].sum()
    out["experiment.stage.evaluate.ms"] = float(evaluate_ns) / 1e6
    out.update({name: float(value) for name, value in counts.items()})
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import quantrl.cli

    try:
        return quantrl.cli.main(cli_args)
    finally:
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
