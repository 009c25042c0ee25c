"""Command-line surface: ingest, synth, train, evaluate, run, compare.

Every failure exits nonzero with a stage-tagged message on stderr. Config
values can be overridden per run with --key=value tokens using dotted
paths, e.g. --episodes=50 or --data.synthetic.length=300.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import date
from pathlib import Path
from typing import Sequence

from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    LEARNING_AGENTS,
    compare_metrics_documents,
    config_from_dict,
    emit_report,
    emit_training,
    load_bars,
    load_metrics_document,
    prepare_train,
    read_config,
    run_experiment,
    train_agent,
)
from .market_data import SYNTHETIC_KINDS, DataError, generate_synthetic, load_csv, write_csv
from .neural_net import load_checkpoint
from .rl_agents import QTable

OUT_ROOT_ENV = "QUANTRL_OUT_ROOT"

_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.]+)=(.*)$", re.DOTALL)


def _apply_overrides(raw: dict, tokens: Sequence[str]) -> dict:
    for token in tokens:
        match = _OVERRIDE_RE.match(token)
        if not match:
            raise ConfigError(f"unrecognized argument {token!r}; overrides look like --key=value")
        dotted, text = match.groups()
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} descends into a non-object value")
        node[leaf] = value
    return raw


def _load_config(args: argparse.Namespace, extras: Sequence[str]) -> ExperimentConfig:
    try:
        raw = _apply_overrides(read_config(args.config), extras)
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ExperimentError("config", str(exc)) from None


def _resolve_out_dir(cfg: ExperimentConfig, arg_out: str | None) -> Path:
    if arg_out:
        return Path(arg_out)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return Path(root) / f"{cfg.agent}-{cfg.symbol}-seed{cfg.seed}"


def _reject_extras(extras: Sequence[str]) -> None:
    if extras:
        raise ExperimentError("config", f"unrecognized arguments: {' '.join(extras)}")


def cmd_ingest(args: argparse.Namespace, extras: Sequence[str]) -> int:
    _reject_extras(extras)
    try:
        bars = load_csv(args.csv)
    except (DataError, OSError) as exc:
        raise ExperimentError("ingest", str(exc)) from None
    first, last = bars.bars[0].date, bars.bars[-1].date
    print(f"ok: {len(bars)} bars of {bars.symbol} from {first} to {last}")
    return 0


def cmd_synth(args: argparse.Namespace, extras: Sequence[str]) -> int:
    _reject_extras(extras)
    try:
        bars = generate_synthetic(
            args.kind,
            length=args.length,
            seed=args.seed,
            start=date.fromisoformat(args.start),
            symbol=args.symbol,
            base=args.base,
            amplitude=args.amplitude,
            period_days=args.period,
            drift=args.drift,
            volatility=args.volatility,
            volume=args.volume,
        )
        write_csv(bars, args.out)
    except (ValueError, OSError) as exc:
        raise ExperimentError("ingest", str(exc)) from None
    print(f"wrote {len(bars)} bars to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace, extras: Sequence[str]) -> int:
    cfg = _load_config(args, extras)
    if cfg.agent not in LEARNING_AGENTS:
        raise ExperimentError("train", f"agent kind {cfg.agent!r} has nothing to train")
    try:
        bars = load_bars(cfg)
        _, _, train_window = prepare_train(cfg, bars)
    except Exception as exc:
        raise ExperimentError("ingest", str(exc)) from None
    try:
        artifact, history = train_agent(cfg, train_window)
    except Exception as exc:
        raise ExperimentError("train", str(exc)) from None
    out = _resolve_out_dir(cfg, args.out)
    try:
        emit_training(cfg, history, artifact, out)
    except OSError as exc:
        raise ExperimentError("report", str(exc)) from None
    print(f"trained {cfg.agent} for {cfg.episodes} episodes; artifacts in {out}")
    return 0


def _load_artifact(cfg: ExperimentConfig, checkpoint: str | None):
    if cfg.agent not in LEARNING_AGENTS:
        return None
    if checkpoint is None:
        raise ExperimentError(
            "evaluate", f"agent kind {cfg.agent!r} needs --checkpoint with a trained artifact"
        )
    try:
        if cfg.agent == "dqn":
            return load_checkpoint(checkpoint)
        return QTable.load(checkpoint)
    except (ValueError, OSError) as exc:
        raise ExperimentError("evaluate", str(exc)) from None


def cmd_evaluate(args: argparse.Namespace, extras: Sequence[str]) -> int:
    cfg = _load_config(args, extras)
    return _report(cfg, _load_artifact(cfg, args.checkpoint), args.out)


def cmd_run(args: argparse.Namespace, extras: Sequence[str]) -> int:
    return _report(_load_config(args, extras), None, args.out)


def _report(cfg: ExperimentConfig, artifact, arg_out: str | None) -> int:
    """Run the experiment (training unless given an artifact), write and summarize it."""
    report = run_experiment(cfg, artifact=artifact)
    out = _resolve_out_dir(cfg, arg_out)
    try:
        emit_report(report, out)
    except OSError as exc:
        raise ExperimentError("report", str(exc)) from None
    start, end = report.test_window_span
    print(f"test window {start}..{end}")
    for name, result in report.strategies.items():
        print(f"  {name}: test ROI {result.test_metrics.roi:+.4%}")
    print(f"report written to {out}")
    return 0


def cmd_compare(args: argparse.Namespace, extras: Sequence[str]) -> int:
    _reject_extras(extras)
    docs = []
    for directory in args.report_dirs:
        path = Path(directory) / "metrics.json"
        try:
            docs.append((Path(directory).name, load_metrics_document(path)))
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentError("report", f"{path}: {exc}") from None
    try:
        table = compare_metrics_documents(docs)
    except ValueError as exc:
        raise ExperimentError("report", str(exc)) from None
    print(table.to_text(), end="")
    if args.out:
        try:
            Path(args.out).write_text(table.to_csv_text(), encoding="utf-8")
        except OSError as exc:
            raise ExperimentError("report", str(exc)) from None
        print(f"comparison written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrl",
        description="Train and evaluate RL trading agents against baselines on daily OHLCV data.",
    )
    sub = parser.add_subparsers(dest="command")

    p_ingest = sub.add_parser("ingest", help="validate a daily price CSV")
    p_ingest.add_argument("--csv", required=True, help="path to the CSV file")
    p_ingest.set_defaults(cmd=cmd_ingest)

    p_synth = sub.add_parser("synth", help="write a synthetic price fixture CSV")
    p_synth.add_argument("--kind", required=True, choices=SYNTHETIC_KINDS)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--length", type=int, default=300)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--start", default="2020-01-06", help="first date (ISO)")
    p_synth.add_argument("--symbol", default="SYNTH")
    p_synth.add_argument("--base", type=float, default=100.0)
    p_synth.add_argument("--amplitude", type=float, default=10.0)
    p_synth.add_argument("--period", type=float, default=10.0, help="sinusoid period in days")
    p_synth.add_argument("--drift", type=float, default=0.0)
    p_synth.add_argument("--volatility", type=float, default=0.0)
    p_synth.add_argument("--volume", type=float, default=1_000_000.0)
    p_synth.set_defaults(cmd=cmd_synth)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the experiment JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="train an agent and save its checkpoint")
    add_config_args(p_train)
    p_train.set_defaults(cmd=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a trained artifact on the test window")
    add_config_args(p_eval)
    p_eval.add_argument("--checkpoint", default=None, help="trained artifact to load")
    p_eval.set_defaults(cmd=cmd_evaluate)

    p_run = sub.add_parser("run", help="train, evaluate, and write a full report")
    add_config_args(p_run)
    p_run.set_defaults(cmd=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare metrics.json files from report directories")
    p_cmp.add_argument("report_dirs", nargs="+", help="report directories to compare")
    p_cmp.add_argument("--out", default=None, help="also write the comparison as CSV")
    p_cmp.set_defaults(cmd=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if not hasattr(args, "cmd"):
        parser.print_help()
        return 2
    try:
        return args.cmd(args, extras)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
