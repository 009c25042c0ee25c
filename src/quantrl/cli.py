"""Command-line surface: ingest, synth, train, evaluate, run, compare.

Once argparse has parsed the command line, every failure is one
stage-tagged line on stderr and exit status 1; a command line argparse
refuses (a missing --config, --seed abc, an unknown subcommand) prints its
usage and an error line and exits 2. Config values can be overridden per
run with --key=value tokens using dotted paths, e.g. --episodes=50 or
--data.synthetic.length=300.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Sequence

from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    LEARNING_AGENTS,
    compare_test_metrics,
    config_from_dict,
    emit_report,
    emit_training,
    load_artifact,
    load_bars,
    load_report_metrics,
    parse_json,
    prepare_train,
    read_json,
    run_experiment,
    stage,
    synthetic_from_dict,
    train_agent,
)
from .market_data import SyntheticSpec, generate_synthetic, load_csv, write_csv

OUT_ROOT_ENV = "QUANTRL_OUT_ROOT"

_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.]+)=(.*)$", re.DOTALL)


def _apply_overrides(raw: dict, tokens: Sequence[str]) -> dict:
    for token in tokens:
        match = _OVERRIDE_RE.match(token)
        if not match:
            raise ConfigError(f"unrecognized argument {token!r}; overrides look like --key=value")
        dotted, text = match.groups()
        try:
            value = parse_json(text)
        except json.JSONDecodeError:
            value = text
        except ValueError as exc:
            raise ConfigError(f"--{dotted}: {exc}") from None
        node = raw
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} descends into a non-object value")
        node[leaf] = value
    return raw


def _load_config(args: argparse.Namespace, extras: Sequence[str]) -> ExperimentConfig:
    with stage("config"):
        raw = _apply_overrides(read_json(args.config), extras)
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        return config_from_dict(raw)


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
    with stage("ingest"):
        bars = load_csv(args.csv)
    first, last = bars.dates()[0], bars.dates()[-1]
    print(f"ok: {len(bars)} bars of {bars.symbol} from {first} to {last}")
    return 0


def cmd_synth(args: argparse.Namespace, extras: Sequence[str]) -> int:
    _reject_extras(extras)
    with stage("config"):
        given = {f.name: getattr(args, f.name) for f in fields(SyntheticSpec) if f.name in args}
        spec = synthetic_from_dict(given, prefix="--")
    with stage("ingest"):
        bars = generate_synthetic(**asdict(spec))
        write_csv(bars, args.out)
    print(f"wrote {len(bars)} bars to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace, extras: Sequence[str]) -> int:
    cfg = _load_config(args, extras)
    if cfg.agent not in LEARNING_AGENTS:
        raise ExperimentError("train", f"agent kind {cfg.agent!r} has nothing to train")
    with stage("ingest"):
        _, _, train_window = prepare_train(cfg, load_bars(cfg))
    with stage("train"):
        artifact, history = train_agent(cfg, train_window)
    out = _resolve_out_dir(cfg, args.out)
    with stage("report"):
        emit_training(cfg, history, artifact, out)
    print(f"trained {cfg.agent} for {cfg.episodes} episodes; artifacts in {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace, extras: Sequence[str]) -> int:
    cfg = _load_config(args, extras)
    with stage("evaluate"):
        artifact = load_artifact(cfg, args.checkpoint)
    return _report(cfg, artifact, args.out)


def cmd_run(args: argparse.Namespace, extras: Sequence[str]) -> int:
    return _report(_load_config(args, extras), None, args.out)


def _report(cfg: ExperimentConfig, artifact, arg_out: str | None) -> int:
    """Run the experiment (training unless given an artifact), write and summarize it."""
    report = run_experiment(cfg, artifact=artifact)
    out = _resolve_out_dir(cfg, arg_out)
    with stage("report"):
        emit_report(report, out)
    start, end = report.test_window_span
    print(f"test window {start}..{end}")
    for name, result in report.strategies.items():
        print(f"  {name}: test ROI {result.test_metrics.roi:+.4%}")
    print(f"report written to {out}")
    return 0


def _report_label(report_dir: str) -> str:
    """The directory's name; for `.` and `..`, which have none, the resolved one's."""
    path = Path(report_dir)
    return f"{(path.resolve() if path.name in ('', '..') else path).name}:"


def cmd_compare(args: argparse.Namespace, extras: Sequence[str]) -> int:
    _reject_extras(extras)
    with stage("report"):
        table = compare_test_metrics(
            [(_report_label(d), *load_report_metrics(d)) for d in args.report_dirs]
        )
        print(table.to_text(), end="")
        if args.out:
            Path(args.out).write_text(table.to_csv_text(), encoding="utf-8")
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
    # One flag per data.synthetic key, parsed as the config parses that key.
    for f in fields(SyntheticSpec):
        default = "required" if f.default is MISSING else f"default {f.default}"
        p_synth.add_argument(f"--{f.name}", default=argparse.SUPPRESS, help=f"{f.type}, {default}")
    p_synth.add_argument("--out", required=True, help="output CSV path")
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
