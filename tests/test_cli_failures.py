"""Every CLI failure past argument parsing is one stage-tagged line on stderr and exit status 1.

A command line argparse cannot parse is its usage and an error line, exit status 2.
"""

import json
import math
import re
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from quantrl.cli import main
from quantrl.market_data import generate_synthetic

LENGTH, TRAIN_BARS = 60, 40
DATES = [d.isoformat() for d in generate_synthetic("sinusoid", length=LENGTH).dates()]


def config(agent="buy_and_hold", **extra):
    return {
        "data": {"synthetic": {"kind": "sinusoid", "length": LENGTH}},
        "agent": agent,
        "episodes": 1,
        "train_start": DATES[0],
        "train_end": DATES[TRAIN_BARS - 1],
        "test_start": DATES[TRAIN_BARS],
        "test_end": DATES[-1],
        **extra,
    }


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def main_quietly(argv):
    """(exit code, stderr, warning messages) of one in-process CLI call; its stdout is dropped."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(StringIO()), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue(), [str(w.message) for w in caught]


def run_cli(capsys, argv):
    """(exit code, stdout, stderr, warning messages) of one in-process CLI call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two complete buy-and-hold reports whose test windows differ."""
    root = tmp_path_factory.mktemp("reports")
    for name, raw in (("good", config()), ("other", config(test_start=DATES[TRAIN_BARS + 1]))):
        cfg = write(root / f"{name}.json", json.dumps(raw))
        assert main(["run", "--config", str(cfg), "--out", str(root / name)]) == 0
    return root


def config_file(tmp, agent="buy_and_hold", **extra):
    return write(tmp / "c.json", json.dumps(config(agent, **extra)))


def metrics_file(tmp, text):
    """A directory holding only a metrics.json with `text`."""
    return write(tmp / "metrics.json", text).parent


def broken_report(tmp, reports, edit):
    """A copy of the good report with `edit(directory)` applied."""
    directory = tmp / "broken"
    shutil.copytree(reports / "good", directory)
    edit(directory)
    return directory


def edit_metrics(change):
    """An edit applying `change` to the document in metrics.json."""
    def edit(directory):
        path = directory / "metrics.json"
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return edit


def edit_test_metrics(change):
    """An edit applying `change` to the buy-and-hold entry of metrics.json."""
    return edit_metrics(lambda doc: change(doc["strategies"]["buy_and_hold"]))


def repeat_test_window(directory):
    """Put a 1999 test window ahead of the real one in directory's metrics.json."""
    path = directory / "metrics.json"
    path.write_text('{"test_window": {"start": "1999-01-04", "end": "1999-12-31"}, '
                    + path.read_text()[1:])


def missing_file(name):
    """A case comparing a copy of the good report without file `name`."""
    return (
        lambda tmp, r: ["compare", broken_report(tmp, r, lambda d: (d / name).unlink())],
        "report", f"broken: incomplete report, missing {re.escape(name)}")


def evaluate_artifact(agent, name, text, *overrides):
    """An evaluate argv loading `text`, written to `name`, as `agent`'s artifact."""
    return lambda tmp, r: ["evaluate", "--config", config_file(tmp, agent),
                           "--checkpoint", write(tmp / name, text), *overrides]


ARTIFACT_NAMES = {"dqn": "checkpoint_dqn.txt", "qtable": "qtable.csv"}


def trained(tmp, agent="dqn"):
    """(config, artifact) of `agent` trained with indicators; its config echo sits beside it."""
    cfg = config_file(tmp, agent, use_indicators=True)
    assert main(["train", "--config", str(cfg), "--out", str(tmp / "trained")]) == 0
    return cfg, tmp / "trained" / ARTIFACT_NAMES[agent]


def evaluate_trained(*overrides, echo=None, agent="dqn"):
    """An evaluate argv for `trained` under `overrides`, its echo's text edited by `echo` if given."""
    def argv(tmp, r):
        cfg, checkpoint = trained(tmp, agent)
        if echo is not None:
            path = checkpoint.parent / "config_echo.json"
            write(path, echo(path.read_text(encoding="utf-8")))
        return ["evaluate", "--config", cfg, "--checkpoint", checkpoint, *overrides]
    return argv


def evaluate_after_baseline_run(tmp, r):
    """An evaluate argv for a DQN checkpoint whose directory a later buy-and-hold run wrote into.

    The run rewrites config_echo.json but leaves the checkpoint, trained under another train_end.
    """
    cfg, shared = config_file(tmp, "dqn"), tmp / "shared"
    assert main(["train", "--config", str(cfg), f"--train_end={DATES[TRAIN_BARS - 5]}",
                 "--out", str(shared)]) == 0
    assert main(["run", "--config", str(cfg), "--agent=buy_and_hold", "--out", str(shared)]) == 0
    return ["evaluate", "--config", cfg, "--checkpoint", shared / "checkpoint_dqn.txt",
            "--out", tmp / "out"]


# (kind, data.synthetic key, value, message) that generate_synthetic refuses
SYNTHETIC_REFUSALS = [
    ("sinusoid", "base", -1.0, "base price must be positive"),
    ("sinusoid", "volume", -1.0, "volume must be non-negative"),
    ("sinusoid", "period_days", 0.0, "period_days must be positive"),
    ("trend", "drift", -1.0, "drift must be > -1"),
    ("gbm", "volatility", -1.0, "volatility must be non-negative"),
]

QTABLE_3_WIDE = "state_key,q_hold,q_buy,q_sell\n1-1-1,0.0,1.0,0.0\n"

BAD_ROW_CSV = (
    "Date,Open,High,Low,Close,Adj Close,Volume\n"
    "2020-01-01,10,11,9,10.5,10.4,1000\n"
    "2020-01-02,10,9,11,10.5,10.4,1000\n"
)

TREND_1E300 = {"synthetic": {"kind": "trend", "length": 120, "drift": 0.05, "base": 1e300}}
TREND_DATES = dict(train_start="2020-01-06", train_end="2020-04-10",
                   test_start="2020-04-13", test_end="2020-06-19")

# id -> (argv from (tmp_path, reports), stage, pattern the message must contain)
CASES = {
    "config-missing": (
        lambda tmp, r: ["run", "--config", tmp / "nope.json"],
        "config", r"nope\.json: \[Errno 2\]"),
    "config-invalid-json": (
        lambda tmp, r: ["run", "--config", write(tmp / "c.json", "{")],
        "config", r"c\.json: Expecting"),
    "config-unknown-key": (
        lambda tmp, r: ["run", "--config", config_file(tmp, bogus=1)],
        "config", "unknown config keys: bogus"),
    "config-bad-override": (
        lambda tmp, r: ["run", "--config", config_file(tmp), "--agent.kind=1"],
        "config", "descends into a non-object value"),
    # a CSV path is a non-empty string; neither of these may reach the CSV reader
    "config-null-csv": (
        lambda tmp, r: ["run", "--config", config_file(tmp, data={"csv": None})],
        "config", "data.csv: expected a file path, got None"),
    "config-empty-csv": (
        lambda tmp, r: ["run", "--config", config_file(tmp, data={"csv": ""})],
        "config", "data.csv: expected a file path, got ''"),
    # the hidden_sizes message names what an empty list lacks; so does this one
    "config-empty-state-cuts": (
        lambda tmp, r: ["run", "--config", config_file(tmp, "qtable"), "--state_cuts=[]"],
        "config", "state_cuts must be a non-empty, strictly increasing list"),
    # json keeps a repeated key's last value: this config would run buy-and-hold
    "config-repeated-key": (
        lambda tmp, r: ["run", "--config", write(
            tmp / "c.json", '{"agent": "qtable", ' + json.dumps(config())[1:])],
        "config", r"c\.json: repeated key 'agent'"),
    "config-repeated-nested-key": (
        lambda tmp, r: ["run", "--config", write(
            tmp / "c.json", json.dumps(config()).replace('"kind"', '"length": 50, "kind"'))],
        "config", r"c\.json: repeated key 'length'"),
    # a --key=JSON value is read as strictly as a config file: this ran a sinusoid
    "config-override-repeated-key": (
        lambda tmp, r: ["run", "--config", config_file(tmp), '--data={"synthetic": '
                        f'{{"kind": "gbm", "kind": "sinusoid", "length": {LENGTH}}}}}'],
        "config", "--data: repeated key 'kind'"),
    # str() made this the symbol, in metrics.json and the default output directory
    "config-symbol-not-a-string": (
        lambda tmp, r: ["run", "--config", config_file(tmp, symbol={"a": 1})],
        "config", r"symbol: expected a string, got \{'a': 1\}"),
    # numpy refused these seeds with a message naming no key, or not at all
    "config-negative-seed": (
        lambda tmp, r: ["run", "--config", config_file(tmp), "--seed", "-1"],
        "config", "seed must be >= 0, got -1"),
    "config-negative-synthetic-seed": (
        lambda tmp, r: ["run", "--config", config_file(tmp, data={"synthetic": {
            "kind": "gbm", "length": LENGTH, "seed": -1, "volatility": 0.01}})],
        "config", r"data\.synthetic\.seed must be >= 0, got -1"),
    "synth-negative-seed": (
        lambda tmp, r: ["synth", "--kind", "gbm", "--length", "40", "--seed", "-1",
                        "--out", tmp / "t.csv"],
        "config", "--seed must be >= 0, got -1"),
    "extra-arguments": (
        lambda tmp, r: ["ingest", "--csv", "x.csv", "--bogus"],
        "config", "unrecognized arguments: --bogus"),
    "ingest-missing-csv": (
        lambda tmp, r: ["ingest", "--csv", tmp / "nope.csv"], "ingest", "No such file"),
    "ingest-bad-row": (
        lambda tmp, r: ["ingest", "--csv", write(tmp / "bad.csv", BAD_ROW_CSV)],
        "ingest", "2020-01-02: OHLC ordering violated"),
    "ingest-empty-csv": (
        lambda tmp, r: ["ingest", "--csv", write(tmp / "e.csv", "")],
        "ingest", r"e\.csv: empty file, expected a header row"),
    "ingest-no-data-rows": (
        lambda tmp, r: ["ingest", "--csv", write(tmp / "h.csv", BAD_ROW_CSV.splitlines()[0] + "\n")],
        "ingest", r"h\.csv: no data rows"),
    "synth-overflow": (
        lambda tmp, r: ["synth", "--kind", "trend", "--drift", "10", "--length", "400",
                        "--out", tmp / "t.csv"],
        "ingest", "2021-02-22: non-finite price open=inf"),
    # synth's flags are parsed as data.synthetic is, not by argparse
    "synth-unknown-kind": (
        lambda tmp, r: ["synth", "--kind", "steps", "--length", "40", "--out", tmp / "t.csv"],
        "config", "--kind: unknown synthetic kind 'steps'"),
    "synth-non-integer-length": (
        lambda tmp, r: ["synth", "--kind", "gbm", "--length", "abc", "--out", tmp / "t.csv"],
        "config", "--length: expected int, got 'abc'"),
    "synth-missing-length": (
        lambda tmp, r: ["synth", "--kind", "gbm", "--out", tmp / "t.csv"],
        "config", "--length is required"),
    # volatility and drift default to 0: a constant series, with no return range to normalize
    "run-gbm-flat": (
        lambda tmp, r: ["run", "--config", config_file(
            tmp, data={"synthetic": {"kind": "gbm", "length": LENGTH}})],
        "ingest", "data.synthetic: gbm with volatility 0 and drift 0 is a constant series,"
                  " which cannot be normalized; set volatility or drift"),
    # each writes nothing: no report directory, no CSV
    **{f"run-synthetic-{key}": (
        lambda tmp, r, kind=kind, key=key, value=value: [
            "run", "--config", config_file(tmp, data={"synthetic": {
                "kind": kind, "length": LENGTH, key: value}}), "--out", tmp / "out"],
        "ingest", re.escape(message)) for kind, key, value, message in SYNTHETIC_REFUSALS},
    **{f"synth-{key}": (
        lambda tmp, r, kind=kind, key=key, value=value: [
            "synth", "--kind", kind, "--length", "50", f"--{key}", str(value), "--out", tmp / "out"],
        "ingest", re.escape(message)) for kind, key, value, message in SYNTHETIC_REFUSALS},
    "run-missing-csv": (
        lambda tmp, r: ["run", "--config", config_file(tmp, data={"csv": str(tmp / "x.csv")})],
        "ingest", "No such file"),
    "test-window-too-short": (
        lambda tmp, r: ["run", "--config", config_file(tmp, test_start=DATES[-1])],
        "ingest", "test window .* holds 1 bars, need >= 2"),
    # 40 training bars cannot fill a 50-day observation window
    "window-too-short-after-warm-up": (
        lambda tmp, r: ["run", "--config", config_file(tmp), "--window=50"],
        "ingest", "window too short after feature warm-up"),
    "train-baseline": (
        lambda tmp, r: ["train", "--config", config_file(tmp)],
        "train", "'buy_and_hold' has nothing to train"),
    # about 1e7 shares at 1e300 a share: wealth overflows float64 and the
    # overflowed reward reaches the Q-table
    "train-qtable-diverged": (
        lambda tmp, r: ["train", "--config", config_file(
            tmp, "qtable", data=TREND_1E300, episodes=3, seed=1, **TREND_DATES),
            "--initial_cash=1e307"],
        "train", "training diverged: non-finite Q-values after episode 2, step 198"),
    # training checks alpha once, before its first step; no qtable.csv is written
    "train-qtable-alpha-above-1": (
        lambda tmp, r: ["train", "--config", config_file(tmp, "qtable"), "--alpha=2",
                        "--out", tmp / "out"],
        "train", r"alpha must be in \(0, 1\]"),
    # the first buy would hold about 1.7e306 shares, past what float64 counts exactly
    "train-cash-overflow": (
        lambda tmp, r: ["train", "--config", config_file(tmp, "dqn"), "--initial_cash=1.7e308"],
        "train", r"cash 1\.7e\+308 at price 100\.0 buys 1\.7e\+306 shares on top of 0,"
                 r" past the 2\*\*53 share bound"),
    # train exited 0 here and run failed late at [evaluate] with no cause
    "run-qtable-cash-overflow": (
        lambda tmp, r: ["run", "--config", config_file(tmp, "qtable"), "--initial_cash=1.7e308"],
        "train", r"buys 1\.5523616351266226e\+306 shares on top of 0, past the 2\*\*53 share bound"),
    # held shares inside the bound, marked wealth past the float64 range
    "evaluate-equity-overflow": (
        lambda tmp, r: ["run", "--config", config_file(
            tmp, data=TREND_1E300, **TREND_DATES), "--initial_cash=2e307"],
        "evaluate", r"equity on 2020-03-24 is inf, not finite and positive"),
    "config-shares-past-2-53": (
        lambda tmp, r: ["run", "--config", config_file(tmp), "--initial_shares=9007199254740993"],
        "config", r"initial_shares must be in \[0, 2\*\*53\]; got 9007199254740993"),
    "out-is-a-file": (
        lambda tmp, r: ["run", "--config", config_file(tmp), "--out", write(tmp / "taken", "")],
        "report", "File exists"),
    "evaluate-no-checkpoint": (
        lambda tmp, r: ["evaluate", "--config", config_file(tmp, "qtable")],
        "evaluate", "needs --checkpoint"),
    # a baseline returned before --checkpoint was read: this exited 0 with a full report
    "evaluate-baseline-with-checkpoint": (
        lambda tmp, r: ["evaluate", "--config", config_file(tmp), "--checkpoint", tmp / "nope.txt",
                        "--out", tmp / "out"],
        "evaluate", r"agent kind 'buy_and_hold' loads no artifact; got --checkpoint \S+nope\.txt"),
    "evaluate-missing-checkpoint": (
        lambda tmp, r: ["evaluate", "--config", config_file(tmp, "dqn"),
                        "--checkpoint", tmp / "nope.txt"],
        "evaluate", "No such file"),
    "evaluate-corrupt-checkpoint": (
        evaluate_artifact("dqn", "ck.txt", "junk\n"), "evaluate", "not a .* checkpoint"),
    "evaluate-wrong-width-checkpoint": (
        evaluate_artifact("dqn", "ck.txt", "quantrl-mlp-v1\n2 3\n" + "0.5\n" * 9),
        "evaluate", "input width 10 does not match first layer size 2"),
    "evaluate-non-numeric-layer-size": (
        evaluate_artifact("dqn", "ck.txt", "quantrl-mlp-v1\n10 x 3\n" + "0.5\n" * 3),
        "evaluate", r"ck\.txt: malformed checkpoint: invalid literal for int\(\) with base 10: 'x'"),
    "evaluate-one-layer-size": (
        evaluate_artifact("dqn", "ck.txt", "quantrl-mlp-v1\n10\n" + "0.5\n" * 3),
        "evaluate", r"ck\.txt: checkpoint needs at least two layer sizes"),
    "evaluate-zero-width-layer": (
        evaluate_artifact("dqn", "ck.txt", "quantrl-mlp-v1\n10 0 3\n" + "0.5\n" * 3),
        "evaluate", "ck.txt: all layer sizes must be >= 1"),
    "evaluate-two-output-checkpoint": (
        evaluate_artifact("dqn", "ck.txt", "quantrl-mlp-v1\n10 2\n" + "0.5\n" * 22),
        "evaluate", r"network must emit one value per action \(3 outputs\)"),
    # trained under window 3, evaluated under window 5: no key would match
    "evaluate-qtable-wrong-width": (
        evaluate_artifact("qtable", "q.csv", QTABLE_3_WIDE, "--window=5"),
        "evaluate", "q-table state 1-1-1 does not fit the observations: "
                    r"expected 5 bin indices in 0\.\.2"),
    # two cut points make bins 0..2
    "evaluate-qtable-bin-out-of-range": (
        evaluate_artifact("qtable", "q.csv", QTABLE_3_WIDE.replace("1-1-1", "0-3-0")),
        "evaluate", "q-table state 0-3-0 does not fit the observations"),
    "evaluate-corrupt-qtable": (
        evaluate_artifact("qtable", "q.csv", "junk\n"), "evaluate", "not a q-table file"),
    # a concatenated table must not evaluate with whichever row came last
    "evaluate-qtable-repeated-state": (
        evaluate_artifact("qtable", "q.csv", QTABLE_3_WIDE + "1-1-1,0.0,0.0,5.0\n"),
        "evaluate", r"q\.csv: repeated state 1-1-1 in row '1-1-1,0\.0,0\.0,5\.0'"),
    "evaluate-qtable-two-values": (
        evaluate_artifact("qtable", "q.csv", QTABLE_3_WIDE.replace(",0.0\n", "\n")),
        "evaluate", r"q\.csv: malformed row '1-1-1,0\.0,1\.0'"),
    "evaluate-qtable-malformed-key": (
        evaluate_artifact("qtable", "q.csv", QTABLE_3_WIDE.replace("1-1-1", "1--1")),
        "evaluate", r"q\.csv: malformed state key in row '1--1,0\.0,1\.0,0\.0'"),
    # the artifact keeps its layout, so only its config echo tells these apart
    "evaluate-echo-other-indicator-periods": (
        evaluate_trained("--sma_period=30", "--rsi_period=5"),
        "evaluate", r"trained/config_echo\.json: artifact trained under sma_period=14, not 30"),
    "evaluate-echo-other-normalization": (
        evaluate_trained("--normalization=unit_range"),
        "evaluate", 'artifact trained under normalization="signed_range", not "unit_range"'),
    # each learner's own shaping key: the cut points keep the Q-table's bin range
    "evaluate-echo-other-state-cuts": (
        evaluate_trained("--state_cuts=[-0.01,0.01]", agent="qtable"),
        "evaluate", r"artifact trained under state_cuts=\[-0\.001, 0\.001\], not \[-0\.01, 0\.01\]"),
    "evaluate-echo-other-hidden-sizes": (
        evaluate_trained("--hidden_sizes=[8]"),
        "evaluate", r"artifact trained under hidden_sizes=\[32, 32\], not \[8\]"),
    "evaluate-echo-other-data": (
        evaluate_trained("--data.synthetic.seed=3"),
        "evaluate", r'artifact trained under data=\{"synthetic": \{.*"seed": 0'),
    # the echo matched on every training key and evaluate exited 0 with a report
    "evaluate-echo-other-agent": (
        evaluate_after_baseline_run,
        "evaluate", r'shared/config_echo\.json: artifact trained under agent="buy_and_hold", not "dqn"'),
    "evaluate-malformed-echo": (
        evaluate_trained(echo=lambda text: "{"), "evaluate", r"trained/config_echo\.json: Expecting"),
    # checked against the last sma_period, the echo passed
    "evaluate-echo-repeated-key": (
        evaluate_trained("--sma_period=30", echo=lambda text: text.replace(
            '"sma_period": 14', '"sma_period": 14, "sma_period": 30')),
        "evaluate", r"trained/config_echo\.json: repeated key 'sma_period'"),
    "evaluate-echo-not-an-object": (
        evaluate_trained(echo=lambda text: "[]"),
        "evaluate", r"config_echo\.json: expected a JSON object"),
    "compare-missing-metrics": (
        lambda tmp, r: ["compare", tmp], "report", r"metrics\.json: \[Errno 2\]"),
    "compare-invalid-json": (
        lambda tmp, r: ["compare", metrics_file(tmp, "{")], "report", r"metrics\.json: Expecting"),
    "compare-list": (
        lambda tmp, r: ["compare", metrics_file(tmp, "[]")],
        "report", r"metrics\.json: expected a JSON object"),
    # compared under its last test_window; the first is a 1999 window
    "compare-repeated-key": (
        lambda tmp, r: ["compare", r / "good", broken_report(tmp, r, repeat_test_window)],
        "report", r"broken/metrics\.json: repeated key 'test_window'"),
    "compare-empty-object": (
        lambda tmp, r: ["compare", metrics_file(tmp, "{}")], "report", "not a report"),
    "compare-empty-test-window": (
        lambda tmp, r: ["compare", metrics_file(tmp, '{"test_window": {}, "strategies": {}}')],
        "report", r"metrics\.json: test_window needs string start and end dates"),
    "compare-no-test-metrics": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows.pop("test")))],
        "report", "strategy 'buy_and_hold' lacks complete test metrics"),
    "compare-missing-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].pop("roi")))],
        "report", "strategy 'buy_and_hold' lacks complete test metrics"),
    "compare-non-numeric-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].update(roi=[1])))],
        "report", r"broken/metrics\.json: strategy 'buy_and_hold' test roi: expected a finite number,"
                  r" 'undefined' or 'inf'; got \[1\]"),
    # json reads NaN: the winner pick raised StopIteration, a traceback
    "compare-nan-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].update(sharpe=math.nan)))],
        "report", "strategy 'buy_and_hold' test sharpe: .* got nan"),
    # true compared as 1
    "compare-bool-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].update(roi=True)))],
        "report", "strategy 'buy_and_hold' test roi: .* got True"),
    # json reads a 401-digit int, which no float holds
    "compare-huge-int-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].update(roi=10**400)))],
        "report", "strategy 'buy_and_hold' test roi: int too large to convert to float"),
    # agent_adtv is in no column; it was not decoded, and compared with exit 0
    "compare-non-numeric-uncompared-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].update(agent_adtv="x")))],
        "report", "strategy 'buy_and_hold' test agent_adtv: .* got 'x'"),
    "compare-missing-uncompared-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["test"].pop("agent_adtv")))],
        "report", "strategy 'buy_and_hold' lacks complete test metrics"),
    # the train half, symbol and train_window were not read: each compared with exit 0
    "compare-no-train-metrics": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows.pop("train")))],
        "report", "strategy 'buy_and_hold' lacks complete train metrics"),
    "compare-non-numeric-train-metric": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_test_metrics(
            lambda windows: windows["train"].update(roi="x")))],
        "report", r"broken/metrics\.json: strategy 'buy_and_hold' train roi: expected a finite number,"
                  r" 'undefined' or 'inf'; got 'x'"),
    "compare-no-symbol": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_metrics(lambda doc: doc.pop("symbol")))],
        "report", r"broken/metrics\.json: symbol must be a string, got None"),
    "compare-no-train-window": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_metrics(
            lambda doc: doc.pop("train_window")))],
        "report", r"broken/metrics\.json: train_window needs string start and end dates"),
    "compare-missing-config-echo": missing_file("config_echo.json"),
    "compare-missing-history": missing_file("history.csv"),
    "compare-missing-equity": missing_file("equity_buy_and_hold.csv"),
    "compare-missing-trades": missing_file("trades_buy_and_hold.csv"),
    # a report of no strategy reached the table builder
    "compare-no-strategies": (
        lambda tmp, r: ["compare", broken_report(tmp, r, edit_metrics(
            lambda doc: doc["strategies"].clear()))],
        "report", "nothing to compare"),
    "compare-mismatched-windows": (
        lambda tmp, r: ["compare", r / "good", r / "other"],
        "report", "test windows differ: other:buy_and_hold covers"),
}


@pytest.mark.parametrize("case", CASES)
def test_failure_is_one_tagged_line(tmp_path, capsys, monkeypatch, reports, case):
    # a row's report directory, named by --out or defaulted under the out
    # root, is tmp/out or inside it, which must stay unwritten
    monkeypatch.setenv("QUANTRL_OUT_ROOT", str(tmp_path / "out"))
    argv, stage, pattern = CASES[case]
    code, _, err, caught = run_cli(capsys, argv(tmp_path, reports))
    assert code == 1
    assert re.fullmatch(rf"error: \[{stage}\] [^\n]*{pattern}[^\n]*\n", err), err
    assert caught == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--config", "c.json", "--seed", "abc"],
    ["backtest", "--config", "c.json"],
])
def test_usage_error_exits_2_untagged(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert err.startswith("usage: quantrl") and "Traceback" not in err
    assert re.fullmatch(r"quantrl[ a-z]*: error: [^\n]+", err.splitlines()[-1])


def test_bare_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("usage: quantrl") and "{ingest,synth,train,evaluate,run,compare}" in out
    assert err == ""


def evaluates_trained(tmp_path, capsys, agent, *overrides):
    """Whether `trained` evaluates under `overrides`: exit 0, no stderr, a test ROI line."""
    cfg, artifact = trained(tmp_path, agent)
    code, out, err, _ = run_cli(capsys, [
        "evaluate", "--config", cfg, "--checkpoint", artifact, "--out", tmp_path / "evaluated",
        *overrides,
    ])
    return code == 0 and err == "" and f"{agent}: test ROI" in out


def test_evaluation_side_keys_may_differ_from_the_echo(tmp_path, capsys):
    assert evaluates_trained(
        tmp_path, capsys, "dqn",
        "--cost_rate=0.01", f"--test_start={DATES[TRAIN_BARS + 1]}", "--initial_shares=3",
    )


# the key that shapes only the other learner's artifact
@pytest.mark.parametrize("agent, override", [
    ("dqn", "--state_cuts=[-0.5,0.5]"),
    ("qtable", "--hidden_sizes=[8]"),
])
def test_other_learners_key_may_differ_from_the_echo(tmp_path, capsys, agent, override):
    assert evaluates_trained(tmp_path, capsys, agent, override)
    # the key shapes nothing the artifact holds: the report is the unchanged config's
    code, _, err, _ = run_cli(capsys, [
        "evaluate", "--config", tmp_path / "c.json",
        "--checkpoint", tmp_path / "trained" / ARTIFACT_NAMES[agent], "--out", tmp_path / "plain",
    ])
    assert code == 0 and err == ""
    assert ((tmp_path / "evaluated" / "metrics.json").read_bytes()
            == (tmp_path / "plain" / "metrics.json").read_bytes())


def test_valid_reports_compare(tmp_path, capsys, reports):
    code, out, err, _ = run_cli(capsys, ["compare", reports / "good", reports / "good",
                                         "--out", tmp_path / "cmp.csv"])
    assert code == 0 and err == ""
    assert "good:buy_and_hold#2" in out and (tmp_path / "cmp.csv").is_file()


@st.composite
def damaged(draw, data: bytes) -> tuple[str, bytes]:
    """(how, `data` truncated at a byte, with one byte substituted, or with a line deleted or repeated)."""
    how = draw(st.sampled_from(["truncated", "substituted", "deleted", "repeated"]))
    if how == "truncated":
        return how, data[:draw(st.integers(0, len(data) - 1))]
    if how == "substituted":
        i = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[i]))
        return how, data[:i] + bytes([byte]) + data[i + 1:]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    kept = lines[:i] + lines[i + 1:] if how == "deleted" else lines[:i + 1] + lines[i:]
    return how, b"".join(kept)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_metrics_json_compares_or_is_one_tagged_line(reports, data):
    good = reports / "good"
    how, text = data.draw(damaged((good / "metrics.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        broken = shutil.copytree(good, Path(tmp) / "broken")
        (broken / "metrics.json").write_bytes(text)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compare", str(good), str(broken)])
    event(f"{how}, exit {code}")
    assert code in (0, 1)
    if code == 1:
        assert re.fullmatch(r"error: \[report\] \S[^\n]*\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    """{agent: (config, artifact)} of `trained`, trained once per learner."""
    return {agent: trained(tmp_path_factory.mktemp(agent), agent) for agent in ARTIFACT_NAMES}


@pytest.mark.parametrize("agent, name", [
    ("qtable", "qtable.csv"), ("dqn", "checkpoint_dqn.txt"), ("qtable", "config_echo.json"),
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_artifact_evaluates_or_is_one_tagged_line(trained_artifacts, agent, name, data):
    cfg, artifact = trained_artifacts[agent]
    how, text = data.draw(damaged((artifact.parent / name).read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        directory = shutil.copytree(artifact.parent, Path(tmp) / "trained")
        (directory / name).write_bytes(text)
        code, err, caught = main_quietly(["evaluate", "--config", cfg, "--checkpoint",
                                          directory / artifact.name, "--out", Path(tmp) / "out"])
        left = (Path(tmp) / "out").exists()
    event(f"{how}, exit {code}")
    assert caught == []
    assert code in (0, 1)
    if code == 1:
        assert re.fullmatch(r"error: \[evaluate\] \S[^\n]*\n", err), err
        assert not left
    else:
        assert err == ""


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    """The sinusoid of `config` written as a price CSV."""
    path = tmp_path_factory.mktemp("prices") / "data.csv"
    assert main_quietly(["synth", "--kind", "sinusoid", "--length", LENGTH, "--out", path])[0] == 0
    return path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_price_csv_runs_or_is_one_tagged_line(price_csv, data):
    # a small Q-table run: ingest, training and evaluation all read the damaged bars
    how, text = data.draw(damaged(price_csv.read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "data.csv"
        csv.write_bytes(text)
        cfg = write(Path(tmp) / "c.json", json.dumps(config("qtable", data={"csv": str(csv)})))
        code, err, caught = main_quietly(["run", "--config", cfg, "--out", Path(tmp) / "out"])
        left = (Path(tmp) / "out").exists()
    event(f"{how}, exit {code}")
    assert caught == []
    assert code in (0, 1)
    if code == 1:
        assert re.fullmatch(r"error: \[(config|ingest|train|evaluate|report)\] \S[^\n]*\n", err), err
        assert not left
    else:
        assert err == ""


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_config_runs_or_is_one_tagged_line(data):
    # the small Q-table run of the price CSV property, from a damaged config file
    text = json.dumps(config("qtable"), indent=2).encode("utf-8")
    how, text = data.draw(damaged(text))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_bytes(text)
        code, err, caught = main_quietly(["run", "--config", cfg, "--out", Path(tmp) / "out"])
        left = (Path(tmp) / "out").exists()
    event(f"{how}, exit {code}")
    assert caught == []
    assert code in (0, 1)
    if code == 1:
        assert re.fullmatch(r"error: \[(config|ingest|train|evaluate|report)\] \S[^\n]*\n", err), err
        assert not left
    else:
        assert err == ""


def row_labels(out):
    """The strategy column of a compare table."""
    return [line.split()[0] for line in out.splitlines()[2:]]


# id -> (directory to run in, from (tmp_path, reports), compare arguments, row labels)
LABEL_CASES = {
    "dot": (lambda tmp, r: r / "good", ["."], ["good:buy_and_hold"]),
    "dot-dot": (
        lambda tmp, r: broken_report(tmp, r, lambda d: (d / "inner").mkdir()) / "inner",
        [".."], ["broken:buy_and_hold"]),
    "same-name-twice": (
        lambda tmp, r: r / "good", [".", "../good"], ["good:buy_and_hold", "good:buy_and_hold#2"]),
}


@pytest.mark.parametrize("case", LABEL_CASES)
def test_compare_labels_rows_by_directory_name(tmp_path, capsys, monkeypatch, reports, case):
    where, args, labels = LABEL_CASES[case]
    monkeypatch.chdir(where(tmp_path, reports))
    code, out, err, _ = run_cli(capsys, ["compare", *args])
    assert code == 0 and err == ""
    assert row_labels(out) == labels


@pytest.mark.parametrize(
    "subcommand, failing", [("run", "equity_buy_and_hold.csv"), ("train", "qtable.csv")]
)
def test_cut_short_write_leaves_no_metrics(tmp_path, capsys, monkeypatch, subcommand, failing):
    # a complete earlier report sits in the directory; the new one fails partway
    cfg = config_file(tmp_path, "qtable")
    out = tmp_path / "report"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert run_cli(capsys, ["compare", out])[0] == 0
    real_write_text = Path.write_text

    def failing_write_text(self, *args, **kwargs):
        if self == out / failing:
            raise OSError(28, "No space left on device")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    failed = run_cli(capsys, [subcommand, "--config", cfg, "--out", out])
    monkeypatch.undo()
    assert failed[0] == 1 and failed[2] == "error: [report] [Errno 28] No space left on device\n"
    assert not (out / "metrics.json").exists()
    code, _, err, _ = run_cli(capsys, ["compare", out])
    assert code == 1 and re.fullmatch(r"error: \[report\] \S+metrics\.json: \[Errno 2\][^\n]*\n", err)
