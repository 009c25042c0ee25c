import json
import math
import re
import tempfile
import warnings
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantrl.cli import _build_parser, main
from quantrl.experiment import (
    AGENT_KINDS,
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    TRAINING_KEYS,
    build_window,
    compare_strategies,
    compare_test_metrics,
    config_from_dict,
    config_to_dict,
    emit_report,
    emit_training,
    greedy_policy,
    load_bars,
    load_report_metrics,
    make_env,
    parse_config,
    parse_json,
    prepare_data,
    prepare_train,
    read_json,
    run_experiment,
    run_policy,
    run_prepared,
    split_train_test,
    stage,
    train_agent,
)
from quantrl.market_data import BarSeries, SyntheticSpec, generate_synthetic, write_csv
from quantrl.metrics import Fill, decode_metric
from quantrl.neural_net import _row_forward, forward, init_mlp
from quantrl.rl_agents import (
    Discretizer,
    QTable,
    TrainConfig,
    q_update,
    select_action,
    train_dqn,
    train_qlearning,
)
from quantrl.trading_env import Action

from conftest import make_series


def synthetic_dates(kind="sinusoid", length=260, **params):
    bars = generate_synthetic(kind, length=length, **params)
    return bars.dates()


def emitted(write, *args):
    """Each file `write(*args, out_dir)` writes (emit_report, emit_training), name -> bytes."""
    with tempfile.TemporaryDirectory() as out:
        return {path.name: path.read_bytes() for path in write(*args, out)}


def sinusoid_config(agent="buy_and_hold", length=120, train_days=80, **extra):
    dates = synthetic_dates(length=length)
    raw = {
        "data": {
            "synthetic": {
                "kind": "sinusoid",
                "length": length,
                "base": 100.0,
                "amplitude": 10.0,
                "period_days": 10.0,
            }
        },
        "agent": agent,
        "train_start": dates[0].isoformat(),
        "train_end": dates[train_days - 1].isoformat(),
        "test_start": dates[train_days].isoformat(),
        "test_end": dates[-1].isoformat(),
    }
    raw.update(extra)
    return config_from_dict(raw)


def _int_forms(values):
    """An int strategy whose draws may arrive as an int, an integral float or a string."""
    return values.flatmap(lambda v: st.sampled_from([v, float(v), str(v)]))


def _floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def valid_raw_configs(draw):
    """A raw config mapping that config_from_dict accepts."""
    floats = ("base", "amplitude", "period_days", "drift", "volatility", "volume")
    synthetic = st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["sinusoid", "trend", "gbm"]),
            "length": _int_forms(st.integers(2, 10**6)),
        },
        optional={
            "seed": _int_forms(st.integers(0, 2**32)),
            "start": st.dates().map(date.isoformat),
            **{key: _floats(-1e6, 1e6) for key in floats},
        },
    )
    data = st.one_of(st.just({"csv": "data/prices.csv"}), synthetic.map(lambda s: {"synthetic": s}))
    raw = {"data": draw(data), "agent": draw(st.sampled_from(AGENT_KINDS))}
    if draw(st.booleans()):
        days = sorted(draw(st.lists(st.dates(), min_size=4, max_size=4, unique=True)))
        keys = ("train_start", "train_end", "test_start", "test_end")
        raw.update({key: day.isoformat() for key, day in zip(keys, days)})
    eps = sorted(draw(st.lists(_floats(0.0, 1.0), min_size=2, max_size=2)))
    cuts = st.lists(_floats(-10.0, 10.0), min_size=1, max_size=4, unique=True).map(sorted)
    fast = draw(st.integers(1, 30))
    raw.update({"eps_end": eps[0], "eps_start": eps[1], "fast_period": fast})
    raw["slow_period"] = fast + draw(st.integers(1, 30))
    raw.update(draw(st.fixed_dictionaries({}, optional={
        "symbol": st.one_of(st.none(), st.text(max_size=8)),
        "window": st.one_of(st.none(), _int_forms(st.integers(1, 60))),
        "use_indicators": st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1])),
        "sma_period": _int_forms(st.integers(1, 60)),
        "rsi_period": _int_forms(st.integers(1, 60)),
        "normalization": st.sampled_from(["unit_range", "signed_range"]),
        "return_field": st.sampled_from(["close", "adj_close"]),
        "initial_cash": _floats(1e-3, 1e12),
        "initial_shares": _int_forms(st.integers(0, 10**6)),
        "cost_rate": _floats(0.0, 0.99),
        "reward_mode": st.sampled_from(["percentage", "absolute"]),
        "buy_fraction": _floats(0.0, 1.0, exclude_min=True),
        "sell_fraction": _floats(0.0, 1.0, exclude_min=True),
        "alpha": _floats(1e-9, 10.0),
        "gamma": _floats(0.0, 0.999),
        "episodes": _int_forms(st.integers(1, 10**4)),
        "batch_size": _int_forms(st.integers(1, 10**4)),
        "buffer_capacity": _int_forms(st.integers(1, 10**6)),
        "target_sync_period": _int_forms(st.integers(1, 10**4)),
        "eps_decay_fraction": _floats(0.0, 1.0, exclude_min=True),
        "hidden_sizes": st.lists(_int_forms(st.integers(1, 64)), min_size=1, max_size=3),
        "state_cuts": cuts,
        "risk_free_rate": _floats(-0.01, 0.01),
        "annualization": st.one_of(st.none(), _floats(1e-3, 1e3)),
        "holding_day_count": st.sampled_from(["calendar", "trading"]),
        "seed": _int_forms(st.integers(0, 2**32)),
        "out_dir": st.one_of(st.none(), st.text(min_size=1, max_size=8)),
    })))
    return raw


# Any value Python's json reads: NaN, +-inf and integers too large for a float included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def fuzzed_raw_configs(draw):
    """A valid raw config with arbitrary JSON values under any subset of its keys and data's."""
    raw = draw(valid_raw_configs())
    synthetic = raw["data"].get("synthetic")
    if synthetic is not None:
        for key in draw(st.sets(st.sampled_from([f.name for f in fields(SyntheticSpec)]))):
            synthetic[key] = draw(json_values)
    if draw(st.booleans()):
        raw["data"] = {draw(st.sampled_from(["csv", "synthetic"])): draw(json_values)}
    for key in draw(st.sets(st.sampled_from(CONFIG_KEYS))):
        raw[key] = draw(json_values)
    return raw


class TestParseJson:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_reads_what_json_writes(self, value):
        # dumps are compared because NaN != NaN
        assert json.dumps(parse_json(json.dumps(value))) == json.dumps(value)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=8), json_values, json_values,
           st.lists(st.sampled_from(["[%s]", '{"outer": %s, "sibling": 1}']), max_size=4))
    def test_repeated_key_is_refused_at_any_depth(self, key, first, second, wrappers):
        text = f"{{{json.dumps(key)}: {json.dumps(first)}, {json.dumps(key)}: {json.dumps(second)}}}"
        for wrapper in wrappers:
            text = wrapper % text
        with pytest.raises(ValueError, match=re.escape(f"repeated key {key!r}")):
            parse_json(text)


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(fuzzed_raw_configs())
    def test_refuses_only_with_config_error(self, raw):
        # a config is parsed or refused with a message; no other exception escapes
        try:
            assert isinstance(config_from_dict(raw), ExperimentConfig)
        except ConfigError:
            pass

    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"data": {"csv": "prices.csv"}, "agent": "dqn"}))
        cfg = parse_config(path)
        assert cfg.window == 10
        assert cfg.alpha == 0.001
        assert cfg.gamma == 0.99
        assert cfg.seed == 42
        assert cfg.train_start == date(2010, 1, 1)
        assert cfg.test_end == date(2020, 12, 31)
        assert cfg.symbol == "prices"
        assert cfg.annualization == pytest.approx(math.sqrt(252.0))

    def test_qtable_window_default(self):
        cfg = config_from_dict({"data": {"csv": "x.csv"}, "agent": "qtable"})
        assert cfg.window == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: learning_rate"):
            config_from_dict({"data": {"csv": "x.csv"}, "agent": "dqn", "learning_rate": 1})

    def test_unknown_agent_lists_kinds(self):
        with pytest.raises(ConfigError, match="ppo.*qtable, dqn, buy_and_hold, sma_crossover"):
            config_from_dict({"data": {"csv": "x.csv"}, "agent": "ppo"})

    def test_window_overlap_rejected(self):
        with pytest.raises(ConfigError, match="strictly precede"):
            config_from_dict(
                {
                    "data": {"csv": "x.csv"},
                    "agent": "dqn",
                    "train_end": "2020-06-01",
                    "test_start": "2020-05-01",
                }
            )

    @pytest.mark.parametrize("raw", [[], ["agent"], 3, None])
    def test_non_object_refused(self, raw):
        with pytest.raises(ConfigError) as refused:
            config_from_dict(raw)
        assert str(refused.value) == "config must be a JSON object"

    def test_data_shape_validated(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"data": {}, "agent": "dqn"})
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"data": {"csv": "a", "synthetic": {}}, "agent": "dqn"})

    def test_synthetic_spec_validated(self):
        with pytest.raises(ConfigError, match="unknown synthetic kind"):
            config_from_dict(
                {"data": {"synthetic": {"kind": "steps", "length": 10}}, "agent": "dqn"}
            )
        with pytest.raises(ConfigError, match="length"):
            config_from_dict(
                {"data": {"synthetic": {"kind": "gbm"}}, "agent": "dqn"}
            )

    def test_hyperparameters_validated(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({"data": {"csv": "x.csv"}, "agent": "dqn", "gamma": 1.5})
        with pytest.raises(ConfigError, match="cost_rate"):
            config_from_dict({"data": {"csv": "x.csv"}, "agent": "dqn", "cost_rate": 1.0})
        for key in ("buy_fraction", "sell_fraction"):
            for bad in (0, -0.5, 1.5, 7):
                with pytest.raises(ConfigError, match=key):
                    config_from_dict({"data": {"csv": "x.csv"}, "agent": "sma_crossover", key: bad})
        # TrainConfig's own messages, word for word, reported as config errors
        path = tmp_path / "exp.json"
        for bad in (
            {"alpha": 0}, {"alpha": -1e-3}, {"gamma": 1.0}, {"gamma": -0.1}, {"episodes": 0},
            {"batch_size": 0}, {"buffer_capacity": -5}, {"target_sync_period": 0},
            {"eps_start": 1.5}, {"eps_start": 0.1, "eps_end": 0.2}, {"eps_end": -0.01},
            {"eps_decay_fraction": 0}, {"eps_decay_fraction": 1.5}, {"seed": -1},
        ):
            with pytest.raises(ValueError) as expected:
                TrainConfig(**bad)
            raw = {"data": {"csv": "x.csv"}, "agent": "dqn", **bad}
            with pytest.raises(ConfigError) as parsed:
                config_from_dict(raw)
            assert str(parsed.value) == str(expected.value), bad
            path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: [config] {expected.value}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("data", None, "missing required key 'data'"),
        ("agent", None, "missing required key 'agent'"),
        ("train_start", "2030-01-01", "train_start must not be after train_end"),
        ("test_end", "2000-01-01", "test_start must not be after test_end"),
        ("window", 0, "window must be >= 1"),
        ("hidden_sizes", [], "hidden_sizes must be a non-empty list of positive integers"),
        ("hidden_sizes", [8, 0], "hidden_sizes must be a non-empty list of positive integers"),
        ("annualization", 0, "annualization must be positive"),
        ("fast_period", 30, "need slow_period > fast_period >= 1"),
        ("fast_period", 0, "need slow_period > fast_period >= 1"),
        ("initial_cash", 0, "initial_cash must be positive"),
        ("sma_period", 0, "indicator periods must be >= 1"),
        ("rsi_period", 0, "indicator periods must be >= 1"),
    ])
    def test_one_key_edit_is_refused_with_its_message(self, key, value, message):
        # each edit of a valid config, or removal when value is None, breaks one rule
        raw = config_to_dict(sinusoid_config())
        if value is None:
            del raw[key]
        else:
            raw[key] = value
        with pytest.raises(ConfigError) as refused:
            config_from_dict(raw)
        assert str(refused.value) == message

    def test_coercion_errors_name_the_key(self):
        base = {"data": {"csv": "x.csv"}, "agent": "dqn"}
        cases = [
            ({"hidden_sizes": 5}, "hidden_sizes: expected tuple[int, ...], got 5"),
            ({"alpha": "fast"}, "alpha: expected float, got 'fast'"),
            ({"episodes": float("inf")}, "episodes: expected int, got inf"),
            ({"window": "wide"}, "window: expected int | None, got 'wide'"),
            ({"annualization": [1]}, "annualization: expected float | None, got [1]"),
            ({"test_end": "2020-13-01"}, "test_end: expected date, got '2020-13-01'"),
            ({"data": {"synthetic": {"kind": "gbm", "length": "long"}}},
             "data.synthetic.length: expected int, got 'long'"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "base": None}}},
             "data.synthetic.base: expected float, got None"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "start": "2020-02-30"}}},
             "data.synthetic.start: expected date, got '2020-02-30'"),
            # values that used to coerce to a wrong answer without a word
            ({"use_indicators": "false"}, "use_indicators: expected bool, got 'false'"),
            ({"use_indicators": 2}, "use_indicators: expected bool, got 2"),
            ({"use_indicators": 1.0}, "use_indicators: expected bool, got 1.0"),
            ({"episodes": 3.7}, "episodes: expected int, got 3.7"),
            ({"episodes": True}, "episodes: expected int, got True"),
            ({"window": 2.5}, "window: expected int | None, got 2.5"),
            ({"cost_rate": False}, "cost_rate: expected float, got False"),
            ({"annualization": True}, "annualization: expected float | None, got True"),
            ({"hidden_sizes": [32.5]}, "hidden_sizes: expected tuple[int, ...], got [32.5]"),
            ({"hidden_sizes": "32"}, "hidden_sizes: expected tuple[int, ...], got '32'"),
            ({"state_cuts": [True]}, "state_cuts: expected tuple[float, ...], got [True]"),
            ({"train_start": "20200106"}, "train_start: expected date, got '20200106'"),
            ({"test_end": "2020-W02-2"}, "test_end: expected date, got '2020-W02-2'"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "seed": True}}},
             "data.synthetic.seed: expected int, got True"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "base": False}}},
             "data.synthetic.base: expected float, got False"),
            ({"data": {"synthetic": 5}}, "data.synthetic: expected an object"),
            ({"data": {"synthetic": ["kind"]}}, "data.synthetic: expected an object"),
            # str() made these a symbol; the falsy ones took the CSV stem
            ({"symbol": {"a": 1}}, "symbol: expected a string, got {'a': 1}"),
            ({"symbol": 5}, "symbol: expected a string, got 5"),
            ({"symbol": 0}, "symbol: expected a string, got 0"),
            ({"symbol": False}, "symbol: expected a string, got False"),
            ({"symbol": []}, "symbol: expected a string, got []"),
        ]
        for bad, message in cases:
            with pytest.raises(ConfigError) as info:
                config_from_dict({**base, **bad})
            assert str(info.value) == message

    def test_non_finite_floats_rejected(self, tmp_path, capsys):
        # NaN passed every range check and reached the report ("sharpe": NaN);
        # inf passed the positivity checks
        base = {"data": {"csv": "x.csv"}, "agent": "dqn"}
        cases = [
            ({"annualization": float("nan")}, "annualization: expected a finite number, got nan"),
            ({"risk_free_rate": float("nan")}, "risk_free_rate: expected a finite number, got nan"),
            ({"initial_cash": float("inf")}, "initial_cash: expected a finite number, got inf"),
            ({"cost_rate": float("-inf")}, "cost_rate: expected a finite number, got -inf"),
            ({"alpha": "nan"}, "alpha: expected a finite number, got 'nan'"),
            ({"state_cuts": [float("nan")]}, "state_cuts: expected a finite number, got nan"),
            ({"state_cuts": [-1.0, "inf"]}, "state_cuts: expected a finite number, got 'inf'"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "base": float("nan")}}},
             "data.synthetic.base: expected a finite number, got nan"),
            ({"data": {"synthetic": {"kind": "gbm", "length": 9, "volume": float("inf")}}},
             "data.synthetic.volume: expected a finite number, got inf"),
        ]
        path = tmp_path / "exp.json"
        for bad, message in cases:
            with pytest.raises(ConfigError) as info:
                config_from_dict({**base, **bad})
            assert str(info.value) == message
            # Python's json reads and writes NaN and Infinity literals
            path.write_text(json.dumps({**base, **bad}))
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: [config] {message}\n"
        assert config_from_dict({**base, "risk_free_rate": "1e-300"}).risk_free_rate == 1e-300

    def test_out_dir_is_a_string_or_null(self, tmp_path, capsys, monkeypatch):
        base = {"data": {"csv": "x.csv"}, "agent": "dqn"}
        assert config_from_dict({**base, "out_dir": "runs/a"}).out_dir == "runs/a"
        assert config_from_dict({**base, "out_dir": None}).out_dir is None
        for bad in (5, 0, False, ["runs"], {"dir": "runs"}):
            message = f"out_dir: expected a string, got {bad!r}"
            with pytest.raises(ConfigError) as info:
                config_from_dict({**base, "out_dir": bad})
            assert str(info.value) == message
        # without --out, `run` used to die in Path(5) with a traceback
        csv = tmp_path / "sine.csv"
        write_csv(generate_synthetic("sinusoid", length=40), csv)
        dates = synthetic_dates(length=40)
        raw = {"data": {"csv": str(csv)}, "agent": "buy_and_hold", "out_dir": 5,
               "train_start": dates[0].isoformat(), "train_end": dates[19].isoformat(),
               "test_start": dates[20].isoformat(), "test_end": dates[-1].isoformat()}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: [config] out_dir: expected a string, got 5\n"
        assert not (tmp_path / "runs").exists()

    def test_synthetic_values_coerced(self):
        spec = {"kind": "gbm", "length": "260", "seed": "3", "start": "2021-02-01",
                "base": 100, "volatility": "0.2"}
        cfg = config_from_dict({"data": {"synthetic": spec}, "agent": "dqn"})
        synthetic = cfg.data
        assert (synthetic.length, synthetic.seed, synthetic.start, synthetic.base, synthetic.volatility) == (
            260, 3, date(2021, 2, 1), 100.0, 0.2
        )
        # every value has its field's type, whatever JSON type it arrived as
        assert [type(getattr(synthetic, f.name)).__name__ for f in fields(synthetic)] == [
            f.type for f in fields(synthetic)
        ]
        assert len(load_bars(cfg)) == 260
        # the echoed length is the number of bars generated; a fractional one is rejected
        synthetic = {"kind": "gbm", "length": 260.0}
        cfg = config_from_dict({"data": {"synthetic": synthetic}, "agent": "dqn"})
        assert config_to_dict(cfg)["data"]["synthetic"]["length"] == len(load_bars(cfg)) == 260
        message = "data.synthetic.length: expected int, got 260.9"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict({"data": {"synthetic": {**synthetic, "length": 260.9}}, "agent": "dqn"})

    def test_integral_and_boolean_forms_accepted(self):
        base = {"data": {"csv": "x.csv"}, "agent": "dqn"}
        integral = {"episodes": 3.0, "window": 4.0, "hidden_sizes": [8.0, "4"]}
        cfg = config_from_dict({**base, **integral, "use_indicators": 1})
        assert (cfg.episodes, cfg.window, cfg.hidden_sizes) == (3, 4, (8, 4))
        assert cfg.use_indicators is True
        assert type(cfg.episodes) is int and type(cfg.window) is int
        assert config_from_dict({**base, "use_indicators": True}).use_indicators is True
        assert config_from_dict({**base, "use_indicators": False}).use_indicators is False

    def test_null_values(self):
        base = {"data": {"csv": "x.csv"}, "agent": "qtable"}
        cfg = config_from_dict(
            {**base, "symbol": None, "window": None, "annualization": None,
             "use_indicators": None, "out_dir": None}
        )
        assert (cfg.symbol, cfg.window, cfg.use_indicators, cfg.out_dir) == ("x", 3, False, None)
        assert config_from_dict({**base, "symbol": ""}).symbol == "x"
        assert cfg.annualization == math.sqrt(252.0)
        for key in ("alpha", "episodes", "hidden_sizes", "train_start", "normalization"):
            with pytest.raises(ConfigError):
                config_from_dict({**base, key: None})

    def test_values_coerced_to_field_types(self):
        # each typed key is converted to its field's type, whatever JSON type it arrives as
        checked = 0
        for f in fields(ExperimentConfig):
            default = f.default
            if isinstance(default, bool):
                raw = int(default)
            elif isinstance(default, (int, float)):
                raw = str(default)
            elif isinstance(default, tuple):
                raw = [str(v) for v in default]
            elif isinstance(default, date):
                raw = default.isoformat()
            else:
                continue
            cfg = config_from_dict({"data": {"csv": "x.csv"}, "agent": "dqn", f.name: raw})
            value = getattr(cfg, f.name)
            assert value == default and type(value) is type(default), f.name
            if isinstance(default, tuple):
                assert [type(v) for v in value] == [type(v) for v in default], f.name
            checked += 1
        assert checked == 27

    def test_readme_table_matches_schema(self):
        # The README's config reference lists every optional key with its default.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            keys = re.findall(r"`([a-z_]+)`", cells[0])
            defaults = re.split(r" / |, (?![^\[]*\])", cells[1].replace("`", ""))
            if len(defaults) != len(keys):
                defaults = [cells[1].replace("`", "")] * len(keys)
            documented.update(zip(keys, defaults))
        assert set(documented) | {"data", "agent"} == set(CONFIG_KEYS)
        derived = {"symbol": "CSV stem or SYNTH", "window": "10 (qtable: 3)", "annualization": "sqrt(252)"}
        for f in fields(ExperimentConfig):
            if f.name in documented:
                text = derived.get(f.name) or json.dumps(f.default, default=date.isoformat).strip('"')
                assert documented[f.name] == text, f.name

    def test_echo_round_trip(self):
        cfg = sinusoid_config()
        echoed = config_from_dict(config_to_dict(cfg))
        assert echoed == cfg

    @settings(max_examples=200, deadline=None)
    @given(valid_raw_configs())
    def test_echo_round_trips_through_json(self, raw):
        cfg = config_from_dict(raw)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_initial_shares_and_day_count(self):
        cfg = sinusoid_config(initial_shares=10, holding_day_count="trading")
        assert cfg.initial_shares == 10
        assert cfg.holding_day_count == "trading"
        with pytest.raises(ConfigError, match="holding_day_count"):
            sinusoid_config(holding_day_count="weeks")
        with pytest.raises(ConfigError, match="initial_shares"):
            sinusoid_config(initial_shares=-2)


class TestSplit:
    def test_partition_by_date(self):
        cfg = sinusoid_config()
        bars = load_bars(cfg)
        train, test = split_train_test(bars, cfg)
        assert len(train) == 80 and len(test) == 40
        assert set(train.dates()).isdisjoint(test.dates())
        assert max(train.dates()) < min(test.dates())

    def test_empty_window_rejected(self):
        cfg = sinusoid_config()
        bars = make_series([100.0, 101.0, 102.0], start=date(1999, 1, 1))
        with pytest.raises(ValueError, match="train window"):
            split_train_test(bars, cfg)


class TestPreparedWindows:
    def test_train_window_starts_after_warmup(self):
        cfg = sinusoid_config(agent="dqn")
        bars = load_bars(cfg)
        prepared = prepare_data(cfg, bars)
        # first tradable train day is bar index `window` (10 returns needed)
        train_dates = prepared.bars.slice_dates(cfg.train_start, cfg.train_end).dates()
        assert prepared.train_window.dates[0] == train_dates[cfg.window]
        assert len(prepared.train_window) == 80 - cfg.window
        assert prepared.train_window.obs_dim == cfg.window

    def test_test_window_covers_all_test_days(self):
        cfg = sinusoid_config(agent="dqn")
        prepared = prepare_data(cfg, load_bars(cfg))
        test_bars = prepared.bars.slice_dates(cfg.test_start, cfg.test_end)
        assert prepared.test_window.dates == test_bars.dates()
        assert len(prepared.test_window) == 40

    def test_indicator_columns_extend_observations(self):
        cfg = sinusoid_config(agent="dqn", use_indicators=True, sma_period=12, rsi_period=12)
        prepared = prepare_data(cfg, load_bars(cfg))
        assert prepared.train_window.obs_dim == cfg.window + 2
        test_bars = prepared.bars.slice_dates(cfg.test_start, cfg.test_end)
        assert prepared.test_window.dates == test_bars.dates()
        # RSI column is scaled into [0, 1]
        rsi_column = prepared.train_window.observations[:, -1]
        assert np.all((rsi_column >= 0.0) & (rsi_column <= 1.0))

    def test_context_must_precede_window(self):
        cfg = sinusoid_config(agent="dqn")
        bars = load_bars(cfg)
        train_bars, normalizer, _ = prepare_train(cfg, bars)
        test_bars = bars.slice_dates(cfg.test_start, cfg.test_end)
        with pytest.raises(ValueError, match="context must end strictly before the target window"):
            # ends on the window's first day
            build_window(test_bars, normalizer, cfg,
                         context=bars.slice_dates(train_bars.dates()[-3], test_bars.dates()[0]))
        with pytest.raises(ValueError, match="context must end strictly before the target window"):
            build_window(test_bars, normalizer, cfg, context=test_bars.tail(5))
        # context days warm the features up and are never tradable
        window = build_window(test_bars, normalizer, cfg, context=train_bars.tail(cfg.window))
        assert window.dates == test_bars.dates()

    def test_normalizer_fitted_on_train_only(self):
        cfg = sinusoid_config(agent="dqn")
        bars = load_bars(cfg)
        _, normalizer, _ = prepare_train(cfg, bars)
        train_bars = bars.slice_dates(cfg.train_start, cfg.train_end)
        from quantrl.market_data import daily_returns

        rets = daily_returns(train_bars)
        assert normalizer.min_x == rets.values.min()
        assert normalizer.max_x == rets.values.max()


class TestRunExperiment:
    def test_buy_and_hold_closed_form(self):
        cfg = sinusoid_config(agent="buy_and_hold", initial_cash=100_000.0)
        report = run_experiment(cfg)
        result = report.strategies["buy_and_hold"]
        prepared = prepare_data(cfg, load_bars(cfg))
        closes = prepared.test_window.prices
        shares = math.floor(100_000.0 / closes[0])
        remainder = 100_000.0 - shares * closes[0]
        expected_roi = (remainder + shares * closes[-1]) / 100_000.0 - 1.0
        assert result.test_metrics.roi == expected_roi

    def test_benchmark_always_present(self):
        cfg = sinusoid_config(agent="sma_crossover", fast_period=3, slow_period=9)
        report = run_experiment(cfg)
        assert set(report.strategies) == {"sma_crossover", "buy_and_hold"}

    def test_learning_agent_history_lengths(self):
        cfg = sinusoid_config(agent="qtable", episodes=4, alpha=0.1)
        report = run_experiment(cfg)
        assert len(report.history) == 4
        assert set(report.strategies) == {"qtable", "buy_and_hold"}

    def test_dqn_with_indicators_end_to_end(self):
        cfg = sinusoid_config(
            agent="dqn", episodes=2, use_indicators=True, sma_period=12, rsi_period=12
        )
        report = run_experiment(cfg)
        assert report.artifact.layer_sizes[0] == cfg.window + 2
        assert set(report.strategies) == {"dqn", "buy_and_hold"}

    def test_stage_tagging_on_bad_data(self):
        cfg = config_from_dict(
            {
                "data": {"csv": "does-not-exist.csv"},
                "agent": "buy_and_hold",
            }
        )
        with pytest.raises(ExperimentError, match=r"\[ingest\]"):
            run_experiment(cfg)

    def test_stage_tags_stop_iteration(self):
        # contextlib re-raised the StopIteration a RuntimeError was raised from;
        # without arguments its text is empty, so the tag names its class
        with pytest.raises(ExperimentError, match=r"^\[report\] StopIteration$") as caught:
            with stage("report"):
                next(iter(()))
        assert isinstance(caught.value.__cause__, StopIteration)

    def test_nested_stage_keeps_the_inner_tag(self):
        with pytest.raises(ExperimentError) as caught:
            with stage("train"):
                with stage("report"):
                    raise ValueError("disk full")
        assert str(caught.value) == "[report] disk full" and caught.value.stage == "report"

    @settings(max_examples=400, deadline=None)
    @given(
        agent=st.sampled_from(["qtable", "dqn"]),
        train_days=st.integers(30, 90),
        test_days=st.integers(2, 30),
        replacement=st.fixed_dictionaries({
            "seed": st.integers(0, 2**32 - 1),
            "volatility": _floats(0.0, 1.0),
            "drift": _floats(-0.5, 0.5),
        }),
    )
    @example(agent="dqn", train_days=80, test_days=40,
             replacement={"seed": 4, "volatility": 0.25, "drift": 0.05})
    def test_no_test_leakage(self, agent, train_days, test_days, replacement):
        # Bars after train_end never reach training, and bars after test_end
        # never reach the report: replacing them by another series' bars on
        # the same dates changes no byte.
        bars = generate_synthetic("gbm", length=120, seed=3, volatility=0.25, drift=0.05)
        other = generate_synthetic("gbm", length=len(bars), **replacement)
        dates = bars.dates()
        cfg = config_from_dict({
            "data": {"csv": "unread.csv"},
            "agent": agent,
            "train_start": dates[0].isoformat(),
            "train_end": dates[train_days - 1].isoformat(),
            "test_start": dates[train_days].isoformat(),
            "test_end": dates[min(train_days + test_days, len(bars)) - 1].isoformat(),
            "episodes": 3,
            "symbol": "GBM",
        })

        def replaced_after(day):
            cut = dates.index(day) + 1
            return BarSeries(bars.symbol, [*bars.bars[:cut], *other.bars[cut:]])

        report = run_prepared(cfg, prepare_data(cfg, bars))
        artifact, history = train_agent(
            cfg, prepare_data(cfg, replaced_after(cfg.train_end)).train_window
        )
        assert emitted(emit_training, cfg, history, artifact) == emitted(
            emit_training, cfg, report.history, report.artifact
        )
        unseen_tail = run_prepared(cfg, prepare_data(cfg, replaced_after(cfg.test_end)))
        assert emitted(emit_report, unseen_tail) == emitted(emit_report, report)

    @pytest.mark.parametrize("agent", ["qtable", "dqn", "sma_crossover"])
    def test_one_prepared_value_serves_many_runs(self, agent):
        cfg = sinusoid_config(agent=agent, episodes=3, fast_period=3, slow_period=9)
        prepared = prepare_data(cfg, load_bars(cfg))
        windows = (prepared.train_window, prepared.test_window)
        arrays = [array for w in windows for array in (w.prices, w.observations)]
        before = [array.tobytes() for array in arrays]
        for seed in (1, 2, 1):
            seeded = replace(cfg, seed=seed)
            assert emitted(emit_report, run_prepared(seeded, prepared)) == emitted(
                emit_report, run_experiment(seeded)
            )
        assert [array.tobytes() for array in arrays] == before

    def test_prepared_data_refuses_a_config_it_was_not_built_with(self):
        # the report would label windows by the config, not by the data it ran on
        cfg = sinusoid_config(agent="qtable", episodes=3)
        prepared = prepare_data(cfg, load_bars(cfg))
        moved = replace(cfg, train_start=date(2020, 2, 3), test_end=date(2020, 6, 1))
        with pytest.raises(ValueError, match=(
            f"^prepared data was built with train_start {cfg.train_start}, not 2020-02-03$"
        )):
            run_prepared(moved, prepared)
        with pytest.raises(ValueError, match=f"built with test_end {cfg.test_end}, not 2020-06-01$"):
            run_prepared(replace(cfg, test_end=date(2020, 6, 1)), prepared)
        with pytest.raises(ValueError, match=f"built with window {cfg.window}, not {cfg.window + 1}$"):
            run_prepared(replace(cfg, window=cfg.window + 1), prepared)
        assert [key for key, _ in prepared.built_with] == [*TRAINING_KEYS, "test_start", "test_end"]


class TestTrainAgent:
    @pytest.mark.parametrize("agent", ["qtable", "dqn"])
    def test_config_trains_as_its_train_config(self, agent):
        # train_agent hands the whole config to the training loop, which reads
        # only TrainConfig's fields
        cfg = sinusoid_config(
            agent=agent, episodes=4, alpha=0.01, gamma=0.9, batch_size=8, buffer_capacity=50,
            target_sync_period=7, eps_start=0.9, eps_end=0.1, eps_decay_fraction=0.5, seed=11,
        )
        window = prepare_data(cfg, load_bars(cfg)).train_window
        artifact, history = train_agent(cfg, window)
        train_cfg = TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})
        if agent == "qtable":
            discretizer = Discretizer.uniform(window.obs_dim, cfg.state_cuts)
            reference, reference_history = train_qlearning(make_env(cfg, window), train_cfg, discretizer)
            assert {k: list(v) for k, v in artifact.items()} == {
                k: list(v) for k, v in reference.items()
            }
        else:
            net = init_mlp((window.obs_dim, *cfg.hidden_sizes, 3), seed=cfg.seed)
            reference, reference_history = train_dqn(make_env(cfg, window), train_cfg, net)
            for got, want in zip((*artifact.weights, *artifact.biases), (*reference.weights, *reference.biases)):
                assert np.array_equal(got, want)
        assert history == reference_history and len(history) == 4


class TestRunPolicy:
    @pytest.mark.parametrize("cost_rate, fractions", [(0.0, (1.0, 1.0)), (0.002, (0.5, 0.3))])
    def test_matches_env_step_loop(self, cost_rate, fractions):
        # reference: one greedy episode through TradingEnv.step, fills from share deltas
        cfg = sinusoid_config(
            agent="qtable", cost_rate=cost_rate, initial_shares=3,
            buy_fraction=fractions[0], sell_fraction=fractions[1],
        )
        window = prepare_data(cfg, load_bars(cfg)).test_window
        env = make_env(cfg, window)

        def policy(obs):
            return Action(int(abs(obs.sum()) * 1e4) % 3)

        state, obs = env.reset()
        values, fills = [], []
        for t in range(env.steps_per_episode):
            before = state.portfolio
            state, obs, _, _ = env.step(state, policy(obs))
            delta = state.portfolio.shares - before.shares
            price = float(window.prices[t])
            if delta:
                side = "buy" if delta > 0 else "sell"
                fills.append(Fill(window.dates[t], side, abs(delta), price, abs(delta) * price * cost_rate))
            values.append(state.portfolio.cash + state.portfolio.shares * price)
        values.append(state.wealth_prev)

        curve, got = run_policy(cfg, window, lambda X: [policy(o) for o in X])
        assert curve.values.tolist() == values
        assert got == fills
        assert {f.side for f in fills} == {"buy", "sell"}

    def test_opens_without_reset(self):
        # the episode opens from the config's cash and shares, with no environment to reset
        cfg = sinusoid_config(agent="qtable", initial_shares=3)
        window = prepare_data(cfg, load_bars(cfg)).test_window
        curve, fills = run_policy(cfg, window, lambda X: [Action.HOLD] * len(X))
        assert fills == [] and curve.values.tolist() == [
            cfg.initial_cash + 3 * price for price in window.prices.tolist()
        ]


DQN_CONFIG = config_from_dict({"data": {"csv": "x.csv"}, "agent": "dqn"})


class TestGreedyPolicy:
    @settings(max_examples=40, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        width=st.integers(1, 16),
        rows=st.sampled_from([1, 2, 1023, 1024, 1025, 2049]),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dqn_rows_equal_per_row_forward(self, hidden, width, rows, scale, seed):
        # the row kernel equals forward on each row bit for bit on the machine
        # the test runs on, and the actions are select_action's at epsilon 0
        rng = np.random.default_rng(seed)
        net = init_mlp((width, *hidden, 3), seed=rng)
        for b in net.biases:
            b[:] = rng.uniform(0.1, 1.0, b.shape) * rng.choice([-1.0, 1.0], b.shape) * scale
        obs = rng.normal(size=(rows, width)) * scale
        per_row = np.stack([forward(net, x) for x in obs])
        got = _row_forward(net, obs)
        assert got.dtype == per_row.dtype and got.shape == per_row.shape
        assert got.tobytes() == per_row.tobytes()
        policy = greedy_policy(DQN_CONFIG, net, width)
        assert policy(obs) == [select_action(q, 0.0) for q in per_row]

    @pytest.mark.parametrize("bias, action", [([1.0, 1.0, 0.0], 0), ([0.0, 2.0, 2.0], 1)])
    def test_dqn_ties_break_to_lowest_action(self, bias, action):
        net = init_mlp((4, 5, 3), seed=0)
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = bias
        policy = greedy_policy(DQN_CONFIG, net, 4)
        assert policy(np.random.default_rng(0).normal(size=(6, 4))) == [action] * 6

    def test_row_kernel_checks_width(self):
        net = init_mlp((4, 5, 3), seed=0)
        with pytest.raises(ValueError, match="input width 5 does not match first layer size 4"):
            _row_forward(net, np.ones((3, 5)))

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 4), rows=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_qtable_actions_equal_select_action(self, width, rows, seed):
        # observations on and between the cuts, repeated rows and tied values included
        rng = np.random.default_rng(seed)
        cuts = (-0.5, 0.0, 0.5)
        obs = rng.choice([-1.0, -0.5, -0.2, 0.0, 0.3, 0.5, 0.9], size=(rows, width))
        table = QTable()
        reference = Discretizer.uniform(width, cuts)
        for row in obs[: rows // 2]:
            key = reference(row)
            for action in range(3):
                value = float(rng.choice([-1.0, 0.0, 1.0]))
                q_update(table, key, action, value, key, True, alpha=1.0, gamma=0.0)
        cfg = config_from_dict({"data": {"csv": "x.csv"}, "agent": "qtable", "state_cuts": cuts})
        policy = greedy_policy(cfg, table, width)
        assert policy(obs) == [select_action(table.action_values(reference(o)), 0.0) for o in obs]


class TestEmitReport:
    def run_small(self, tmp_path, agent="qtable", **extra):
        cfg = sinusoid_config(agent=agent, episodes=3, alpha=0.1, **extra)
        report = run_experiment(cfg)
        out = tmp_path / "report"
        paths = emit_report(report, out)
        return report, out, paths

    def test_all_file_kinds_present(self, tmp_path):
        _, out, _ = self.run_small(tmp_path)
        names = {p.name for p in out.iterdir()}
        assert {
            "metrics.json",
            "config_echo.json",
            "history.csv",
            "equity_qtable.csv",
            "trades_qtable.csv",
            "equity_buy_and_hold.csv",
            "trades_buy_and_hold.csv",
            "qtable.csv",
        } <= names

    def test_metrics_json_round_trip_exact(self, tmp_path):
        report, out, _ = self.run_small(tmp_path)
        doc = read_json(out / "metrics.json")
        for name, result in report.strategies.items():
            for window, metrics in (("train", result.train_metrics), ("test", result.test_metrics)):
                stored = doc["strategies"][name][window]
                for field, encoded in metrics.to_dict().items():
                    assert stored[field] == encoded
                    assert decode_metric(stored[field]) == decode_metric(encoded)

    def test_undefined_markers_never_zero(self, tmp_path):
        # a hold-forever agent makes no trades: trade metrics are undefined
        cfg = sinusoid_config(agent="qtable", episodes=1, alpha=0.1, eps_start=0.0, eps_end=0.0)
        report = run_experiment(cfg)
        out = tmp_path / "r"
        emit_report(report, out)
        doc = read_json(out / "metrics.json")
        test_metrics = doc["strategies"]["qtable"]["test"]
        assert test_metrics["profit_factor"] == "undefined"
        assert test_metrics["winning_pct"] == "undefined"
        assert test_metrics["avg_holding_days"] == "undefined"

    def test_history_csv_format(self, tmp_path):
        _, out, _ = self.run_small(tmp_path)
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "episode,epsilon,mean_loss,roi"
        assert len(lines) == 4  # header + 3 episodes


class TestCompare:
    def test_identical_strategies_identical_rows(self):
        cfg = sinusoid_config(agent="buy_and_hold")
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        table = compare_strategies([r1, r2])
        assert len(table.rows) == 2
        a, b = table.rows
        assert a["strategy"] == "buy_and_hold" and b["strategy"] == "buy_and_hold#2"
        for col in ("roi", "sharpe", "max_drawdown", "profit_factor"):
            assert a[col] == b[col]

    def test_mismatched_windows_rejected(self):
        cfg_a = sinusoid_config(agent="buy_and_hold", length=120, train_days=80)
        cfg_b = sinusoid_config(agent="buy_and_hold", length=130, train_days=80)
        with pytest.raises(ValueError, match="test windows differ"):
            compare_strategies([run_experiment(cfg_a), run_experiment(cfg_b)])

    def test_column_order_fixed(self):
        cfg = sinusoid_config(agent="buy_and_hold")
        table = compare_strategies([run_experiment(cfg)])
        csv_header = table.to_csv_text().splitlines()[0]
        assert csv_header == (
            "strategy,roi,cumulative_return,sharpe,max_drawdown,adr,adtv,"
            "profit_factor,winning_pct,ahp"
        )
        text_header = table.to_text().splitlines()[0].split()
        assert text_header == list(csv_header.split(","))

    def test_winner_row_in_csv(self):
        cfg = sinusoid_config(agent="sma_crossover", fast_period=3, slow_period=9)
        table = compare_strategies([run_experiment(cfg)])
        last = table.to_csv_text().splitlines()[-1]
        assert last.startswith("winner,")

    # a hold-forever agent's trade metrics are undefined; buy-and-hold on a
    # rising test window wins every trade, an "inf" profit factor
    @pytest.mark.parametrize("marker, cfg", [
        ("undefined", dict(agent="qtable", episodes=1, alpha=0.1, eps_start=0.0, eps_end=0.0)),
        ("inf", dict(agent="buy_and_hold", length=125)),
    ])
    def test_emitted_report_compares_as_the_one_in_memory(self, tmp_path, marker, cfg):
        report = run_experiment(sinusoid_config(**cfg))
        emit_report(report, tmp_path)
        assert marker in report.strategies[report.config.agent].test_metrics.to_dict().values()
        in_memory = compare_strategies([report])
        read_back = compare_test_metrics([("", *load_report_metrics(tmp_path))])
        assert read_back.rows == in_memory.rows
        assert read_back.winners == in_memory.winners
        assert read_back.to_csv_text() == in_memory.to_csv_text()


class TestCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def write_config(self, tmp_path, agent="buy_and_hold", length=120, train_days=80):
        dates = synthetic_dates(length=length)
        config = {
            "data": {
                "synthetic": {
                    "kind": "sinusoid",
                    "length": length,
                    "base": 100.0,
                    "amplitude": 10.0,
                    "period_days": 10.0,
                }
            },
            "agent": agent,
            "train_start": dates[0].isoformat(),
            "train_end": dates[train_days - 1].isoformat(),
            "test_start": dates[train_days].isoformat(),
            "test_end": dates[-1].isoformat(),
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        return path

    def test_synth_then_ingest(self, tmp_path, capsys):
        out_csv = tmp_path / "fixture.csv"
        code, out, _ = self.run_cli(
            capsys, "synth", "--kind", "sinusoid", "--length", "50", "--out", str(out_csv)
        )
        assert code == 0 and "wrote 50 bars" in out
        code, out, _ = self.run_cli(capsys, "ingest", "--csv", str(out_csv))
        assert code == 0 and out.startswith("ok: 50 bars")

    def test_synth_flags_are_the_synthetic_keys(self):
        synth = next(
            action.choices["synth"] for action in _build_parser()._actions
            if isinstance(action.choices, dict)
        )
        flags = {opt for action in synth._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == {
            *(f"--{f.name}" for f in fields(SyntheticSpec)), "--out"
        }

    def test_ingest_missing_file_is_stage_tagged(self, tmp_path, capsys):
        code, _, err = self.run_cli(capsys, "ingest", "--csv", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "[ingest]" in err

    def test_run_and_compare(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code, _, _ = self.run_cli(
            capsys, "run", "--config", str(config), "--out", str(out_a)
        )
        assert code == 0
        code, _, _ = self.run_cli(
            capsys, "run", "--config", str(config), "--out", str(out_b)
        )
        assert code == 0
        cmp_csv = tmp_path / "cmp.csv"
        code, out, _ = self.run_cli(
            capsys, "compare", str(out_a), str(out_b), "--out", str(cmp_csv)
        )
        assert code == 0
        assert cmp_csv.exists()
        assert "a:buy_and_hold" in out and "b:buy_and_hold" in out

    def test_override_flags(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="qtable")
        out = tmp_path / "r"
        code, _, _ = self.run_cli(
            capsys,
            "run", "--config", str(config), "--out", str(out),
            "--episodes=2", "--alpha=0.1",
        )
        assert code == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["episodes"] == 2 and echo["alpha"] == 0.1
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 3  # header + 2 episodes

    def test_seed_flag_overrides(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "r"
        code, _, _ = self.run_cli(
            capsys, "run", "--config", str(config), "--out", str(out), "--seed", "7"
        )
        assert code == 0
        assert json.loads((out / "config_echo.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("agent, artifact", [("qtable", "qtable.csv"),
                                                 ("dqn", "checkpoint_dqn.txt")])
    def test_train_needs_no_test_window_bars(self, tmp_path, capsys, agent, artifact):
        # train reads the bars through train_end only (prepare_train), so a CSV
        # cut there trains the same bytes; run needs the test window as well
        full, cut = tmp_path / "sine.csv", tmp_path / "sine_train.csv"
        self.run_cli(capsys, "synth", "--kind", "sinusoid", "--length", "260", "--out", str(full))
        header, *rows = full.read_text().splitlines(keepends=True)
        cut.write_text("".join([header, *(row for row in rows if row[:10] <= "2020-10-09")]))
        config = tmp_path / "sine.json"
        config.write_text(json.dumps({
            "data": {"csv": str(full)},
            "agent": agent,
            "train_start": "2020-01-06", "train_end": "2020-10-09",
            "test_start": "2020-10-12", "test_end": "2021-01-01",
            "episodes": 3,
        }))
        cut_data = f"--data={json.dumps({'csv': str(cut)})}"
        for out, extra in (("full", []), ("cut", [cut_data])):
            code, _, _ = self.run_cli(
                capsys, "train", "--config", str(config), "--out", str(tmp_path / out), *extra
            )
            assert code == 0
        for name in ("history.csv", artifact):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        code, _, err = self.run_cli(
            capsys, "run", "--config", str(config), "--out", str(tmp_path / "run"), cut_data
        )
        assert code == 1
        assert err == "error: [ingest] test window 2020-10-12..2021-01-01 holds 0 bars, need >= 2\n"

    def test_bad_config_is_tagged(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"data": {"csv": "x.csv"}, "agent": "ppo"}))
        code, _, err = self.run_cli(capsys, "run", "--config", str(path))
        assert code == 1 and "[config]" in err

    @pytest.mark.parametrize("document", [[], ["agent"], 3])
    @pytest.mark.parametrize("flags", [("--seed", "3"), ("--episodes=3",), ()])
    def test_non_object_config_is_tagged(self, tmp_path, capsys, document, flags):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(document))
        code, _, err = self.run_cli(capsys, "run", "--config", str(path), *flags)
        assert code == 1
        assert err == f"error: [config] {path}: expected a JSON object\n"

    def test_malformed_override_is_tagged(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code, _, err = self.run_cli(
            capsys, "run", "--config", str(config), "--seed.bogus=1"
        )
        assert code == 1 and "[config]" in err
        code, _, err = self.run_cli(
            capsys, "run", "--config", str(config), "--episodes", "5"
        )
        assert code == 1 and "overrides look like" in err

    def test_train_then_evaluate(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="qtable")
        train_out = tmp_path / "trained"
        code, _, _ = self.run_cli(
            capsys,
            "train", "--config", str(config), "--out", str(train_out),
            "--episodes=2", "--alpha=0.1",
        )
        assert code == 0
        assert (train_out / "qtable.csv").exists()
        eval_out = tmp_path / "evaluated"
        code, out, _ = self.run_cli(
            capsys,
            "evaluate", "--config", str(config), "--out", str(eval_out),
            "--checkpoint", str(train_out / "qtable.csv"),
            "--episodes=2", "--alpha=0.1",
        )
        assert code == 0
        assert (eval_out / "metrics.json").exists()

    def test_dqn_checkpoint_round_trip_via_cli(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="dqn")
        train_out = tmp_path / "trained"
        code, _, _ = self.run_cli(
            capsys, "train", "--config", str(config), "--out", str(train_out), "--episodes=2"
        )
        assert code == 0
        ckpt = train_out / "checkpoint_dqn.txt"
        assert ckpt.exists()
        eval_out = tmp_path / "evaluated"
        code, _, _ = self.run_cli(
            capsys,
            "evaluate", "--config", str(config), "--out", str(eval_out),
            "--checkpoint", str(ckpt), "--episodes=2",
        )
        assert code == 0
        # the re-emitted checkpoint is byte-identical to the loaded one
        assert (eval_out / "checkpoint_dqn.txt").read_bytes() == ckpt.read_bytes()

    @pytest.mark.parametrize("subcommand", ["run", "train"])
    def test_diverged_training_fails_without_output(self, tmp_path, capsys, subcommand):
        # absolute rewards of ~1e3 at alpha 0.01 overflow the network in episode 0
        synthetic = {"kind": "gbm", "length": 260, "seed": 1, "drift": 0.05, "volatility": 0.3}
        dates = generate_synthetic(**synthetic).dates()
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "data": {"synthetic": synthetic},
            "agent": "dqn",
            "episodes": 5,
            "reward_mode": "absolute",
            "alpha": 0.01,
            "seed": 1,
            "train_start": dates[0].isoformat(),
            "train_end": dates[199].isoformat(),
            "test_start": dates[200].isoformat(),
            "test_end": dates[-1].isoformat(),
        }))
        out = tmp_path / "report"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code, _, err = self.run_cli(
                capsys, subcommand, "--config", str(config), "--out", str(out)
            )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: [train]")
        assert "diverged" in err and "episode 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("agent", ["dqn", "qtable"])
    def test_initial_shares_are_an_opening_lot(self, tmp_path, capsys, agent):
        # the learner sells shares it started with; FIFO matches them to the first close
        synthetic = {"kind": "gbm", "length": 160, "seed": 3, "drift": 0.05, "volatility": 0.25}
        dates = generate_synthetic(**synthetic).dates()
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "data": {"synthetic": synthetic},
            "agent": agent,
            "episodes": 5,
            "initial_shares": 5,
            "sell_fraction": 0.3,
            "alpha": 0.01 if agent == "dqn" else 0.1,
            "seed": 7,
            "train_start": dates[0].isoformat(),
            "train_end": dates[99].isoformat(),
            "test_start": dates[100].isoformat(),
            "test_end": dates[-1].isoformat(),
        }))
        out = tmp_path / "report"
        code, _, err = self.run_cli(capsys, "run", "--config", str(config), "--out", str(out))
        assert code == 0, err
        rows = [line.split(",") for line in (out / f"trades_{agent}.csv").read_text().splitlines()[1:]]
        opening = [r for r in rows if r[0] == dates[100].isoformat() and r[7] == "0"]
        assert opening and rows[0][3] == repr(float(generate_synthetic(**synthetic).closes()[100]))
        assert sum(int(r[2]) for r in opening) <= 5

    @pytest.mark.parametrize("agent", ["qtable", "sma_crossover"])
    def test_every_strategy_starts_from_the_opening_position(self, tmp_path, capsys, agent):
        synthetic = {"kind": "gbm", "length": 160, "seed": 3, "drift": 0.05, "volatility": 0.25}
        bars = generate_synthetic(**synthetic)
        dates, closes = bars.dates(), bars.closes()
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "data": {"synthetic": synthetic},
            "agent": agent,
            "episodes": 2,
            "initial_cash": 1000.0,
            "initial_shares": 5,
            "fast_period": 3,
            "slow_period": 8,
            "train_start": dates[0].isoformat(),
            "train_end": dates[99].isoformat(),
            "test_start": dates[100].isoformat(),
            "test_end": dates[-1].isoformat(),
        }))
        out = tmp_path / "report"
        code, _, err = self.run_cli(capsys, "run", "--config", str(config), "--out", str(out))
        assert code == 0, err
        # at zero cost, trading at the first close keeps the opening wealth
        for strategy in (agent, "buy_and_hold"):
            first = (out / f"equity_{strategy}.csv").read_text().splitlines()[1].split(",")
            assert float(first[1]) == pytest.approx(1000.0 + 5 * closes[100], rel=1e-12)
        # buy-and-hold keeps the 5 opening shares as their own lot, marked to market
        rows = [line.split(",") for line in (out / "trades_buy_and_hold.csv").read_text().splitlines()[1:]]
        assert rows[0] == [
            dates[100].isoformat(), dates[-1].isoformat(), "5", repr(float(closes[100])),
            repr(float(closes[-1])), repr(5 * (float(closes[-1]) - float(closes[100]))),
            repr(float((dates[-1] - dates[100]).days)), "1",
        ]

    def test_train_rejects_baseline(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="buy_and_hold")
        code, _, err = self.run_cli(capsys, "train", "--config", str(config))
        assert code == 1 and "[train]" in err

    def test_evaluate_requires_checkpoint(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="qtable")
        code, _, err = self.run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1 and "[evaluate]" in err

    def test_out_root_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUANTRL_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        config = self.write_config(tmp_path)
        code, out, _ = self.run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        expected = tmp_path / "root" / "buy_and_hold-SYNTH-seed42"
        assert (expected / "metrics.json").exists()
        assert str(expected) in out

    def test_out_dir_from_config_without_out_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUANTRL_OUT_ROOT", str(tmp_path / "root"))
        config = self.write_config(tmp_path)
        raw = json.loads(config.read_text())
        config.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "from-config")}))
        code, out, _ = self.run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        assert (tmp_path / "from-config" / "metrics.json").exists()
        assert not (tmp_path / "root").exists()
        assert out.endswith(f"report written to {tmp_path / 'from-config'}\n")

    def test_baseline_evaluate_without_checkpoint_writes_what_run_writes(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        for command in ("run", "evaluate"):
            code, _, _ = self.run_cli(capsys, command, "--config", str(config),
                                      "--out", str(tmp_path / command))
            assert code == 0
        written = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "evaluate").iterdir())
        for name in written:
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "evaluate" / name).read_bytes()

    def test_blank_lines_in_price_csv_are_skipped(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        raw = json.loads(config.read_text())
        for name in ("plain", "blank"):
            (tmp_path / name).mkdir()
            write_csv(generate_synthetic(**raw["data"]["synthetic"]), tmp_path / name / "p.csv")
        blank = tmp_path / "blank" / "p.csv"
        lines = blank.read_text().splitlines(keepends=True)
        blank.write_text("".join([lines[0], "\n", *lines[1:60], "\n\n", *lines[60:], "\n"]))
        for name in ("plain", "blank"):
            config.write_text(json.dumps({**raw, "data": {"csv": str(tmp_path / name / "p.csv")}}))
            code, _, _ = self.run_cli(capsys, "run", "--config", str(config),
                                      "--out", str(tmp_path / name / "report"))
            assert code == 0
        for name in ("metrics.json", "equity_buy_and_hold.csv", "trades_buy_and_hold.csv"):
            assert ((tmp_path / "plain" / "report" / name).read_bytes()
                    == (tmp_path / "blank" / "report" / name).read_bytes())

    def test_blank_lines_in_qtable_are_skipped(self, tmp_path, capsys):
        config = self.write_config(tmp_path, agent="qtable")
        table = tmp_path / "trained" / "qtable.csv"
        assert self.run_cli(capsys, "train", "--config", str(config), "--out", str(table.parent))[0] == 0
        header, first, *rest = table.read_text().splitlines(keepends=True)
        written = {}
        for name, text in (("plain", None), ("blank", "".join([header, "\n", first, "\n", *rest, "\n"]))):
            if text is not None:
                table.write_text(text)
            code, _, _ = self.run_cli(capsys, "evaluate", "--config", str(config),
                                      "--checkpoint", str(table), "--out", str(tmp_path / name))
            assert code == 0
            written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert written["plain"] == written["blank"]

    def test_trading_day_holding_period(self, tmp_path, capsys):
        # crossover trades span weekends: calendar days > trading days
        dates = synthetic_dates(length=120)
        config = {
            "data": {
                "synthetic": {
                    "kind": "sinusoid", "length": 120, "base": 100.0,
                    "amplitude": 10.0, "period_days": 20.0,
                }
            },
            "agent": "sma_crossover",
            "fast_period": 3,
            "slow_period": 9,
            "train_start": dates[0].isoformat(),
            "train_end": dates[79].isoformat(),
            "test_start": dates[80].isoformat(),
            "test_end": dates[-1].isoformat(),
        }
        ahp = {}
        for mode in ("calendar", "trading"):
            cfg = config_from_dict({**config, "holding_day_count": mode})
            report = run_experiment(cfg)
            ahp[mode] = report.strategies["sma_crossover"].test_metrics.avg_holding_days
        assert ahp["calendar"] > ahp["trading"] > 0.0
