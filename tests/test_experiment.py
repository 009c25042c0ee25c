import json
import math
import re
import warnings
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from quantrl.cli import main
from quantrl.experiment import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    compare_strategies,
    config_from_dict,
    config_to_dict,
    emit_report,
    load_bars,
    load_metrics_document,
    make_env,
    parse_config,
    prepare_data,
    prepare_train,
    run_experiment,
    run_policy,
    split_train_test,
    train_agent,
)
from quantrl.market_data import generate_synthetic, write_csv
from quantrl.metrics import Fill, decode_metric
from quantrl.neural_net import init_mlp
from quantrl.rl_agents import Discretizer, TrainConfig, train_dqn, train_qlearning
from quantrl.trading_env import Action

from conftest import make_series


def synthetic_dates(kind="sinusoid", length=260, **params):
    bars = generate_synthetic(kind, length=length, **params)
    return bars.dates()


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


class TestConfig:
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
            {"eps_decay_fraction": 0}, {"eps_decay_fraction": 1.5},
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
        ]
        for bad, message in cases:
            with pytest.raises(ConfigError) as info:
                config_from_dict({**base, **bad})
            assert str(info.value) == message

    def test_synthetic_values_coerced(self):
        spec = {"kind": "gbm", "length": "260", "seed": "3", "start": "2021-02-01",
                "base": 100, "volatility": "0.2"}
        cfg = config_from_dict({"data": {"synthetic": spec}, "agent": "dqn"})
        synthetic = cfg.data_synthetic
        assert (synthetic.length, synthetic.seed, synthetic.start, synthetic.base, synthetic.volatility) == (
            260, 3, date(2021, 2, 1), 100.0, 0.2
        )
        # every value has its field's type, whatever JSON type it arrived as
        assert [type(getattr(synthetic, f.name)).__name__ for f in fields(synthetic)] == [
            f.type for f in fields(synthetic)
        ]
        assert len(load_bars(cfg)) == 260
        # the echoed length is the number of bars generated
        cfg = config_from_dict({"data": {"synthetic": {"kind": "gbm", "length": 260.9}}, "agent": "dqn"})
        assert config_to_dict(cfg)["data"]["synthetic"]["length"] == len(load_bars(cfg)) == 260

    def test_null_values(self):
        base = {"data": {"csv": "x.csv"}, "agent": "qtable"}
        cfg = config_from_dict(
            {**base, "symbol": None, "window": None, "annualization": None,
             "use_indicators": None, "out_dir": None}
        )
        assert (cfg.symbol, cfg.window, cfg.use_indicators, cfg.out_dir) == ("x", 3, False, None)
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
        assert prepared.train_window.dates[0] == prepared.train_bars.dates()[cfg.window]
        assert len(prepared.train_window) == 80 - cfg.window
        assert prepared.train_window.obs_dim == cfg.window

    def test_test_window_covers_all_test_days(self):
        cfg = sinusoid_config(agent="dqn")
        prepared = prepare_data(cfg, load_bars(cfg))
        assert prepared.test_window.dates == prepared.test_bars.dates()
        assert len(prepared.test_window) == 40

    def test_indicator_columns_extend_observations(self):
        cfg = sinusoid_config(agent="dqn", use_indicators=True, sma_period=12, rsi_period=12)
        prepared = prepare_data(cfg, load_bars(cfg))
        assert prepared.train_window.obs_dim == cfg.window + 2
        assert prepared.test_window.dates == prepared.test_bars.dates()
        # RSI column is scaled into [0, 1]
        rsi_column = prepared.train_window.observations[:, -1]
        assert np.all((rsi_column >= 0.0) & (rsi_column <= 1.0))

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

    def test_no_test_leakage(self, tmp_path):
        dates = synthetic_dates(kind="gbm", length=120, seed=3, volatility=0.25, drift=0.05)
        bars = generate_synthetic("gbm", length=120, seed=3, volatility=0.25, drift=0.05)
        full_csv = tmp_path / "full.csv"
        train_csv = tmp_path / "train_only.csv"
        write_csv(bars, full_csv)
        train_bars = bars.slice_dates(dates[0], dates[79])
        write_csv(train_bars, train_csv)
        base = {
            "agent": "dqn",
            "train_start": dates[0].isoformat(),
            "train_end": dates[79].isoformat(),
            "test_start": dates[80].isoformat(),
            "test_end": dates[-1].isoformat(),
            "episodes": 3,
            "symbol": "GBM",
        }
        nets = []
        for csv_path in (full_csv, train_csv):
            cfg = config_from_dict({**base, "data": {"csv": str(csv_path)}})
            loaded = load_bars(cfg)
            _, _, train_window = prepare_train(cfg, loaded)
            net, _ = train_agent(cfg, train_window)
            nets.append(net)
        assert all(
            np.array_equal(a, b) for a, b in zip(nets[0].weights, nets[1].weights)
        )
        assert all(np.array_equal(a, b) for a, b in zip(nets[0].biases, nets[1].biases))


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

        curve, got = run_policy(env, policy)
        assert curve.values.tolist() == values
        assert got == fills
        assert {f.side for f in fills} == {"buy", "sell"}


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
        doc = load_metrics_document(out / "metrics.json")
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
        doc = load_metrics_document(out / "metrics.json")
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
        assert err == "error: [config] config must be a JSON object\n"

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
