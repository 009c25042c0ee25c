"""Config-driven experiment orchestration.

One experiment trains the configured agent on the train window, evaluates
it greedily on the test window, always runs buy-and-hold on the identical
test window as the benchmark, and emits a comparable report. The tuple
(config, seed, input data) fully determines every output byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import Field, asdict, dataclass, fields
from datetime import date
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .market_data import (
    BarSeries,
    NormalizationMode,
    Normalizer,
    SYNTHETIC_KINDS,
    apply_normalizer,
    build_observations,
    daily_returns,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    rsi,
    sma,
)
from .metrics import (
    EquityCurve,
    Fill,
    MetricsReport,
    RoundTripTrade,
    compute_report,
    decode_metric,
    encode_metric,
    match_trades,
)
from .neural_net import Mlp, forward, init_mlp, save_checkpoint
from .rl_agents import (
    Discretizer,
    HistoryRow,
    QTable,
    TrainConfig,
    baseline_buy_and_hold,
    baseline_sma_crossover,
    select_action,
    simulate,
    train_dqn,
    train_qlearning,
    write_history,
)
from .trading_env import Action, CostModel, MarketWindow, Portfolio, TradingEnv

AGENT_KINDS = ("qtable", "dqn", "buy_and_hold", "sma_crossover")
LEARNING_AGENTS = ("qtable", "dqn")

# Metric name in the comparison table -> attribute on MetricsReport.
_COMPARE_SOURCE = {
    "roi": "roi",
    "cumulative_return": "cumulative_return",
    "sharpe": "sharpe",
    "max_drawdown": "max_drawdown",
    "adr": "avg_daily_return",
    "adtv": "adtv",
    "profit_factor": "profit_factor",
    "winning_pct": "winning_pct",
    "ahp": "avg_holding_days",
}
COMPARE_COLUMNS = ("strategy", *_COMPARE_SOURCE)
# Higher is better unless flipped; adtv and ahp are informational only.
_COMPARE_DIRECTION = {
    "roi": max,
    "cumulative_return": max,
    "sharpe": max,
    "max_drawdown": min,
    "adr": max,
    "profit_factor": max,
    "winning_pct": max,
}


class ConfigError(ValueError):
    """Experiment configuration is missing, malformed, or inconsistent."""


class ExperimentError(RuntimeError):
    """Pipeline failure tagged with the stage it occurred in."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    length: int
    seed: int = 0
    start: date = date(2020, 1, 6)
    base: float = 100.0
    amplitude: float = 10.0
    period_days: float = 10.0
    drift: float = 0.0
    volatility: float = 0.0
    volume: float = 1_000_000.0

    def to_dict(self) -> dict[str, Any]:
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(TrainConfig):
    """Resolved experiment settings, one field per config key.

    The RL hyperparameters and `seed` are TrainConfig's. The `data` key
    resolves to `data_csv` or `data_synthetic`. The other fields carry the
    config defaults; a `None` default is resolved at parse time (symbol from
    the data, window from the agent, annualization sqrt(252)), except `out_dir`.
    """

    data_csv: str | None
    data_synthetic: SyntheticSpec | None
    agent: str
    symbol: str | None = None
    train_start: date = date(2010, 1, 1)
    train_end: date = date(2019, 12, 31)
    test_start: date = date(2020, 1, 1)
    test_end: date = date(2020, 12, 31)
    window: int | None = None
    use_indicators: bool = False
    sma_period: int = 14
    rsi_period: int = 14
    normalization: NormalizationMode = "signed_range"
    return_field: str = "close"
    initial_cash: float = 100_000.0
    initial_shares: int = 0
    cost_rate: float = 0.0
    reward_mode: str = "percentage"
    buy_fraction: float = 1.0
    sell_fraction: float = 1.0
    hidden_sizes: tuple[int, ...] = (32, 32)
    state_cuts: tuple[float, ...] = (-0.001, 0.001)
    fast_period: int = 10
    slow_period: int = 30
    risk_free_rate: float = 0.0
    annualization: float | None = None
    holding_day_count: str = "calendar"
    out_dir: str | None = None

    def cost_model(self) -> CostModel:
        return CostModel(self.cost_rate)


# Config keys: `data` plus every ExperimentConfig field it does not resolve to.
_KEY_FIELDS = tuple(f for f in fields(ExperimentConfig) if not f.name.startswith("data_"))
CONFIG_KEYS = ("data", *(f.name for f in _KEY_FIELDS))
_SYNTHETIC_KEYS = {f.name for f in fields(SyntheticSpec)}
# Allowed values of the string-valued keys.
_CHOICES = {
    "normalization": ("unit_range", "signed_range"),
    "return_field": ("close", "adj_close"),
    "reward_mode": ("percentage", "absolute"),
    "holding_day_count": ("calendar", "trading"),
}


# How a raw JSON value becomes a field value, by field annotation; fields
# whose annotation is not listed keep the raw value.
_COERCE: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "float": float,
    "int | None": lambda raw: None if raw is None else int(raw),
    "float | None": lambda raw: None if raw is None else float(raw),
    "bool": bool,
    "date": lambda raw: date.fromisoformat(str(raw)),
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw),
    "tuple[float, ...]": lambda raw: tuple(float(v) for v in raw),
}


def _field_values(specs: Sequence[Field], raw: dict, prefix: str = "") -> dict[str, Any]:
    """The values `raw` gives for these fields, each coerced by its annotation.

    Absent fields are left out, so the dataclass fills their defaults. A value
    that does not coerce is a ConfigError naming the dotted key.
    """
    values = {}
    for f in specs:
        if f.name not in raw:
            continue
        value = raw[f.name]
        coerce = _COERCE.get(f.type)
        if coerce is not None:
            try:
                value = coerce(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{prefix}{f.name}: expected {f.type}, got {value!r}") from None
        values[f.name] = value
    return values


def _echo(value: Any) -> Any:
    """A field value as JSON: dates in ISO form, tuples as lists."""
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return list(value)
    return value


def _synthetic_from_dict(raw: dict) -> SyntheticSpec:
    unknown = set(raw) - _SYNTHETIC_KEYS
    if unknown:
        raise ConfigError(f"unknown synthetic keys: {', '.join(sorted(unknown))}")
    if "kind" not in raw:
        raise ConfigError("synthetic data needs a 'kind'")
    if raw["kind"] not in SYNTHETIC_KINDS:
        raise ConfigError(
            f"unknown synthetic kind {raw['kind']!r}; valid kinds: {', '.join(SYNTHETIC_KINDS)}"
        )
    if "length" not in raw:
        raise ConfigError("synthetic data needs a 'length'")
    return SyntheticSpec(**_field_values(fields(SyntheticSpec), raw, "data.synthetic."))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill documented defaults."""
    try:
        return _config_from_dict(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def _config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "data" not in raw:
        raise ConfigError("missing required key 'data'")
    data = raw["data"]
    if not isinstance(data, dict) or set(data) not in ({"csv"}, {"synthetic"}):
        raise ConfigError("'data' must be exactly one of {\"csv\": path} or {\"synthetic\": {...}}")
    if "agent" not in raw:
        raise ConfigError("missing required key 'agent'")
    agent = raw["agent"]
    if agent not in AGENT_KINDS:
        raise ConfigError(
            f"unknown agent kind {agent!r}; valid kinds: {', '.join(AGENT_KINDS)}"
        )
    data_csv = data.get("csv")
    values: dict[str, Any] = {
        "data_csv": data_csv,
        "data_synthetic": _synthetic_from_dict(data["synthetic"]) if "synthetic" in data else None,
        **_field_values(_KEY_FIELDS, raw),
    }
    # Cross-field defaults: a missing or null key takes the derived value.
    values["symbol"] = str(values.get("symbol") or (Path(data_csv).stem if data_csv else "SYNTH"))
    if values.get("window") is None:
        values["window"] = 3 if agent == "qtable" else 10
    if values.get("annualization") is None:
        values["annualization"] = math.sqrt(252.0)
    try:
        cfg = ExperimentConfig(**values)
    except ValueError as exc:  # TrainConfig's hyperparameter checks
        raise ConfigError(str(exc)) from None

    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {getattr(cfg, key)!r}")
    if cfg.train_start > cfg.train_end:
        raise ConfigError("train_start must not be after train_end")
    if cfg.test_start > cfg.test_end:
        raise ConfigError("test_start must not be after test_end")
    if cfg.train_end >= cfg.test_start:
        raise ConfigError("train window must strictly precede the test window")
    if cfg.window < 1:
        raise ConfigError("window must be >= 1")
    if not cfg.hidden_sizes or any(s < 1 for s in cfg.hidden_sizes):
        raise ConfigError("hidden_sizes must be a non-empty list of positive integers")
    if not cfg.state_cuts or any(b <= a for a, b in zip(cfg.state_cuts, cfg.state_cuts[1:])):
        raise ConfigError("state_cuts must be strictly increasing")
    if cfg.annualization <= 0:
        raise ConfigError("annualization must be positive")
    if not 1 <= cfg.fast_period < cfg.slow_period:
        raise ConfigError("need slow_period > fast_period >= 1")
    if cfg.initial_cash <= 0:
        raise ConfigError("initial_cash must be positive")
    if cfg.initial_shares < 0:
        raise ConfigError("initial_shares must be non-negative")
    if not 0.0 <= cfg.cost_rate < 1.0:
        raise ConfigError("cost_rate must be in [0, 1)")
    for key in ("buy_fraction", "sell_fraction"):
        if not 0.0 < getattr(cfg, key) <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1]")
    if cfg.sma_period < 1 or cfg.rsi_period < 1:
        raise ConfigError("indicator periods must be >= 1")
    return cfg


def read_config(path: str | Path) -> dict:
    """The raw JSON object of a config file, before its keys are validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    return config_from_dict(read_config(path))


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Full resolved config echo, JSON-serializable."""
    if cfg.data_csv is not None:
        data: dict[str, Any] = {"csv": cfg.data_csv}
    else:
        assert cfg.data_synthetic is not None
        data = {"synthetic": cfg.data_synthetic.to_dict()}
    return {"data": data, **{f.name: _echo(getattr(cfg, f.name)) for f in _KEY_FIELDS}}


def load_bars(cfg: ExperimentConfig) -> BarSeries:
    if cfg.data_csv is not None:
        return load_csv(cfg.data_csv, symbol=cfg.symbol)
    assert cfg.data_synthetic is not None
    return generate_synthetic(**asdict(cfg.data_synthetic), symbol=cfg.symbol)


def _slice_window(bars: BarSeries, label: str, start: date, end: date) -> BarSeries:
    window = bars.slice_dates(start, end)
    if len(window) < 2:
        raise ValueError(f"{label} window {start}..{end} holds {len(window)} bars, need >= 2")
    return window


def split_train_test(bars: BarSeries, cfg: ExperimentConfig) -> tuple[BarSeries, BarSeries]:
    """Partition bars by the configured date windows; no bar lands in both."""
    return (
        _slice_window(bars, "train", cfg.train_start, cfg.train_end),
        _slice_window(bars, "test", cfg.test_start, cfg.test_end),
    )


def _context_length(cfg: ExperimentConfig) -> int:
    needed = cfg.window
    if cfg.use_indicators:
        needed = max(needed, cfg.sma_period - 1, cfg.rsi_period)
    return needed


def build_window(
    bars: BarSeries,
    normalizer: Normalizer,
    cfg: ExperimentConfig,
    context: BarSeries | None = None,
) -> MarketWindow:
    """Observations, prices, and dates for the tradable part of `bars`.

    `context` supplies history immediately preceding `bars` (feature warm-up
    only; context days are never tradable). Without enough history the
    window starts later, once every feature is defined.
    """
    context_bars = context.bars if context is not None else ()
    if context_bars and context_bars[-1].date >= bars.bars[0].date:
        raise ValueError("context must end strictly before the target window")
    all_bars = BarSeries(bars.symbol, context_bars + bars.bars)
    total = len(all_bars)
    first_tradable = max(len(context_bars), _context_length(cfg))
    if first_tradable > total - 2:
        raise ValueError("window too short after feature warm-up")
    returns = daily_returns(all_bars, cfg.return_field)
    normalized = apply_normalizer(normalizer, returns)

    indicator_columns = None
    if cfg.use_indicators:
        closes = all_bars.closes()
        sma_full = np.full(total, np.nan)
        sma_full[cfg.sma_period - 1 :] = sma(closes, cfg.sma_period)
        rsi_full = np.full(total, np.nan)
        rsi_full[cfg.rsi_period :] = rsi(closes, cfg.rsi_period)
        # Align to return indexing (return t belongs to bar t + 1) and put
        # both features on comparable scales.
        indicator_columns = np.column_stack(
            [sma_full[1:] / closes[1:], rsi_full[1:] / 100.0]
        )

    offset = first_tradable - cfg.window  # first return index feeding the windows
    observations = build_observations(
        normalized.values[offset:],
        indicator_columns[offset:] if indicator_columns is not None else None,
        cfg.window,
    )
    dates = all_bars.dates()[first_tradable:]
    prices = all_bars.closes()[first_tradable:]
    return MarketWindow(dates, prices, observations)


@dataclass
class PreparedData:
    bars: BarSeries
    train_bars: BarSeries
    test_bars: BarSeries
    train_window: MarketWindow
    test_window: MarketWindow


def prepare_train(cfg: ExperimentConfig, bars: BarSeries) -> tuple[BarSeries, Normalizer, MarketWindow]:
    """Train-side artifacts only; never touches test-window rows."""
    train_bars = _slice_window(bars, "train", cfg.train_start, cfg.train_end)
    normalizer = fit_normalizer(daily_returns(train_bars, cfg.return_field), cfg.normalization)
    return train_bars, normalizer, build_window(train_bars, normalizer, cfg)


def prepare_data(cfg: ExperimentConfig, bars: BarSeries) -> PreparedData:
    train_bars, normalizer, train_window = prepare_train(cfg, bars)
    test_bars = _slice_window(bars, "test", cfg.test_start, cfg.test_end)
    context = train_bars.tail(_context_length(cfg))
    test_window = build_window(test_bars, normalizer, cfg, context=context)
    return PreparedData(bars, train_bars, test_bars, train_window, test_window)


def make_env(cfg: ExperimentConfig, window: MarketWindow) -> TradingEnv:
    return TradingEnv(
        window,
        cfg.initial_cash,
        costs=cfg.cost_model(),
        reward_mode=cfg.reward_mode,
        buy_fraction=cfg.buy_fraction,
        sell_fraction=cfg.sell_fraction,
        initial_shares=cfg.initial_shares,
    )


def train_agent(
    cfg: ExperimentConfig, train_window: MarketWindow
) -> tuple[Mlp | QTable | None, list[HistoryRow]]:
    """Train the configured agent; baselines have nothing to train."""
    if cfg.agent not in LEARNING_AGENTS:
        return None, []
    env = make_env(cfg, train_window)
    if cfg.agent == "qtable":
        discretizer = Discretizer.uniform(train_window.obs_dim, cfg.state_cuts)
        return train_qlearning(env, cfg, discretizer)
    net = init_mlp((train_window.obs_dim, *cfg.hidden_sizes, 3), seed=cfg.seed)
    return train_dqn(env, cfg, net)


def greedy_policy(cfg: ExperimentConfig, artifact: Mlp | QTable, obs_dim: int) -> Callable:
    if cfg.agent == "qtable":
        assert isinstance(artifact, QTable)
        discretizer = Discretizer.uniform(obs_dim, cfg.state_cuts)
        return lambda obs: select_action(artifact.action_values(discretizer(obs)), 0.0)
    assert isinstance(artifact, Mlp)
    return lambda obs: select_action(forward(artifact, obs), 0.0)


def run_policy(env: TradingEnv, policy: Callable) -> tuple[EquityCurve, list[Fill]]:
    """One greedy episode through `simulate`: daily wealth and executed fills.

    The policy acts at every close but the last, where the episode ends.
    """
    window = env.window
    last = len(window) - 1

    def decide(t: int, portfolio: Portfolio) -> Action:
        return policy(window.observations[t]) if t < last else Action.HOLD

    state, _ = env.reset()
    return simulate(
        window.prices, window.dates, state.portfolio, decide,
        env.costs, env.buy_fraction, env.sell_fraction,
    )


@dataclass
class StrategyResult:
    name: str
    train_metrics: MetricsReport
    test_metrics: MetricsReport
    test_curve: EquityCurve
    test_trades: list[RoundTripTrade]


@dataclass
class Report:
    config: ExperimentConfig
    strategies: dict[str, StrategyResult]
    history: list[HistoryRow]
    artifact: Mlp | QTable | None

    @property
    def test_window_span(self) -> tuple[date, date]:
        result = next(iter(self.strategies.values()))
        return result.test_curve.dates[0], result.test_curve.dates[-1]


def _window_result(
    cfg: ExperimentConfig,
    kind: str,
    artifact: Mlp | QTable | None,
    bars: BarSeries,
    window: MarketWindow,
) -> tuple[MetricsReport, EquityCurve, list[RoundTripTrade]]:
    """Evaluate one strategy on one window, matching its trades once."""
    window_bars = bars.slice_dates(window.dates[0], window.dates[-1])
    if kind in LEARNING_AGENTS:
        assert artifact is not None
        policy = greedy_policy(cfg, artifact, window.obs_dim)
        curve, fills = run_policy(make_env(cfg, window), policy)
    elif kind == "buy_and_hold":
        curve, fills = baseline_buy_and_hold(window_bars, cfg.initial_cash, cfg.cost_model())
    else:
        curve, fills = baseline_sma_crossover(
            window_bars, cfg.fast_period, cfg.slow_period, cfg.initial_cash, cfg.cost_model()
        )
    # Learning agents start with cfg.initial_shares (baselines start flat);
    # FIFO matching opens those as one zero-cost lot at the first close.
    opening = cfg.initial_shares if kind in LEARNING_AGENTS else 0
    trades = match_trades(
        fills,
        final_price=float(window.prices[-1]),
        final_date=window.dates[-1],
        day_count=cfg.holding_day_count,
        trading_dates=window.dates if cfg.holding_day_count == "trading" else None,
        opening_lot=(window.dates[0], opening, float(window.prices[0])) if opening else None,
    )
    metrics = compute_report(
        curve,
        fills,
        volumes=window_bars.volumes(),
        rf_daily=cfg.risk_free_rate,
        annualization=cfg.annualization,
        trades=trades,
    )
    return metrics, curve, trades


def _strategy_result(
    cfg: ExperimentConfig,
    kind: str,
    artifact: Mlp | QTable | None,
    prepared: PreparedData,
) -> StrategyResult:
    train_metrics = _window_result(cfg, kind, artifact, prepared.bars, prepared.train_window)[0]
    test = _window_result(cfg, kind, artifact, prepared.bars, prepared.test_window)
    return StrategyResult(kind, train_metrics, *test)


def run_experiment(
    cfg: ExperimentConfig,
    artifact: Mlp | QTable | None = None,
) -> Report:
    """Full pipeline: ingest, train, evaluate agent plus benchmark, assemble.

    Passing a pre-trained `artifact` skips the training stage (used by the
    evaluate subcommand). Errors carry their pipeline stage.
    """
    try:
        bars = load_bars(cfg)
        prepared = prepare_data(cfg, bars)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError("ingest", str(exc)) from exc

    history: list[HistoryRow] = []
    if artifact is None:
        try:
            artifact, history = train_agent(cfg, prepared.train_window)
        except Exception as exc:
            raise ExperimentError("train", str(exc)) from exc

    try:
        strategies: dict[str, StrategyResult] = {
            cfg.agent: _strategy_result(cfg, cfg.agent, artifact, prepared)
        }
        if cfg.agent != "buy_and_hold":
            strategies["buy_and_hold"] = _strategy_result(cfg, "buy_and_hold", None, prepared)
    except Exception as exc:
        raise ExperimentError("evaluate", str(exc)) from exc

    return Report(cfg, strategies, history, artifact)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _equity_csv(curve: EquityCurve) -> str:
    lines = ["date,value"]
    lines.extend(f"{d.isoformat()},{repr(float(v))}" for d, v in zip(curve.dates, curve.values))
    return "\n".join(lines) + "\n"


def _trades_csv(trades: Sequence[RoundTripTrade]) -> str:
    lines = ["entry_date,exit_date,shares,entry_price,exit_price,profit,holding_days,mtm_flag"]
    for t in trades:
        lines.append(
            f"{t.entry_date.isoformat()},{t.exit_date.isoformat()},{t.shares},"
            f"{repr(float(t.entry_price))},{repr(float(t.exit_price))},"
            f"{repr(float(t.profit))},{repr(float(t.holding_days))},{int(t.mark_to_market)}"
        )
    return "\n".join(lines) + "\n"


def metrics_document(report: Report) -> dict[str, Any]:
    cfg = report.config
    test_span = report.test_window_span
    return {
        "symbol": cfg.symbol,
        "train_window": {"start": cfg.train_start.isoformat(), "end": cfg.train_end.isoformat()},
        "test_window": {"start": test_span[0].isoformat(), "end": test_span[1].isoformat()},
        "strategies": {
            name: {
                "train": result.train_metrics.to_dict(),
                "test": result.test_metrics.to_dict(),
            }
            for name, result in report.strategies.items()
        },
    }


def load_metrics_document(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def emit_training(
    cfg: ExperimentConfig,
    history: Sequence[HistoryRow],
    artifact: Mlp | QTable | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write the config echo, history.csv and the trained artifact, if any."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "config_echo.json", out / "history.csv"]
    written[0].write_text(_json_text(config_to_dict(cfg)), encoding="utf-8")
    write_history(history, written[1])
    if isinstance(artifact, Mlp):
        written.append(out / "checkpoint_dqn.txt")
        save_checkpoint(artifact, written[-1])
    elif isinstance(artifact, QTable):
        written.append(out / "qtable.csv")
        artifact.save(written[-1])
    return written


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write emit_training's files, metrics.json and each strategy's curve and trades."""
    out = Path(out_dir)
    written = emit_training(report.config, report.history, report.artifact, out)
    texts = {"metrics.json": _json_text(metrics_document(report))}
    for name, result in report.strategies.items():
        texts[f"equity_{name}.csv"] = _equity_csv(result.test_curve)
        texts[f"trades_{name}.csv"] = _trades_csv(result.test_trades)
    for name, text in texts.items():
        written.append(out / name)
        written[-1].write_text(text, encoding="utf-8")
    return written


@dataclass
class ComparisonTable:
    """Per-strategy metric rows with the winner marked per directional metric."""

    rows: list[dict[str, Any]]
    winners: dict[str, str]

    def to_csv_text(self) -> str:
        lines = [",".join(COMPARE_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join(
                    str(row["strategy"]) if col == "strategy" else _cell_text(row[col], exact=True)
                    for col in COMPARE_COLUMNS
                )
            )
        lines.append(
            ",".join(
                "winner" if col == "strategy" else self.winners.get(col, "")
                for col in COMPARE_COLUMNS
            )
        )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = list(COMPARE_COLUMNS)
        body = []
        for row in self.rows:
            cells = [str(row["strategy"])]
            for col in COMPARE_COLUMNS[1:]:
                text = _cell_text(row[col], exact=False)
                if self.winners.get(col) == row["strategy"]:
                    text += "*"
                cells.append(text)
            body.append(cells)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body)
        return "\n".join(lines) + "\n"


def _cell_text(value: float | None, exact: bool) -> str:
    encoded = encode_metric(value)
    if isinstance(encoded, str):
        return encoded
    return repr(encoded) if exact else format(encoded, ".6g")


def _compare_entries(entries: list[tuple[str, Any, dict[str, float | None]]]) -> ComparisonTable:
    if not entries:
        raise ValueError("nothing to compare")
    reference = entries[0][1]
    for label, span, _ in entries:
        if span != reference:
            raise ValueError(
                f"test windows differ: {label} covers {span}, expected {reference}"
            )
    seen: dict[str, int] = {}
    rows = []
    for label, _, metrics in entries:
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}#{seen[label]}"
        rows.append({"strategy": label, **metrics})
    winners: dict[str, str] = {}
    for col, pick in _COMPARE_DIRECTION.items():
        defined = [(row[col], row["strategy"]) for row in rows if row[col] is not None]
        if defined:
            best = pick(v for v, _ in defined)
            winners[col] = next(name for v, name in defined if v == best)
    return ComparisonTable(rows, winners)


def _metrics_to_row(metrics: MetricsReport) -> dict[str, float | None]:
    return {col: getattr(metrics, attr) for col, attr in _COMPARE_SOURCE.items()}


def compare_strategies(reports: Sequence[Report]) -> ComparisonTable:
    """One row per strategy across reports; all must share the test window."""
    entries = []
    for report in reports:
        span = report.test_window_span
        for name, result in report.strategies.items():
            entries.append((name, span, _metrics_to_row(result.test_metrics)))
    return _compare_entries(entries)


def compare_metrics_documents(docs: Sequence[tuple[str, dict]]) -> ComparisonTable:
    """Compare emitted metrics.json documents; labels prefix strategy names."""
    entries = []
    for label, doc in docs:
        span = (doc["test_window"]["start"], doc["test_window"]["end"])
        for name, windows in doc["strategies"].items():
            metrics = {
                col: decode_metric(windows["test"][attr])
                for col, attr in _COMPARE_SOURCE.items()
            }
            entries.append((f"{label}:{name}", span, metrics))
    return _compare_entries(entries)
