"""Config-driven experiment orchestration.

One experiment trains the configured agent on the train window, evaluates
it greedily on the test window, always runs buy-and-hold on the identical
test window as the benchmark, and emits a comparable report. The tuple
(config, seed, input data) fully determines every output byte.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import Field, asdict, dataclass, fields
from datetime import date
from functools import partial
from operator import add
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .market_data import (
    BarSeries,
    NORMALIZATION_MODES,
    NormalizationMode,
    Normalizer,
    SYNTHETIC_KINDS,
    SyntheticSpec,
    apply_normalizer,
    build_observations,
    daily_returns,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    parse_date,
    rsi,
    sma,
)
from .metrics import (
    DAY_COUNTS,
    EquityCurve,
    Fill,
    MetricsReport,
    REPORT_FIELDS,
    RoundTripTrade,
    compute_report,
    encode_metric,
    match_trades,
)
from .neural_net import Mlp, _row_forward, init_mlp, load_checkpoint, save_checkpoint
from .rl_agents import (
    HistoryRow,
    QTable,
    StateKey,
    TrainConfig,
    _check_outputs,
    _discretize_rows,
    baseline_buy_and_hold,
    baseline_sma_crossover,
    simulate,
    train_dqn,
    train_qlearning,
    write_history,
)
from .trading_env import (
    MAX_SHARES, Action, CostModel, MarketWindow, Portfolio, REWARD_MODES, TradingEnv,
)

# Learning agent -> (artifact file name, writer(artifact, path), reader(path),
# the config key that shapes that artifact beyond the observations).
_ARTIFACTS: dict[str, tuple[str, Callable, Callable, str]] = {
    "qtable": ("qtable.csv", QTable.save, QTable.load, "state_cuts"),
    "dqn": ("checkpoint_dqn.txt", save_checkpoint, load_checkpoint, "hidden_sizes"),
}
LEARNING_AGENTS = tuple(_ARTIFACTS)
AGENT_KINDS = (*LEARNING_AGENTS, "buy_and_hold", "sma_crossover")

# Compared column -> (MetricsReport field it shows, which is also its metrics.json
# key; max or min to pick the winner, or None for an informational column).
_COMPARED: dict[str, tuple[str, Callable | None]] = {
    "roi": ("roi", max),
    "cumulative_return": ("cumulative_return", max),
    "sharpe": ("sharpe", max),
    "max_drawdown": ("max_drawdown", min),
    "adr": ("avg_daily_return", max),
    "adtv": ("adtv", None),
    "profit_factor": ("profit_factor", max),
    "winning_pct": ("winning_pct", max),
    "ahp": ("avg_holding_days", None),
}
COMPARE_COLUMNS = ("strategy", *_COMPARED)


class ConfigError(ValueError):
    """Experiment configuration is missing, malformed, or inconsistent."""


class ExperimentError(Exception):
    """Pipeline failure tagged with the stage it occurred in.

    Not a RuntimeError: contextlib takes one raised from a StopIteration for a
    PEP 479 conversion, and `stage` would re-raise the StopIteration untagged.
    """

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Re-raise any failure in the block as ExperimentError(name, message).

    The message is the exception's text, or its class name if it has none. An
    ExperimentError passes through unchanged, keeping its own stage.
    """
    try:
        yield
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(name, str(exc) or type(exc).__name__) from exc


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(TrainConfig):
    """Resolved experiment settings, one field per config key.

    The RL hyperparameters and `seed` are TrainConfig's. `data` is the CSV
    path of `{"csv": path}` or the spec of `{"synthetic": {...}}`. The other
    fields carry the config defaults; a `None` default is resolved at parse
    time (symbol from the data, window from the agent, annualization
    sqrt(252)), except `out_dir`.
    """

    data: str | SyntheticSpec
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


# Config keys: `data`, parsed by its own rules, and the fields parsed by annotation.
_KEY_FIELDS = tuple(f for f in fields(ExperimentConfig) if f.name != "data")
CONFIG_KEYS = ("data", *(f.name for f in _KEY_FIELDS))
_SYNTHETIC_KEYS = {f.name for f in fields(SyntheticSpec)}
# Keys that shape the observations: `evaluate` refuses an artifact whose config
# echo differs from the config in one of them or in its learner's _ARTIFACTS key.
TRAINING_KEYS = ("data", "train_start", "train_end", "window", "use_indicators", "sma_period",
                 "rsi_period", "normalization", "return_field")
# Allowed values of the string-valued keys.
_CHOICES = {
    "normalization": NORMALIZATION_MODES,
    "return_field": ("close", "adj_close"),
    "reward_mode": REWARD_MODES,
    "holding_day_count": DAY_COUNTS,
}


def _as_int(raw: Any) -> int:
    """An int from an int, an integral float or a numeric string; never a bool."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError
    return int(raw)


class _Expected(ValueError):
    """A coercion failure reported as `<key>: expected <args[0]>, got <args[1]!r>`."""


def _as_float(raw: Any) -> float:
    """A finite float from a number or a numeric string; never a bool."""
    if isinstance(raw, bool):
        raise ValueError
    if not math.isfinite(value := float(raw)):
        raise _Expected("a finite number", raw)
    return value


def _as_bool(raw: Any) -> bool:
    """JSON true/false, 0/1, or null for the default false; no string."""
    if raw is None or (type(raw) in (bool, int) and raw in (0, 1)):
        return bool(raw)
    raise ValueError


def _as_list(raw: Any) -> list | tuple:
    """A JSON list; a string would split into characters."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError
    return raw


# How a raw JSON value becomes a field value, by field annotation; fields
# whose annotation is not listed keep the raw value.
_COERCE: dict[str, Callable[[Any], Any]] = {
    "int": _as_int,
    "float": _as_float,
    "int | None": lambda raw: None if raw is None else _as_int(raw),
    "float | None": lambda raw: None if raw is None else _as_float(raw),
    "bool": _as_bool,
    "date": lambda raw: parse_date(str(raw)),
    "tuple[int, ...]": lambda raw: tuple(_as_int(v) for v in _as_list(raw)),
    "tuple[float, ...]": lambda raw: tuple(_as_float(v) for v in _as_list(raw)),
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
            except (TypeError, ValueError, OverflowError) as exc:
                expected, got = exc.args if isinstance(exc, _Expected) else (f.type, value)
                raise ConfigError(f"{prefix}{f.name}: expected {expected}, got {got!r}") from None
        values[f.name] = value
    return values


def _echo(value: Any) -> Any:
    """A field value as JSON: dates in ISO form, tuples as lists, a spec as an object."""
    if isinstance(value, SyntheticSpec):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return list(value)
    return value


def synthetic_from_dict(raw: dict, prefix: str = "data.synthetic.") -> SyntheticSpec:
    """The spec of a `data.synthetic` object, or of `quantrl synth`'s flags.

    Values are coerced as config values are; errors name a key as `prefix`
    plus the field name.
    """
    unknown = set(raw) - _SYNTHETIC_KEYS
    if unknown:
        raise ConfigError(f"unknown synthetic keys: {', '.join(sorted(unknown))}")
    for key in ("kind", "length"):
        if key not in raw:
            raise ConfigError(f"{prefix}{key} is required")
    if raw["kind"] not in SYNTHETIC_KINDS:
        raise ConfigError(
            f"{prefix}kind: unknown synthetic kind {raw['kind']!r}; "
            f"valid kinds: {', '.join(SYNTHETIC_KINDS)}"
        )
    values = _field_values(fields(SyntheticSpec), raw, prefix)
    if values.get("seed", 0) < 0:
        raise ConfigError(f"{prefix}seed must be >= 0, got {values['seed']}")
    return SyntheticSpec(**values)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill documented defaults."""
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
    source = data.get("csv")
    if "synthetic" in data:
        if not isinstance(data["synthetic"], dict):
            raise ConfigError("data.synthetic: expected an object")
        source = synthetic_from_dict(data["synthetic"])
    elif not (isinstance(source, str) and source):
        raise ConfigError(f"data.csv: expected a file path, got {source!r}")
    values: dict[str, Any] = {"data": source, **_field_values(_KEY_FIELDS, raw)}
    for key in ("symbol", "out_dir"):
        if not isinstance(values.get(key), (str, type(None))):
            raise ConfigError(f"{key}: expected a string, got {values[key]!r}")
    # Cross-field defaults: a missing, null or empty key takes the derived value.
    csv_stem = Path(source).stem if isinstance(source, str) else "SYNTH"
    values["symbol"] = values.get("symbol") or csv_stem
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
        raise ConfigError("state_cuts must be a non-empty, strictly increasing list")
    if cfg.annualization <= 0:
        raise ConfigError("annualization must be positive")
    if not 1 <= cfg.fast_period < cfg.slow_period:
        raise ConfigError("need slow_period > fast_period >= 1")
    if cfg.initial_cash <= 0:
        raise ConfigError("initial_cash must be positive")
    if not 0 <= cfg.initial_shares <= MAX_SHARES:
        raise ConfigError(f"initial_shares must be in [0, 2**53]; got {cfg.initial_shares}")
    if not 0.0 <= cfg.cost_rate < 1.0:
        raise ConfigError("cost_rate must be in [0, 1)")
    for key in ("buy_fraction", "sell_fraction"):
        if not 0.0 < getattr(cfg, key) <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1]")
    if cfg.sma_period < 1 or cfg.rsi_period < 1:
        raise ConfigError("indicator periods must be >= 1")
    return cfg


def parse_json(text: str) -> Any:
    """`json.loads`, refusing a key repeated in any object: `json` would keep its last value."""
    def unique(pairs: list[tuple[str, Any]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"repeated key {key!r}")
            obj[key] = value
        return obj

    return json.loads(text, object_pairs_hook=unique)


def read_json(path: str | Path) -> dict:
    """The JSON object in file `path`; any failure is a ValueError `<path>: <reason>`."""
    try:
        doc = parse_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    return config_from_dict(read_json(path))


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Full resolved config echo, JSON-serializable."""
    data = {"csv": cfg.data} if isinstance(cfg.data, str) else {"synthetic": _echo(cfg.data)}
    return {"data": data, **{f.name: _echo(getattr(cfg, f.name)) for f in _KEY_FIELDS}}


def load_bars(cfg: ExperimentConfig) -> BarSeries:
    if isinstance(cfg.data, str):
        return load_csv(cfg.data, symbol=cfg.symbol)
    return generate_synthetic(**asdict(cfg.data), symbol=cfg.symbol)


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
    all_bars = bars if context is None else bars._after(context)
    total = len(all_bars)
    first_tradable = max(total - len(bars), _context_length(cfg))
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


@dataclass(frozen=True)
class PreparedData:
    bars: BarSeries
    train_window: MarketWindow
    test_window: MarketWindow
    # (key, value) of each config key that shaped the windows, as prepare_data read it.
    built_with: tuple[tuple[str, Any], ...]


def prepare_train(cfg: ExperimentConfig, bars: BarSeries) -> tuple[BarSeries, Normalizer, MarketWindow]:
    """Train-side artifacts only; never touches test-window rows."""
    train_bars = _slice_window(bars, "train", cfg.train_start, cfg.train_end)
    data = cfg.data
    if not isinstance(data, str) and data.kind == "gbm" and data.volatility == data.drift == 0:
        raise ValueError("data.synthetic: gbm with volatility 0 and drift 0 is a constant series,"
                         " which cannot be normalized; set volatility or drift")
    normalizer = fit_normalizer(daily_returns(train_bars, cfg.return_field), cfg.normalization)
    return train_bars, normalizer, build_window(train_bars, normalizer, cfg)


def prepare_data(cfg: ExperimentConfig, bars: BarSeries) -> PreparedData:
    train_bars, normalizer, train_window = prepare_train(cfg, bars)
    test_bars = _slice_window(bars, "test", cfg.test_start, cfg.test_end)
    context = train_bars.tail(_context_length(cfg))
    test_window = build_window(test_bars, normalizer, cfg, context=context)
    built_with = tuple((key, getattr(cfg, key)) for key in (*TRAINING_KEYS, "test_start", "test_end"))
    return PreparedData(bars, train_window, test_window, built_with)


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
        return train_qlearning(env, cfg, _state_keys(env, cfg.state_cuts))
    net = init_mlp((train_window.obs_dim, *cfg.hidden_sizes, len(Action)), seed=cfg.seed)
    return train_dqn(env, cfg, net)


def _state_keys(env: TradingEnv, cuts: Sequence[float]) -> Callable[[np.ndarray], StateKey]:
    """Each observation's key, binned up front and found by the identity of the row object
    `env` hands out (one per step index, alive as long as `env`), not by its values."""
    keys = dict(zip(map(id, env._rows), _discretize_rows(env.window.observations, cuts)))
    return lambda obs: keys[id(obs)]


def greedy_policy(
    cfg: ExperimentConfig, artifact: Mlp | QTable, obs_dim: int
) -> Callable[[np.ndarray], list[int]]:
    """The agent's greedy action for each row of an observation matrix.

    Each is the first maximal entry of the row's action values, as in
    `select_action(values, 0.0)`: the Q-table rows of the binned observations,
    or `_row_forward`, equal to per-row `forward`. An artifact that does not fit
    observations of width `obs_dim` binned by cfg.state_cuts is a ValueError.
    """
    if cfg.agent == "qtable":
        bins = len(cfg.state_cuts)
        for key, _ in artifact.items():
            if len(key) != obs_dim or not all(0 <= i <= bins for i in key):
                raise ValueError(
                    f"q-table state {'-'.join(map(str, key))} does not fit the observations: "
                    f"expected {obs_dim} bin indices in 0..{bins}"
                )
        def values(obs):
            return np.array([artifact.action_values(k) for k in _discretize_rows(obs, cfg.state_cuts)])
    else:
        _check_outputs(artifact)
        values = partial(_row_forward, artifact)
    return lambda obs: values(obs).argmax(axis=1).tolist()


def run_policy(
    cfg: ExperimentConfig, window: MarketWindow, policy: Callable
) -> tuple[EquityCurve, list[Fill]]:
    """One greedy episode through `simulate`: daily wealth and executed fills.

    `policy` maps an observation matrix to one action per row. It is applied
    once, to the observations of every close but the last, where the episode
    ends with Hold; a window's observations do not depend on the actions.
    """
    actions = [*policy(window.observations[:-1]), Action.HOLD]
    return simulate(
        window.prices, window.dates, Portfolio(cfg.initial_cash, cfg.initial_shares),
        lambda t, portfolio: actions[t], cfg.cost_model(), cfg.buy_fraction, cfg.sell_fraction,
    )


@dataclass
class StrategyResult:
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
    def test_dates(self) -> tuple[date, ...]:
        """The test window's dates, which every strategy's curve spans."""
        return next(iter(self.strategies.values())).test_curve.dates

    @property
    def test_window_span(self) -> tuple[date, date]:
        return self.test_dates[0], self.test_dates[-1]


def _window_result(
    cfg: ExperimentConfig,
    kind: str,
    policy: Callable | None,
    bars: BarSeries,
    window: MarketWindow,
) -> tuple[MetricsReport, EquityCurve, list[RoundTripTrade]]:
    """Evaluate one strategy on one window, matching its trades once."""
    window_bars = bars.slice_dates(window.dates[0], window.dates[-1])
    if kind in LEARNING_AGENTS:
        curve, fills = run_policy(cfg, window, policy)
    elif kind == "buy_and_hold":
        curve, fills = baseline_buy_and_hold(
            window_bars, cfg.initial_cash, cfg.cost_model(), cfg.initial_shares
        )
    else:
        curve, fills = baseline_sma_crossover(
            window_bars, cfg.fast_period, cfg.slow_period, cfg.initial_cash, cfg.cost_model(),
            cfg.initial_shares,
        )
    # Every strategy starts with cfg.initial_shares; the ledger opens with
    # them as one zero-cost buy at the first close.
    shares = cfg.initial_shares
    ledger = [Fill(window.dates[0], "buy", shares, float(window.prices[0]))] if shares else []
    trades = match_trades(
        [*ledger, *fills],
        final_price=float(window.prices[-1]),
        final_date=window.dates[-1],
        day_count=cfg.holding_day_count,
        trading_dates=window.dates if cfg.holding_day_count == "trading" else None,
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


def run_experiment(
    cfg: ExperimentConfig,
    artifact: Mlp | QTable | None = None,
) -> Report:
    """Full pipeline: the ingest stage, then run_prepared's. Errors carry their stage."""
    with stage("ingest"):
        prepared = prepare_data(cfg, load_bars(cfg))
    return run_prepared(cfg, prepared, artifact)


def run_prepared(
    cfg: ExperimentConfig, prepared: PreparedData, artifact: Mlp | QTable | None = None
) -> Report:
    """Train, evaluate the agent plus benchmark on `prepared`, assemble.

    Passing a pre-trained `artifact` skips the training stage (used by the
    evaluate subcommand). `prepared` is only read, so one value serves any
    number of runs, e.g. one per seed, of configs that agree with the one it
    was built with on every key that shaped it; any other is a ValueError.
    """
    for key, value in prepared.built_with:
        if getattr(cfg, key) != value:
            raise ValueError(f"prepared data was built with {key} {value}, not {getattr(cfg, key)}")
    history: list[HistoryRow] = []
    if artifact is None:
        with stage("train"):
            artifact, history = train_agent(cfg, prepared.train_window)

    with stage("evaluate"):
        # An empty QTable is falsy: only None means there is no artifact.
        policy = None if artifact is None else greedy_policy(cfg, artifact, prepared.test_window.obs_dim)
        strategies = {}
        for kind in dict.fromkeys((cfg.agent, "buy_and_hold")):
            train_metrics = _window_result(cfg, kind, policy, prepared.bars, prepared.train_window)[0]
            test = _window_result(cfg, kind, policy, prepared.bars, prepared.test_window)
            strategies[kind] = StrategyResult(train_metrics, *test)

    return Report(cfg, strategies, history, artifact)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _equity_csv(days: Sequence[str], curve: EquityCurve) -> str:
    """The curve's file, given each of its dates formatted as "YYYY-MM-DD,"."""
    return "\n".join(["date,value", *map(add, days, map(repr, curve.values.tolist())), ""])


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


def load_report_metrics(
    report_dir: str | Path,
) -> tuple[tuple[str, str], dict[str, MetricsReport]]:
    """The test window and per-strategy test metrics of a complete report directory.

    A read error is prefixed with the metrics.json path. The document must
    hold a test window with string dates and decodable test metrics per
    strategy, and every file it implies must be present: emit_report writes
    metrics.json last, so a directory missing one was changed afterwards.
    Then it must hold a string symbol, a train window with string dates and
    decodable train metrics per strategy.
    """
    directory = Path(report_dir)
    path = directory / "metrics.json"
    doc = read_json(path)
    if not all(isinstance(doc.get(key), dict) for key in ("test_window", "strategies")):
        raise ValueError(f"{path}: not a report, needs test_window and strategies objects")

    def span(key: str) -> tuple[str, str]:
        window = doc.get(key)
        dates = (window.get("start"), window.get("end")) if isinstance(window, dict) else (None,)
        if not all(isinstance(d, str) for d in dates):
            raise ValueError(f"{path}: {key} needs string start and end dates")
        return dates

    def metrics(name: str, windows: Any, window: str) -> MetricsReport:
        values = windows.get(window) if isinstance(windows, dict) else None
        if not isinstance(values, dict) or any(key not in values for key in REPORT_FIELDS):
            raise ValueError(f"{path}: strategy {name!r} lacks complete {window} metrics")
        try:
            return MetricsReport.from_dict(values)
        except ValueError as exc:
            raise ValueError(f"{path}: strategy {name!r} {window} {exc}") from None

    test_span = span("test_window")
    names = ["config_echo.json", "history.csv"]
    tests = {}
    for name, windows in doc["strategies"].items():
        tests[name] = metrics(name, windows, "test")
        names += [f"equity_{name}.csv", f"trades_{name}.csv"]
    for name in names:
        if not (directory / name).is_file():
            raise ValueError(f"{directory}: incomplete report, missing {name}")
    if not isinstance(doc.get("symbol"), str):
        raise ValueError(f"{path}: symbol must be a string, got {doc.get('symbol')!r}")
    span("train_window")
    for name, windows in doc["strategies"].items():
        metrics(name, windows, "train")
    return test_span, tests


def load_artifact(cfg: ExperimentConfig, path: str | Path | None) -> Mlp | QTable | None:
    """Read the trained artifact of cfg's learning agent, as emit_training wrote it.

    A learning agent needs a path; a baseline takes none and gets None. The
    config_echo.json emit_training wrote beside it, if there is one, must
    agree with cfg on the agent, on every TRAINING_KEYS key and on the key that
    shapes this learner's artifact; an artifact alone is not checked.
    """
    if cfg.agent not in LEARNING_AGENTS:
        if path is not None:
            raise ValueError(f"agent kind {cfg.agent!r} loads no artifact; got --checkpoint {path}")
        return None
    if path is None:
        raise ValueError(f"agent kind {cfg.agent!r} needs --checkpoint with a trained artifact")
    _check_config_echo(cfg, Path(path).parent / "config_echo.json")
    return _ARTIFACTS[cfg.agent][2](path)


def _check_config_echo(cfg: ExperimentConfig, path: Path) -> None:
    if not path.exists():
        return
    echo = read_json(path)
    current = config_to_dict(cfg)
    for key in ("agent", *TRAINING_KEYS, _ARTIFACTS[cfg.agent][3]):
        if echo.get(key) != current[key]:
            trained, evaluated = (json.dumps(v, sort_keys=True) for v in (echo.get(key), current[key]))
            raise ValueError(f"{path}: artifact trained under {key}={trained}, not {evaluated}")


def emit_training(
    cfg: ExperimentConfig,
    history: Sequence[HistoryRow],
    artifact: Mlp | QTable | None,
    out_dir: str | Path,
) -> list[Path]:
    """Write the config echo, history.csv and the trained artifact, if any.

    An earlier report's metrics.json is removed first: only a complete
    report directory holds one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").unlink(missing_ok=True)
    written = [out / "config_echo.json", out / "history.csv"]
    written[0].write_text(_json_text(config_to_dict(cfg)), encoding="utf-8")
    write_history(history, written[1])
    if artifact is not None:
        name, write, _, _ = _ARTIFACTS[cfg.agent]
        written.append(out / name)
        write(artifact, written[-1])
    return written


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write emit_training's files, each strategy's curve and trades, then metrics.json.

    metrics.json goes last, so a directory that holds one is a complete report.
    """
    out = Path(out_dir)
    written = emit_training(report.config, report.history, report.artifact, out)
    texts = {}
    days = [d.isoformat() + "," for d in report.test_dates]
    for name, result in report.strategies.items():
        texts[f"equity_{name}.csv"] = _equity_csv(days, result.test_curve)
        texts[f"trades_{name}.csv"] = _trades_csv(result.test_trades)
    texts["metrics.json"] = _json_text(metrics_document(report))
    for name, text in texts.items():
        written.append(out / name)
        written[-1].write_text(text, encoding="utf-8")
    return written


@dataclass
class ComparisonTable:
    """Per-strategy metric rows with the winner marked per directional metric."""

    rows: list[dict[str, Any]]
    winners: dict[str, str]

    def _cells(self, exact: bool) -> list[list[str]]:
        """The header, then each row's cell texts; inexact texts mark a winner with `*`."""
        return [list(COMPARE_COLUMNS)] + [
            [row["strategy"]] + [
                _cell_text(row[col], exact)
                + ("*" if not exact and self.winners.get(col) == row["strategy"] else "")
                for col in COMPARE_COLUMNS[1:]
            ]
            for row in self.rows
        ]

    def to_csv_text(self) -> str:
        winners = ["winner", *(self.winners.get(col, "") for col in COMPARE_COLUMNS[1:])]
        return "".join(",".join(cells) + "\n" for cells in [*self._cells(exact=True), winners])

    def to_text(self) -> str:
        header, *body = self._cells(exact=False)
        widths = [max(len(cells[i]) for cells in (header, *body)) for i in range(len(header))]
        lines = [header, ["-" * w for w in widths], *body]
        return "".join("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n" for cells in lines)


def _cell_text(value: float | None, exact: bool) -> str:
    encoded = encode_metric(value)
    if isinstance(encoded, str):
        return encoded
    return repr(encoded) if exact else format(encoded, ".6g")


def compare_test_metrics(
    runs: Sequence[tuple[str, tuple[str, str], dict[str, MetricsReport]]],
) -> ComparisonTable:
    """One row per strategy of each (prefix, test window, test metrics), named prefix + strategy.

    A run's rows are in strategy-name order, as metrics.json holds them. Every
    row must share the first row's test window; a repeated name gets a `#2`,
    `#3`, ... suffix.
    """
    rows: list[dict[str, Any]] = []
    seen: dict[str, int] = {}
    reference = None
    for prefix, span, strategies in runs:
        for name, metrics in sorted(strategies.items()):
            label = prefix + name
            reference = reference or span
            if span != reference:
                raise ValueError(
                    f"test windows differ: {label} covers {span}, expected {reference}"
                )
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label = f"{label}#{seen[label]}"
            rows.append(
                {"strategy": label}
                | {col: getattr(metrics, field) for col, (field, _) in _COMPARED.items()}
            )
    if not rows:
        raise ValueError("nothing to compare")
    winners: dict[str, str] = {}
    for col, (_, pick) in _COMPARED.items():
        if pick is None:
            continue
        defined = [(row[col], row["strategy"]) for row in rows if row[col] is not None]
        if defined:
            best = pick(v for v, _ in defined)
            winners[col] = next(name for v, name in defined if v == best)
    return ComparisonTable(rows, winners)


def compare_strategies(reports: Sequence[Report]) -> ComparisonTable:
    """One row per strategy across reports; all must share the test window."""
    return compare_test_metrics([
        ("", tuple(d.isoformat() for d in r.test_window_span),
         {name: result.test_metrics for name, result in r.strategies.items()})
        for r in reports
    ])
