"""Daily OHLCV ingestion, return and feature transforms, synthetic fixtures.

All functions here are pure: same inputs (and seed, for the synthetic
generator) always produce the same outputs.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

CSV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")
CSV_COLUMNS_NO_ADJ = ("Date", "Open", "High", "Low", "Close", "Volume")

SYNTHETIC_KINDS = ("sinusoid", "trend", "gbm")

NormalizationMode = Literal["unit_range", "signed_range"]


class DataError(ValueError):
    """Input market data violates the ingest contract."""


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> date:
    """A date written YYYY-MM-DD.

    `date.fromisoformat` also takes forms such as 20200106 and 2020-W02-2
    from Python 3.11 on; those are rejected here on every Python, so an
    input parses the same everywhere.
    """
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


@dataclass(frozen=True)
class Bar:
    """One day of OHLCV data. Prices strictly positive, volume non-negative."""

    date: date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float

    def __post_init__(self) -> None:
        for name in ("open", "high", "low", "close", "adj_close"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise DataError(f"{self.date}: non-positive price {name}={value}")
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise DataError(f"{self.date}: OHLC ordering violated")
        if not math.isfinite(self.volume) or self.volume < 0:
            raise DataError(f"{self.date}: negative volume {self.volume}")


@dataclass(frozen=True)
class BarSeries:
    """Ordered daily bars for one symbol, dates strictly increasing."""

    symbol: str
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bars", tuple(self.bars))
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise DataError(
                    f"dates not strictly increasing: {prev.date} then {cur.date}"
                )

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def dates(self) -> tuple[date, ...]:
        return tuple(b.date for b in self.bars)

    def field_values(self, field: str = "close") -> np.ndarray:
        if field not in ("open", "high", "low", "close", "adj_close", "volume"):
            raise ValueError(f"unknown bar field {field!r}")
        return np.array([getattr(b, field) for b in self.bars], dtype=float)

    def closes(self) -> np.ndarray:
        return self.field_values("close")

    def volumes(self) -> np.ndarray:
        return self.field_values("volume")

    def slice_dates(self, start: date, end: date) -> "BarSeries":
        """Bars with start <= date <= end, preserving order."""
        kept = tuple(b for b in self.bars if start <= b.date <= end)
        return BarSeries(self.symbol, kept)

    def tail(self, count: int) -> "BarSeries":
        return BarSeries(self.symbol, self.bars[-count:] if count > 0 else ())


@dataclass(frozen=True)
class ReturnSeries:
    """Simple returns, one per consecutive bar pair; dated by the later bar.

    Values from daily_returns are always > -1 because prices are positive.
    Normalized series reuse this container and may touch the interval edges.
    """

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.dates) != self.values.size:
            raise ValueError("dates and values must have equal length")
        if self.values.size and not np.isfinite(self.values).all():
            raise ValueError("return values must be finite")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Normalizer:
    """Min-max scaler fitted on training data only.

    unit_range maps [min_x, max_x] onto [0, 1]; signed_range onto [-1, 1].
    Out-of-sample values are clamped to the target interval.
    """

    min_x: float
    max_x: float
    mode: NormalizationMode = "signed_range"

    def __post_init__(self) -> None:
        if self.mode not in ("unit_range", "signed_range"):
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        if not (self.min_x < self.max_x):
            raise ValueError("degenerate range: min_x must be strictly below max_x")

    def transform(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        unit = (np.asarray(values, dtype=float) - self.min_x) / (self.max_x - self.min_x)
        if self.mode == "unit_range":
            return np.clip(unit, 0.0, 1.0)
        return np.clip(2.0 * unit - 1.0, -1.0, 1.0)


def load_csv(path: str | Path, symbol: str | None = None) -> BarSeries:
    """Parse a daily price CSV into a validated BarSeries.

    Expected header: Date,Open,High,Low,Close,Adj Close,Volume with ISO dates.
    The Adj Close column may be absent, in which case close is reused.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    header = tuple(cell.strip() for cell in header)
    if header == CSV_COLUMNS:
        has_adj = True
    elif header == CSV_COLUMNS_NO_ADJ:
        has_adj = False
    else:
        raise DataError(f"{path}: unexpected header {','.join(header)!r}")
    bars: list[Bar] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            day = parse_date(row[0].strip())
            o, h, l, c = (float(row[i]) for i in range(1, 5))
            adj = float(row[5]) if has_adj else c
            vol = float(row[6] if has_adj else row[5])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        bars.append(Bar(day, o, h, l, c, adj, vol))
    if not bars:
        raise DataError(f"{path}: no data rows")
    return BarSeries(symbol or path.stem, tuple(bars))


def write_csv(bars: BarSeries, path: str | Path) -> None:
    """Write bars in the same CSV layout load_csv accepts, round-trip exact."""
    lines = [",".join(CSV_COLUMNS)]
    for b in bars:
        fields = (b.open, b.high, b.low, b.close, b.adj_close, b.volume)
        lines.append(b.date.isoformat() + "," + ",".join(repr(float(v)) for v in fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def daily_returns(bars: BarSeries, field: str = "close") -> ReturnSeries:
    """Simple returns (p_t - p_{t-1}) / p_{t-1} over consecutive bars."""
    if len(bars) < 2:
        raise ValueError("need at least 2 bars to compute returns")
    prices = bars.field_values(field)
    values = (prices[1:] - prices[:-1]) / prices[:-1]
    return ReturnSeries(bars.dates()[1:], values)


def fit_normalizer(returns: ReturnSeries, mode: NormalizationMode = "signed_range") -> Normalizer:
    """Capture min and max of the series. Fit on training-period data only."""
    if len(returns) == 0:
        raise ValueError("cannot fit a normalizer on an empty series")
    lo = float(returns.values.min())
    hi = float(returns.values.max())
    if lo == hi:
        raise ValueError("zero range: all values equal, cannot normalize")
    return Normalizer(lo, hi, mode)


def apply_normalizer(norm: Normalizer, returns: ReturnSeries) -> ReturnSeries:
    """Rescale onto the normalizer's target interval, clamping outliers."""
    return ReturnSeries(returns.dates, norm.transform(returns.values))


def sma(closes: Sequence[float] | np.ndarray, period: int) -> np.ndarray:
    """Simple moving average; output[i] = mean(closes[i : i + period])."""
    values = np.asarray(closes, dtype=float)
    if period < 1:
        raise ValueError("period must be >= 1")
    if period > values.size:
        raise ValueError(f"period {period} exceeds series length {values.size}")
    windows = np.lib.stride_tricks.sliding_window_view(values, period)
    return windows.mean(axis=1)


def _rsi_point(avg_gain: float, avg_loss: float) -> float:
    if avg_gain == 0.0 and avg_loss == 0.0:
        return 50.0  # flat market convention
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def rsi(closes: Sequence[float] | np.ndarray, period: int = 14) -> np.ndarray:
    """Relative strength index in [0, 100] with Wilder smoothing.

    Needs period + 1 closes per output point; output length is
    len(closes) - period.
    """
    values = np.asarray(closes, dtype=float)
    if period < 1:
        raise ValueError("period must be >= 1")
    if values.size < period + 1:
        raise ValueError(f"need at least {period + 1} closes, got {values.size}")
    deltas = np.diff(values)
    gains = np.where(deltas > 0, deltas, 0.0)
    losses = np.where(deltas < 0, -deltas, 0.0)
    out = np.empty(deltas.size - period + 1)
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    out[0] = _rsi_point(avg_gain, avg_loss)
    for i in range(period, deltas.size):
        avg_gain = (avg_gain * (period - 1) + gains[i]) / period
        avg_loss = (avg_loss * (period - 1) + losses[i]) / period
        out[i - period + 1] = _rsi_point(avg_gain, avg_loss)
    return out


def build_observations(
    normalized: ReturnSeries | np.ndarray,
    indicators: np.ndarray | Sequence[float] | None = None,
    n: int = 10,
) -> np.ndarray:
    """Sliding windows of the last n normalized returns, oldest first.

    Row k describes time index n - 1 + k. Optional indicator columns must be
    aligned one-to-one with the return series; their values are appended to
    each window row. Every emitted entry must be finite.
    """
    values = normalized.values if isinstance(normalized, ReturnSeries) else np.asarray(
        normalized, dtype=float
    )
    if n < 1:
        raise ValueError("window length n must be >= 1")
    if values.size < n:
        raise ValueError(f"window length {n} exceeds {values.size} available returns")
    windows = np.lib.stride_tricks.sliding_window_view(values, n).copy()
    if indicators is None:
        obs = windows
    else:
        columns = np.asarray(indicators, dtype=float)
        if columns.ndim == 1:
            columns = columns[:, None]
        if columns.shape[0] != values.size:
            raise ValueError("indicator series misaligned with return dates")
        obs = np.hstack([windows, columns[n - 1 :, :]])
    if not np.isfinite(obs).all():
        raise ValueError("observations contain non-finite entries")
    return obs


def _weekday_grid(start: date, length: int) -> tuple[date, ...]:
    out: list[date] = []
    day = start
    while len(out) < length:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return tuple(out)


def generate_synthetic(
    kind: str,
    *,
    length: int,
    seed: int = 0,
    start: date = date(2020, 1, 6),
    symbol: str = "SYNTH",
    base: float = 100.0,
    amplitude: float = 10.0,
    period_days: float = 10.0,
    drift: float = 0.0,
    volatility: float = 0.0,
    volume: float = 1_000_000.0,
) -> BarSeries:
    """Deterministic synthetic daily series on a weekday date grid.

    sinusoid: close[t] = base + amplitude * sin(2*pi*t / period_days)
    trend:    close[t] = base * (1 + drift) ** t
    gbm:      geometric Brownian motion path seeded by `seed`
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; valid: {', '.join(SYNTHETIC_KINDS)}")
    if length < 2:
        raise ValueError("length must be >= 2")
    if base <= 0:
        raise ValueError("base price must be positive")
    if volume < 0:
        raise ValueError("volume must be non-negative")
    t = np.arange(length, dtype=float)
    if kind == "sinusoid":
        if not 0 < amplitude < base:
            raise ValueError("amplitude must be positive and below base")
        if period_days <= 0:
            raise ValueError("period_days must be positive")
        closes = base + amplitude * np.sin(2.0 * np.pi * t / period_days)
    elif kind == "trend":
        if drift <= -1:
            raise ValueError("drift must be > -1")
        closes = base * np.power(1.0 + drift, t)
    else:  # gbm
        if volatility < 0:
            raise ValueError("volatility must be non-negative")
        rng = np.random.default_rng(seed)
        dt = 1.0 / 252.0
        steps = (drift - 0.5 * volatility**2) * dt + volatility * math.sqrt(dt) * rng.standard_normal(
            length - 1
        )
        closes = base * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    bars = tuple(
        Bar(day, c, c, c, c, c, volume)
        for day, c in zip(_weekday_grid(start, length), (float(v) for v in closes))
    )
    return BarSeries(symbol, bars)
