"""Daily OHLCV ingestion, return and feature transforms, synthetic fixtures.

All functions here are pure: same inputs (and seed, for the synthetic
generator) always produce the same outputs.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from datetime import date, timedelta
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Literal, Sequence, get_args

import numpy as np

CSV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")
CSV_COLUMNS_NO_ADJ = ("Date", "Open", "High", "Low", "Close", "Volume")

SYNTHETIC_KINDS = ("sinusoid", "trend", "gbm")

NormalizationMode = Literal["unit_range", "signed_range"]
NORMALIZATION_MODES = get_args(NormalizationMode)


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


def _as_int(raw: Any) -> int:
    """An int from an int, an integral float or a numeric string; never a bool."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError
    return int(raw)


class _Expected(ValueError):
    """A coercion failure reported as `<field>: expected <args[0]>, got <args[1]!r>`."""


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


def _as_optional_str(raw: Any) -> str | None:
    """A string or null; str() would make any value a string."""
    if raw is None or isinstance(raw, str):
        return raw
    raise _Expected("a string", raw)


# How a raw JSON value becomes a field value, by field annotation; fields
# whose annotation is not listed keep the raw value.
_COERCE: dict[str, Callable[[Any], Any]] = {
    "int": _as_int,
    "float": _as_float,
    "int | None": lambda raw: None if raw is None else _as_int(raw),
    "float | None": lambda raw: None if raw is None else _as_float(raw),
    "str | None": _as_optional_str,
    "bool": _as_bool,
    "date": lambda raw: parse_date(str(raw)),
    "tuple[int, ...]": lambda raw: tuple(_as_int(v) for v in _as_list(raw)),
    "tuple[float, ...]": lambda raw: tuple(_as_float(v) for v in _as_list(raw)),
}


def coerce_fields(obj: Any) -> None:
    """Replace each field of dataclass `obj` with its value coerced by its annotation.

    The config types call this first in `__post_init__`, so parsing, construction
    and `replace` coerce alike. A failure is a ValueError `<field>: expected <type>,
    got <value>`, with a tuple shown as the JSON list it would be parsed from.
    """
    for f in fields(obj):
        if (coerce := _COERCE.get(f.type)) is None:
            continue
        try:
            object.__setattr__(obj, f.name, coerce(value := getattr(obj, f.name)))
        except (TypeError, ValueError, OverflowError) as exc:
            expected, got = exc.args if isinstance(exc, _Expected) else (f.type, value)
            got = list(got) if isinstance(got, tuple) else got
            raise ValueError(f"{f.name}: expected {expected}, got {got!r}") from None


_FIELDS = ("open", "high", "low", "close", "adj_close", "volume")


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
            if not math.isfinite(value):
                raise DataError(f"{self.date}: non-finite price {name}={value}")
            if value <= 0:
                raise DataError(f"{self.date}: non-positive price {name}={value}")
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise DataError(f"{self.date}: OHLC ordering violated")
        if not math.isfinite(self.volume):
            raise DataError(f"{self.date}: non-finite volume {self.volume}")
        if self.volume < 0:
            raise DataError(f"{self.date}: negative volume {self.volume}")


class BarSeries:
    """Ordered daily bars for one symbol, dates strictly increasing.

    Columnar and read-only: a dates tuple and one (n, 6) float64 block in
    _FIELDS order. Iterating, or `.bars`, gives `Bar` row views.
    """

    __slots__ = ("symbol", "_dates", "_block")

    def __new__(cls, symbol: str, bars: Iterable[Bar]) -> "BarSeries":
        bars = tuple(bars)
        dates = tuple(b.date for b in bars)
        _check_increasing(dates)
        rows = [[getattr(b, name) for name in _FIELDS] for b in bars]
        return cls._from_columns(symbol, dates, np.array(rows, dtype=float).reshape(-1, 6))

    @classmethod
    def _from_columns(cls, symbol: str, dates: tuple[date, ...], block: np.ndarray) -> "BarSeries":
        """A series over already validated columns; `block` becomes read-only."""
        series = super().__new__(cls)
        block.flags.writeable = False
        for name, value in (("symbol", symbol), ("_dates", dates), ("_block", block)):
            object.__setattr__(series, name, value)
        return series

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"BarSeries is read-only; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BarSeries):
            return NotImplemented
        same_rows = np.array_equal(self._block, other._block)
        return same_rows and (self.symbol, self._dates) == (other.symbol, other._dates)

    def __hash__(self) -> int:
        return hash((self.symbol, self._dates))

    def __len__(self) -> int:
        return len(self._dates)

    def __iter__(self) -> Iterator[Bar]:
        return (Bar(d, *row) for d, row in zip(self._dates, self._block.tolist()))

    @property
    def bars(self) -> tuple[Bar, ...]:
        return tuple(self)

    def dates(self) -> tuple[date, ...]:
        return self._dates

    def field_values(self, field: str = "close") -> np.ndarray:
        if field not in _FIELDS:
            raise ValueError(f"unknown bar field {field!r}")
        return self._block[:, _FIELDS.index(field)].copy()

    def closes(self) -> np.ndarray:
        return self.field_values("close")

    def volumes(self) -> np.ndarray:
        return self.field_values("volume")

    def slice_dates(self, start: date, end: date) -> "BarSeries":
        """Bars with start <= date <= end, preserving order."""
        kept = slice(bisect_left(self._dates, start), bisect_right(self._dates, end))
        return self._from_columns(self.symbol, self._dates[kept], self._block[kept])

    def tail(self, count: int) -> "BarSeries":
        kept = slice(-count, None) if count > 0 else slice(0)
        return self._from_columns(self.symbol, self._dates[kept], self._block[kept])

    def _after(self, context: "BarSeries") -> "BarSeries":
        """`context` followed by these bars; context must end before they start."""
        if context._dates and context._dates[-1] >= self._dates[0]:
            raise ValueError("context must end strictly before the target window")
        block = np.concatenate([context._block, self._block])
        return self._from_columns(self.symbol, context._dates + self._dates, block)


def _check_increasing(dates: Sequence[date]) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise DataError(f"dates not strictly increasing: {prev} then {cur}")


def _check_rows(dates: Sequence[date], block: np.ndarray) -> None:
    """Raise the DataError `Bar` raises for the first row it rejects, if any."""
    o, h, l, c, _, volume = block.T
    ok = np.isfinite(block).all(axis=1) & (block[:, :5] > 0).all(axis=1) & (volume >= 0)
    ok &= (l <= o) & (o <= h) & (l <= c) & (c <= h)
    for i in np.flatnonzero(~ok):
        Bar(dates[i], *block[i].tolist())


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
        if self.mode not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        if not (self.min_x < self.max_x):
            raise ValueError("degenerate range: min_x must be strictly below max_x")

    def transform(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        unit = (np.asarray(values, dtype=float) - self.min_x) / (self.max_x - self.min_x)
        if self.mode == "unit_range":
            return np.clip(unit, 0.0, 1.0)
        return np.clip(2.0 * unit - 1.0, -1.0, 1.0)


_BLOCK_LINES = 1024


def _parse_block(lines: list[str], width: int) -> tuple[list[date], array]:
    """The dates and row-major values of plain comma-separated lines.

    ValueError unless every non-empty line is `width` unquoted cells within
    csv's field size limit that all convert, so that csv.reader would give
    the same cells.
    """
    rows = list(filter(None, lines))
    text = ",".join(rows)
    if ('"' in text or {*map(str.count, rows, repeat(","))} != {width - 1}
            or max(map(len, rows)) > csv.field_size_limit()):
        raise ValueError("not plain comma-separated rows")
    cells = text.split(",")
    days = list(map(str.strip, cells[::width]))
    if not all(map(_ISO_DATE.fullmatch, days)):
        raise ValueError("not ISO dates")
    dates = list(map(date.fromisoformat, days))
    del cells[::width]
    return dates, array("d", map(float, cells))


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
    source = iter(lines)
    header = next(csv.reader(source), None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    header = tuple(cell.strip() for cell in header)
    if header not in (CSV_COLUMNS, CSV_COLUMNS_NO_ADJ):
        raise DataError(f"{path}: unexpected header {','.join(header)!r}")
    dates: list[date] = []
    values = array("d")  # row-major, one value per column after Date

    def parsed() -> np.ndarray:
        """The (rows, 6) block parsed so far; close stands in for a missing Adj Close."""
        rows = np.frombuffer(values).reshape(-1, len(header) - 1)
        return rows if header == CSV_COLUMNS else np.insert(rows, 4, rows[:, 3], axis=1)

    # Blocks of lines parse as columns. From the first block _parse_block
    # refuses, csv.reader reads the rest of the file row by row, which names
    # the line the first bad row starts on (a quoted cell may span lines);
    # rows are validated as columns after the parse, and the first bad row
    # still wins, a validation error over a later parse error.
    lineno = 2
    while chunk := list(islice(source, _BLOCK_LINES)):
        try:
            days, numbers = _parse_block(chunk, len(header))
        except ValueError:
            source = chain(chunk, source)
            break
        dates += days
        values += numbers
        lineno += len(chunk)
    first = lineno
    for row in (rows := csv.reader(source)):
        if row:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                day = parse_date(row[0].strip())
                numbers = array("d", map(float, row[1:]))
            except ValueError as exc:
                _check_rows(dates, parsed())
                raise DataError(f"{path}:{lineno}: {exc}") from None
            dates.append(day)
            values += numbers
        lineno = first + rows.line_num
    if not dates:
        raise DataError(f"{path}: no data rows")
    block = parsed()
    _check_rows(dates, block)
    _check_increasing(dates)
    return BarSeries._from_columns(symbol or path.stem, tuple(dates), block)


def write_csv(bars: BarSeries, path: str | Path) -> None:
    """Write bars in the same CSV layout load_csv accepts, round-trip exact."""
    lines = [",".join(CSV_COLUMNS)]
    for day, row in zip(bars.dates(), bars._block):
        lines.append(day.isoformat() + "," + ",".join(map(repr, row.tolist())))
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
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    out = [_rsi_point(avg_gain, avg_loss)]
    for gain, loss in zip(gains[period:].tolist(), losses[period:].tolist()):
        avg_gain = (avg_gain * (period - 1) + gain) / period
        avg_loss = (avg_loss * (period - 1) + loss) / period
        out.append(_rsi_point(avg_gain, avg_loss))
    return np.array(out)


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


@dataclass(frozen=True)
class SyntheticSpec:
    """The settings of one synthetic series: `data.synthetic` and `quantrl synth`.

    sinusoid: close[t] = base + amplitude * sin(2*pi*t / period_days)
    trend:    close[t] = base * (1 + drift) ** t
    gbm:      geometric Brownian motion path seeded by `seed`
    """

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

    def __post_init__(self) -> None:
        coerce_fields(self)
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"kind: unknown synthetic kind {self.kind!r}; "
                             f"valid kinds: {', '.join(SYNTHETIC_KINDS)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# An unrepresentable price overflows to inf; the row checks report that, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(kind: str, *, symbol: str = "SYNTH", **settings) -> BarSeries:
    """Deterministic synthetic daily series on a weekday date grid.

    `settings` are SyntheticSpec's other fields; `length` is required.
    """
    spec = SyntheticSpec(kind, **settings)
    if spec.length < 2:
        raise ValueError("length must be >= 2")
    if spec.base <= 0:
        raise ValueError("base price must be positive")
    if spec.volume < 0:
        raise ValueError("volume must be non-negative")
    t = np.arange(spec.length, dtype=float)
    if kind == "sinusoid":
        if not 0 < spec.amplitude < spec.base:
            raise ValueError("amplitude must be positive and below base")
        if spec.period_days <= 0:
            raise ValueError("period_days must be positive")
        closes = spec.base + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period_days)
    elif kind == "trend":
        if spec.drift <= -1:
            raise ValueError("drift must be > -1")
        closes = spec.base * np.power(1.0 + spec.drift, t)
    else:  # gbm
        sigma = spec.volatility
        if sigma < 0:
            raise ValueError("volatility must be non-negative")
        rng = np.random.default_rng(spec.seed)
        dt = 1.0 / 252.0
        steps = (spec.drift - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * rng.standard_normal(
            spec.length - 1
        )
        closes = spec.base * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    dates = _weekday_grid(spec.start, spec.length)
    block = np.column_stack([closes] * 5 + [np.full(spec.length, spec.volume, dtype=float)])
    _check_rows(dates, block)
    return BarSeries._from_columns(symbol, dates, block)
