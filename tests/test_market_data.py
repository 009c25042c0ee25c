import csv
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantrl import market_data
from quantrl.market_data import (
    CSV_COLUMNS,
    CSV_COLUMNS_NO_ADJ,
    Bar,
    BarSeries,
    DataError,
    Normalizer,
    ReturnSeries,
    apply_normalizer,
    build_observations,
    daily_returns,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    parse_date,
    rsi,
    sma,
    write_csv,
)

from conftest import make_series


def returns_of(values, start=date(2020, 1, 2)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


class TestBarValidation:
    def test_valid_bar(self):
        bar = Bar(date(2020, 1, 1), 10.0, 11.0, 9.0, 10.5, 10.5, 1000.0)
        assert bar.close == 10.5

    def test_non_positive_price(self):
        with pytest.raises(DataError, match="non-positive price"):
            Bar(date(2020, 1, 1), 10.0, 11.0, 9.0, -5.0, 10.0, 1000.0)

    def test_zero_price(self):
        with pytest.raises(DataError, match="non-positive price"):
            Bar(date(2020, 1, 1), 0.0, 11.0, 9.0, 10.0, 10.0, 1000.0)

    def test_ohlc_ordering(self):
        with pytest.raises(DataError, match="OHLC ordering"):
            Bar(date(2020, 1, 1), 12.0, 11.0, 9.0, 10.0, 10.0, 1000.0)
        with pytest.raises(DataError, match="OHLC ordering"):
            Bar(date(2020, 1, 1), 10.0, 11.0, 9.0, 8.0, 10.0, 1000.0)

    def test_negative_volume(self):
        with pytest.raises(DataError, match="negative volume"):
            Bar(date(2020, 1, 1), 10.0, 11.0, 9.0, 10.0, 10.0, -1.0)

    def test_series_rejects_duplicate_dates(self):
        bar = Bar(date(2020, 1, 1), 10.0, 10.0, 10.0, 10.0, 10.0, 0.0)
        with pytest.raises(DataError, match="strictly increasing"):
            BarSeries("X", (bar, bar))

    def test_series_rejects_backwards_dates(self):
        bars = make_series([10.0, 11.0]).bars
        with pytest.raises(DataError, match="strictly increasing"):
            BarSeries("X", (bars[1], bars[0]))


FIELDS = ("open", "high", "low", "close", "adj_close", "volume")


def columns(series):
    """A series' dates and its six value columns as one byte string."""
    return series.dates(), np.column_stack([series.field_values(f) for f in FIELDS]).tobytes()


def series_on(days, symbol="X"):
    """A series with distinct open/high/low/close/adj_close/volume on the given dates."""
    return BarSeries(symbol, [Bar(d, 2.0 + i, 3.0 + i, 1.0 + i, 2.5 + i, 2.4 + i, 10.0 * i)
                              for i, d in enumerate(days)])


DAYS = st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31))


class TestBarSeries:
    def test_bars_are_row_views(self):
        days = [date(2020, 1, 1), date(2020, 1, 3), date(2020, 1, 6)]
        series = series_on(days)
        assert series.bars == tuple(series) == (
            Bar(days[0], 2.0, 3.0, 1.0, 2.5, 2.4, 0.0),
            Bar(days[1], 3.0, 4.0, 2.0, 3.5, 3.4, 10.0),
            Bar(days[2], 4.0, 5.0, 3.0, 4.5, 4.4, 20.0),
        )
        assert series.dates() == tuple(days)
        assert series.closes().tolist() == [2.5, 3.5, 4.5]
        assert series.volumes().tolist() == [0.0, 10.0, 20.0]
        assert series.field_values("adj_close").tolist() == [2.4, 3.4, 4.4]
        with pytest.raises(ValueError, match="unknown bar field"):
            series.field_values("date")

    def test_read_only(self):
        series = series_on([date(2020, 1, 1), date(2020, 1, 2)])
        for name in ("symbol", "bars", "_dates", "_block", "anything"):
            with pytest.raises(AttributeError):
                setattr(series, name, None)
            with pytest.raises(AttributeError):
                delattr(series, name)
        # column reads are copies; the block behind the series and its slices is frozen
        for column in (series.closes(), series.volumes(), series.field_values("open")):
            column[:] = -1.0
        assert series == series_on([date(2020, 1, 1), date(2020, 1, 2)])
        for view in (series, series.tail(1), series.slice_dates(date.min, date.max)):
            with pytest.raises(ValueError, match="read-only"):
                view._block[0, 0] = 99.0

    def test_value_equality(self, tmp_path):
        a = generate_synthetic("gbm", length=30, seed=5, volatility=0.4)
        path = tmp_path / "a.csv"
        write_csv(a, path)
        b = load_csv(path, symbol=a.symbol)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a == BarSeries(a.symbol, a.bars) == BarSeries(a.symbol, iter(a))
        assert a.slice_dates(date.min, date.max) == a == a.tail(30) == a.tail(31)
        assert a != load_csv(path)  # symbol "a"
        assert a != a.tail(29)
        bars = list(a.bars)
        b7 = bars[7]
        bars[7] = Bar(b7.date, b7.open, b7.high, b7.low, b7.close, b7.adj_close, b7.volume + 1.0)
        assert a != BarSeries(a.symbol, bars)
        assert a != a.bars and a != "SYNTH"
        assert BarSeries("SYNTH", ()) == BarSeries("SYNTH", []) == a.slice_dates(date.max, date.min)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(DAYS, max_size=25, unique=True).map(sorted), st.data())
    def test_slice_dates_is_the_date_filter(self, days, data):
        series = series_on(days)
        near = [d + timedelta(days=k) for d in days for k in (-1, 0, 1)]
        bound = st.one_of(st.sampled_from(near), DAYS) if near else DAYS
        start, end = data.draw(bound), data.draw(bound)
        kept = [b for b in series.bars if start <= b.date <= end]
        sliced = series.slice_dates(start, end)
        assert sliced == BarSeries("X", kept)
        assert columns(sliced) == columns(BarSeries("X", kept))
        count = data.draw(st.integers(-2, len(days) + 2))
        assert series.tail(count) == BarSeries("X", series.bars[-count:] if count > 0 else ())


class TestLoadCsv:
    HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"

    def write(self, tmp_path, rows, header=None):
        path = tmp_path / "prices.csv"
        path.write_text("\n".join([header or self.HEADER, *rows]) + "\n")
        return path

    def test_three_well_formed_rows(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                "2020-01-01,10,11,9,10.5,10.4,1000",
                "2020-01-02,10.5,12,10,11.5,11.4,1100",
                "2020-01-03,11.5,12,11,12.0,11.9,900",
            ],
        )
        bars = load_csv(path)
        assert len(bars) == 3
        assert bars.symbol == "prices"
        assert bars.bars[1].close == 11.5
        assert bars.bars[2].adj_close == 11.9
        assert bars.bars[0].volume == 1000.0

    def test_non_monotonic_dates(self, tmp_path):
        path = self.write(
            tmp_path,
            ["2020-01-02,10,11,9,10.5,10.4,1000", "2020-01-01,10,11,9,10.5,10.4,1000"],
        )
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(path)

    def test_negative_close(self, tmp_path):
        path = self.write(tmp_path, ["2020-01-01,10,11,9,-5,10.4,1000"])
        with pytest.raises(DataError, match="non-positive price"):
            load_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, ["2020-01-01,10,11,9,10.5,10.4"])
        with pytest.raises(DataError, match="expected 7 fields"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["20200106", "2020-W02-2", "2020-1-06", "2020-01-06T00:00"])
    def test_dates_are_yyyy_mm_dd(self, tmp_path, text):
        # forms some Python versions' date.fromisoformat accept are rejected on all
        rows = ["2020-01-03,10,11,9,10.5,10.4,1000", f"{text},10,11,9,10.5,10.4,1000"]
        path = self.write(tmp_path, rows)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: Invalid isoformat string: {text!r}"

    def test_unparsable_number(self, tmp_path):
        path = self.write(tmp_path, ["2020-01-01,10,11,9,oops,10.4,1000"])
        with pytest.raises(DataError, match="line|oops|could not convert"):
            load_csv(path)

    def test_cell_past_csv_field_limit(self, tmp_path):
        # float() takes the padded volume, but csv.reader refuses the cell, as it always has
        path = self.write(tmp_path, ["2020-01-01,10,11,9,10.5,10.4,1000" + " " * csv.field_size_limit()])
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_csv(path)

    def test_unknown_header(self, tmp_path):
        path = self.write(tmp_path, ["2020-01-01,10,1000"], header="Date,Price,Volume")
        with pytest.raises(DataError, match="unexpected header"):
            load_csv(path)

    def test_missing_adj_close_falls_back_to_close(self, tmp_path):
        path = self.write(
            tmp_path,
            ["2020-01-01,10,11,9,10.5,1000", "2020-01-02,10,11,9,10.6,1000"],
            header="Date,Open,High,Low,Close,Volume",
        )
        bars = load_csv(path)
        assert bars.bars[0].adj_close == bars.bars[0].close == 10.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(path)

    def test_round_trip_write_read(self, tmp_path):
        bars = generate_synthetic("gbm", length=30, seed=5, volatility=0.4, drift=0.1)
        path = tmp_path / "rt.csv"
        write_csv(bars, path)
        again = load_csv(path, symbol=bars.symbol)
        assert np.array_equal(again.closes(), bars.closes())
        assert again.dates() == bars.dates()


VALID_CSV_ROWS = (
    ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"],
    ["2020-01-01", "10", "11", "9", "10.5", "10.4", "1000"],
    ["2020-01-02", "10.5", "12", "10", "11.5", "11.4", "1100"],
    ["2020-01-03", "11.5", "12", "11", "12.0", "11.9", "900"],
)

BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "-0.0", "1e309", "", " ", "1,5", "1e-400")


@st.composite
def mutated_csv(draw):
    """A valid price CSV with a few data fields, dates or bytes broken."""
    rows = [list(row) for row in VALID_CSV_ROWS]
    index = st.integers(0, 1_000)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete_field", "set_field", "swap_dates", "swap_high_low"]))
        row = rows[1 + draw(index) % 3]
        if kind == "delete_field" and row:
            del row[draw(index) % len(row)]
        elif kind == "set_field" and row:
            text = draw(st.one_of(st.sampled_from(BAD_NUMBERS), st.text(max_size=6)))
            row[draw(index) % len(row)] = text
        elif kind == "swap_dates":
            other = rows[1 + draw(index) % 3]
            if row and other:
                row[0], other[0] = other[0], row[0]
        elif kind == "swap_high_low" and len(row) > 3:
            row[2], row[3] = row[3], row[2]
    data = ("\n".join(",".join(row) for row in rows) + "\n").encode("utf-8")
    for _ in range(draw(st.integers(0, 1))):
        junk = draw(st.one_of(st.just(b"\x00"), st.just(b"\xff"), st.binary(min_size=1, max_size=3)))
        at = draw(index) % (len(data) + 1)
        data = data[:at] + junk + data[at:]
    return data


@st.composite
def price_csv(draw):
    """A CSV of up to 40 rows drawn as valid OHLCV, then possibly broken in a few places."""
    has_adj = draw(st.booleans())
    days = sorted(draw(st.lists(DAYS, min_size=1, max_size=40, unique=True)))
    price = st.floats(1e-6, 1e9)
    number = st.one_of(price.map(repr), price.map("{:.2f}".format), st.integers(1, 10**6).map(str))
    rows = []
    for day in days:
        low, high = sorted(draw(st.tuples(price, price)))
        o, c = (low + draw(st.floats(0.0, 1.0)) * (high - low) for _ in range(2))
        cells = [day.isoformat(), repr(o), repr(high), repr(low), repr(c)]
        cells += [draw(number)] if has_adj else []
        rows.append(cells + [draw(st.one_of(number, st.just("0")))])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["bad_number"] * 3 + ["shuffle_ohlc"] * 2 + ["set_field", "swap_dates", "delete_field"]))
        if kind == "bad_number":
            bad = st.one_of(st.sampled_from(BAD_NUMBERS), st.floats(max_value=0.0).map(repr))
            row[draw(st.integers(1, len(row) - 1))] = draw(bad)
        elif kind == "set_field":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.text(max_size=6))
        elif kind == "shuffle_ohlc":
            row[1:5] = draw(st.permutations(row[1:5]))
        elif kind == "swap_dates":
            other = draw(st.sampled_from(rows))
            row[0], other[0] = other[0], row[0]
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    header = CSV_COLUMNS if has_adj else CSV_COLUMNS_NO_ADJ
    return ("\n".join(",".join(cells) for cells in [list(header), *rows]) + "\n").encode("utf-8")


@st.composite
def blocked_csv(draw):
    """A price_csv with blank and whitespace-only lines and quoted cells, some spanning two
    lines, and at times an invalid OHLC row well ahead of an unparsable one."""
    header, *rows = draw(price_csv()).decode("utf-8").split("\n")[:-1]
    if len(rows) >= 7 and draw(st.booleans()):
        early = draw(st.integers(0, len(rows) - 7))
        late = draw(st.integers(early + 6, len(rows) - 1))
        for i, column, text in ((early, 2, "1e-9"), (late, 4, "oops")):  # high below low
            cells = rows[i].split(",")
            cells[min(column, len(cells) - 1)] = text
            rows[i] = ",".join(cells)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["blank", "spaces", "quoted", "quoted_newline"]))
        if kind in ("blank", "spaces"):
            rows.insert(i, "" if kind == "blank" else draw(st.sampled_from([" ", "\t", "  "])))
        elif i < len(rows):
            cells = rows[i].split(",")
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = f'"{cells[j]}\n"' if kind == "quoted_newline" else f'"{cells[j]}"'
            rows[i] = ",".join(cells)
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def reference_load_csv(path):
    """load_csv as a per-row loop that builds one Bar per row: columns or the error text."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text: {exc}"
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return f"{path}: empty file, expected a header row"
    header = tuple(cell.strip() for cell in header)
    if header not in (CSV_COLUMNS, CSV_COLUMNS_NO_ADJ):
        return f"{path}: unexpected header {','.join(header)!r}"
    has_adj = header == CSV_COLUMNS
    bars = []
    start = reader.line_num + 1  # the physical line the next record starts on
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != len(header):
            return f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
        try:
            day = parse_date(row[0].strip())
            o, h, l, c = (float(row[i]) for i in range(1, 5))
            adj = float(row[5]) if has_adj else c
            vol = float(row[6] if has_adj else row[5])
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        try:
            bars.append(Bar(day, o, h, l, c, adj, vol))
        except DataError as exc:
            return str(exc)
    if not bars:
        return f"{path}: no data rows"
    for prev, cur in zip(bars, bars[1:]):
        if cur.date <= prev.date:
            return f"dates not strictly increasing: {prev.date} then {cur.date}"
    rows = [[getattr(b, f) for f in FIELDS] for b in bars]
    return tuple(b.date for b in bars), np.array(rows, dtype=float).tobytes()


class TestLoadCsvProperties:
    @settings(max_examples=300, deadline=None)
    @given(mutated_csv())
    def test_loads_or_raises_data_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        path.write_bytes(data)
        try:
            bars = load_csv(path)
        except DataError:
            return
        assert len(bars) >= 1

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(price_csv(), mutated_csv(), blocked_csv()),
           st.sampled_from([2, 3, 4, 5, market_data._BLOCK_LINES]))
    def test_matches_per_row_reference(self, tmp_path_factory, data, block_lines):
        # the columnar loader gives the same bars, or the same first error, as
        # parsing and validating one row at a time; with blocks of a few lines a
        # file mixes blocks parsed as columns with blocks read row by row, and
        # an error can sit in any block
        path = tmp_path_factory.getbasetemp() / "reference.csv"
        path.write_bytes(data)
        with mock.patch.object(market_data, "_BLOCK_LINES", block_lines):
            try:
                got = columns(load_csv(path))
            except DataError as exc:
                got = str(exc)
        assert got == reference_load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("2020-01-02,10,11,9,10.5,10.4,-1", "2020-01-02: negative volume -1.0"),
        ("2020-01-02,10,11,9,10.5,10.4,nan", "2020-01-02: non-finite volume nan"),
        ("2020-01-02,10,11,9,11.5,10.4,1000", "2020-01-02: OHLC ordering violated"),
        ("2020-01-02,10,11,9,8.5,10.4,1000", "2020-01-02: OHLC ordering violated"),
        ("2020-01-02,12,11,9,10.5,10.4,1000", "2020-01-02: OHLC ordering violated"),
        ("2020-01-02,8,11,9,10.5,10.4,1000", "2020-01-02: OHLC ordering violated"),
        ("2020-01-02,10,11,9,10.5,0,1000", "2020-01-02: non-positive price adj_close=0.0"),
        ("2020-01-02,10,inf,9,10.5,10.4,1000", "2020-01-02: non-finite price high=inf"),
        ("2020-01-02,-10,11,9,10.5,-1,1000", "2020-01-02: non-positive price open=-10.0"),
    ])
    def test_each_row_check_reports_bar_message(self, tmp_path, row, message):
        path = tmp_path / "prices.csv"
        path.write_text("Date,Open,High,Low,Close,Adj Close,Volume\n2020-01-01,10,11,9,10.5,10.4,0\n"
                        f"{row}\n2020-01-03,10,11,9,10.5,10.4,-5\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == message

    def test_earlier_validation_error_beats_later_parse_error(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Adj Close,Volume\n"
            "2020-01-01,10,11,9,10.5,10.4,1000\n"
            "2020-01-02,10,9,11,10.5,10.4,1000\n"  # High < Low
            "2020-01-03,10,11,9,oops,10.4,1000\n"
            "2020-01-03,10,11,9,10.5,10.4,1000\n"  # repeated date
        )
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == "2020-01-02: OHLC ordering violated"
        path.write_text(path.read_text().replace("10,9,11", "10,11,9"))
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:4: could not convert string to float: 'oops'"
        path.write_text(path.read_text().replace("oops", "10.5"))
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == "dates not strictly increasing: 2020-01-03 then 2020-01-03"

    def test_error_names_the_physical_line_after_a_multiline_cell(self, tmp_path):
        # the first row's Adj Close cell spans lines 2 and 3
        path = tmp_path / "prices.csv"
        path.write_text(
            "Date,Open,High,Low,Close,Adj Close,Volume\n"
            '2020-01-01,10,11,9,10.5,"1\n",5\n'
            "2020-01-02,10,11,9,10.5,10.4,1000\n"
            "2020-01-03,10,11,9,oops,10.4,1000\n"
        )
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:5: could not convert string to float: 'oops'"

    @settings(max_examples=100, deadline=None)
    @given(price_csv())
    def test_write_csv_bytes_match_per_bar_formatting(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "written.csv"
        path.write_bytes(data)
        try:
            series = load_csv(path)
        except DataError:
            return
        write_csv(series, path)
        lines = [",".join(CSV_COLUMNS)] + [
            b.date.isoformat() + "," + ",".join(repr(float(getattr(b, f))) for f in FIELDS)
            for b in series.bars
        ]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert load_csv(path, symbol=series.symbol) == series


class TestParseDate:
    @given(st.dates())
    def test_iso_form_round_trips(self, day):
        assert parse_date(day.isoformat()) == day

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789-WT:Z+ ", max_size=12))
    def test_only_the_iso_form_parses(self, text):
        try:
            day = parse_date(text)
        except ValueError:
            return
        assert day.isoformat() == text


# id -> (call, message) of each refusal of a value that code, not a file, passes in
REFUSALS = {
    "return-series-length": (lambda: ReturnSeries((date(2020, 1, 2),), np.array([0.1, 0.2])),
                             "dates and values must have equal length"),
    "return-series-non-finite": (lambda: returns_of([0.1, np.nan]), "return values must be finite"),
    "normalizer-degenerate-range": (lambda: Normalizer(0.1, 0.1),
                                    "degenerate range: min_x must be strictly below max_x"),
    "rsi-period": (lambda: rsi([1.0, 2.0, 3.0], 0), "period must be >= 1"),
    "observation-window": (lambda: build_observations(returns_of([0.1, 0.2]), None, 0),
                           "window length n must be >= 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_a_value_error_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


class TestDailyReturns:
    def test_simple_gain(self):
        rets = daily_returns(make_series([100.0, 110.0]))
        assert rets.values.tolist() == [0.10]

    def test_constant_closes(self):
        rets = daily_returns(make_series([50.0, 50.0, 50.0]))
        assert rets.values.tolist() == [0.0, 0.0]

    def test_loss(self):
        rets = daily_returns(make_series([100.0, 50.0]))
        assert rets.values.tolist() == [-0.50]

    def test_dates_are_later_of_each_pair(self):
        series = make_series([1.0, 2.0, 3.0])
        rets = daily_returns(series)
        assert rets.dates == series.dates()[1:]

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2 bars"):
            daily_returns(make_series([100.0]))

    def test_adj_close_field(self):
        bars = BarSeries(
            "X",
            (
                Bar(date(2020, 1, 1), 10, 10, 10, 10, 20.0, 0),
                Bar(date(2020, 1, 2), 10, 10, 10, 10, 30.0, 0),
            ),
        )
        assert daily_returns(bars, field="adj_close").values.tolist() == [0.5]
        assert daily_returns(bars, field="close").values.tolist() == [0.0]

    def test_compounding_round_trip(self):
        # independent oracle: compounding all returns recovers the price ratio
        rng = np.random.default_rng(7)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=120)))
        series = make_series(closes)
        rets = daily_returns(series)
        compounded = np.prod(1.0 + rets.values) - 1.0
        direct = closes[-1] / closes[0] - 1.0
        assert compounded == pytest.approx(direct, rel=1e-12)


class TestNormalizer:
    def test_fit_captures_extrema(self):
        norm = fit_normalizer(returns_of([-0.02, 0.01, 0.03]))
        assert norm.min_x == -0.02
        assert norm.max_x == 0.03

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="zero range"):
            fit_normalizer(returns_of([0.05, 0.05, 0.05]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer(returns_of([]))

    def test_tiny_range_is_valid(self):
        norm = fit_normalizer(returns_of([-1e-9, 1e-9]))
        assert norm.min_x < norm.max_x

    def test_signed_range_boundaries_exact(self):
        norm = fit_normalizer(returns_of([-0.1, 0.02, 0.1]), mode="signed_range")
        out = apply_normalizer(norm, returns_of([-0.1, 0.0, 0.1]))
        assert out.values[0] == -1.0
        assert out.values[1] == 0.0  # midpoint of a symmetric range
        assert out.values[2] == 1.0

    def test_unit_range_boundaries_exact(self):
        norm = fit_normalizer(returns_of([-0.1, 0.1]), mode="unit_range")
        out = apply_normalizer(norm, returns_of([-0.1, 0.1]))
        assert out.values.tolist() == [0.0, 1.0]

    def test_out_of_sample_clamped(self):
        norm = fit_normalizer(returns_of([-0.1, 0.1]), mode="signed_range")
        out = apply_normalizer(norm, returns_of([-0.5, 0.5]))
        assert out.values.tolist() == [-1.0, 1.0]
        unit = fit_normalizer(returns_of([-0.1, 0.1]), mode="unit_range")
        clamped = apply_normalizer(unit, returns_of([-0.5, 0.5]))
        assert clamped.values.tolist() == [0.0, 1.0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            fit_normalizer(returns_of([-0.1, 0.1]), mode="zscore")


class TestSma:
    def test_basic(self):
        assert sma([1.0, 2.0, 3.0], 2).tolist() == [1.5, 2.5]

    def test_period_one_is_identity(self):
        values = [4.0, 7.0, 1.0]
        assert sma(values, 1).tolist() == values

    def test_period_exceeds_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            sma([1.0, 2.0], 3)

    def test_period_zero(self):
        with pytest.raises(ValueError, match=">= 1"):
            sma([1.0, 2.0], 0)

    def test_length_and_bounds_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            closes = rng.uniform(5.0, 500.0, size=n)
            period = int(rng.integers(1, n + 1))
            out = sma(closes, period)
            assert out.size == n - period + 1
            assert out.min() >= closes.min()
            assert out.max() <= closes.max()


class TestRsi:
    def test_all_gains(self):
        out = rsi(np.arange(1.0, 22.0), 14)
        assert np.all(out == 100.0)

    def test_all_losses(self):
        out = rsi(np.arange(22.0, 1.0, -1.0), 14)
        assert np.all(out == 0.0)

    def test_flat_convention(self):
        out = rsi(np.full(20, 50.0), 14)
        assert np.all(out == 50.0)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="at least"):
            rsi([1.0, 2.0, 3.0], 14)

    def test_output_length(self):
        assert rsi(np.arange(1.0, 31.0), 14).size == 30 - 14

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.data())
    def test_equals_reference_wilder_loop(self, period, data):
        closes = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=period + 1, max_size=period + 60))
        values = np.asarray(closes)
        deltas = np.diff(values)
        gains = np.where(deltas > 0, deltas, 0.0)
        losses = np.where(deltas < 0, -deltas, 0.0)

        def point(g, l):
            return 50.0 if g == 0.0 and l == 0.0 else 100.0 if l == 0.0 else 100.0 - 100.0 / (1.0 + g / l)

        expected = np.empty(deltas.size - period + 1)
        avg_gain, avg_loss = float(gains[:period].mean()), float(losses[:period].mean())
        expected[0] = point(avg_gain, avg_loss)
        for i in range(period, deltas.size):
            avg_gain = (avg_gain * (period - 1) + gains[i]) / period
            avg_loss = (avg_loss * (period - 1) + losses[i]) / period
            expected[i - period + 1] = point(avg_gain, avg_loss)
        out = rsi(closes, period)
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes()

    def test_range_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(16, 80))
            closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
            out = rsi(closes, 14)
            assert np.all(out >= 0.0) and np.all(out <= 100.0)


class TestBuildObservations:
    def test_count_arithmetic(self):
        obs = build_observations(returns_of(np.linspace(-0.1, 0.1, 12)), None, 10)
        assert obs.shape == (3, 10)

    def test_window_equals_length(self):
        obs = build_observations(returns_of([0.1, 0.2, 0.3]), None, 3)
        assert obs.shape == (1, 3)
        assert obs[0].tolist() == [0.1, 0.2, 0.3]  # oldest first

    def test_window_exceeds_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_observations(returns_of([0.1, 0.2, 0.3]), None, 4)

    def test_rows_are_consecutive_windows(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        obs = build_observations(values, None, 2)
        assert obs.tolist() == [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4]]

    def test_indicator_columns_appended(self):
        values = np.array([0.1, 0.2, 0.3])
        indicators = np.array([[7.0, 70.0], [8.0, 80.0], [9.0, 90.0]])
        obs = build_observations(values, indicators, 2)
        assert obs.tolist() == [[0.1, 0.2, 8.0, 80.0], [0.2, 0.3, 9.0, 90.0]]

    def test_misaligned_indicators_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            build_observations(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0]), 2)

    def test_non_finite_output_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_observations(
                np.array([0.1, 0.2, 0.3]), np.array([1.0, np.nan, 2.0]), 2
            )

    def test_no_lookahead(self):
        values = np.linspace(-0.05, 0.05, 15)
        before = build_observations(values.copy(), None, 5)
        mutated = values.copy()
        mutated[10:] = 99.0  # corrupt the future
        after = build_observations(mutated, None, 5)
        # observations ending before the mutation are unchanged
        assert np.array_equal(before[:6], after[:6])


class TestGenerateSynthetic:
    def test_sinusoid_closed_form(self):
        bars = generate_synthetic("sinusoid", length=24, base=100.0, amplitude=10.0, period_days=12.0)
        closes = bars.closes()
        assert closes[0] == 100.0
        assert closes[3] == 110.0  # quarter period, sin = 1
        assert closes.max() <= 110.0 and closes.min() >= 90.0

    def test_gbm_degenerate_constant(self):
        bars = generate_synthetic("gbm", length=10, seed=1, drift=0.0, volatility=0.0)
        assert np.all(bars.closes() == 100.0)

    def test_same_seed_identical(self):
        a = generate_synthetic("gbm", length=50, seed=9, drift=0.05, volatility=0.3)
        b = generate_synthetic("gbm", length=50, seed=9, drift=0.05, volatility=0.3)
        assert np.array_equal(a.closes(), b.closes())

    def test_different_seed_differs(self):
        a = generate_synthetic("gbm", length=50, seed=9, volatility=0.3)
        b = generate_synthetic("gbm", length=50, seed=10, volatility=0.3)
        assert not np.array_equal(a.closes(), b.closes())

    def test_trend_geometric(self):
        bars = generate_synthetic("trend", length=5, base=100.0, drift=0.01)
        assert bars.closes()[4] == pytest.approx(100.0 * 1.01**4, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_synthetic("sinusoid", length=10, amplitude=-1.0)
        with pytest.raises(ValueError):
            generate_synthetic("sinusoid", length=10, amplitude=200.0, base=100.0)
        with pytest.raises(ValueError):
            generate_synthetic("gbm", length=1)
        with pytest.raises(ValueError) as info:
            generate_synthetic("squarewave", length=10)
        message = "kind: unknown synthetic kind 'squarewave'; valid kinds: sinusoid, trend, gbm"
        assert str(info.value) == message
        # a seed is an int >= 0 for every kind; None would draw a fresh series on each call
        for kind in ("gbm", "sinusoid"):
            for seed, message in ((None, "seed: expected int, got None"), (-1, "seed must be >= 0, got -1")):
                with pytest.raises(ValueError) as info:
                    generate_synthetic(kind, length=5, seed=seed, volatility=0.2)
                assert str(info.value) == message

    def test_unrepresentable_prices_rejected(self):
        # (1 + drift) ** t overflows to inf; the row is rejected as any bar with it would be
        with np.errstate(over="ignore"), pytest.raises(DataError) as info:
            generate_synthetic("trend", length=400, drift=10.0)
        assert str(info.value) == "2021-02-22: non-finite price open=inf"
        # a non-finite setting is refused by the spec, before any bar is built
        with pytest.raises(ValueError) as info:
            generate_synthetic("sinusoid", length=5, volume=float("nan"))
        assert str(info.value) == "volume: expected a finite number, got nan"

    def test_weekday_grid(self):
        bars = generate_synthetic("trend", length=10, drift=0.01)
        for bar in bars:
            assert bar.date.weekday() < 5
        dates = bars.dates()
        assert all(b > a for a, b in zip(dates, dates[1:]))

    def test_flat_ohlc_and_volume(self):
        bars = generate_synthetic("sinusoid", length=5, volume=5000.0)
        for bar in bars:
            assert bar.open == bar.high == bar.low == bar.close == bar.adj_close
            assert bar.volume == 5000.0
