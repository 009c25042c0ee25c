from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantrl.market_data import (
    Bar,
    BarSeries,
    DataError,
    ReturnSeries,
    apply_normalizer,
    build_observations,
    daily_returns,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    rsi,
    sma,
    write_csv,
)

from conftest import make_series


def returns_of(values, start=date(2020, 1, 2)):
    from datetime import timedelta

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

    def test_unparsable_number(self, tmp_path):
        path = self.write(tmp_path, ["2020-01-01,10,11,9,oops,10.4,1000"])
        with pytest.raises(DataError, match="line|oops|could not convert"):
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
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            generate_synthetic("squarewave", length=10)

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
