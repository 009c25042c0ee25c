"""Shared helpers for the test suite."""

from datetime import date, timedelta

import numpy as np

from quantrl.market_data import Bar, BarSeries


def pytest_report_header(config):
    """Name the numpy build: the generator-stream tests compare against it."""
    return f"numpy {np.__version__}"


def make_series(closes, start=date(2020, 1, 1), symbol="TEST", volume=1_000_000.0):
    """BarSeries with flat OHLC equal to each close, consecutive dates."""
    bars = tuple(
        Bar(start + timedelta(days=i), c, c, c, c, c, volume)
        for i, c in enumerate(closes)
    )
    return BarSeries(symbol, bars)
