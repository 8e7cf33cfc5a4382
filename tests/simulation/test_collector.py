"""Tests for the per-second time-series collector."""

from __future__ import annotations

import pytest

from repro.simulation.collector import TimeSeriesCollector


class TestCollector:
    def test_samples_on_the_grid(self):
        collector = TimeSeriesCollector(interval=1.0)
        collector.add(0.5, 10.0)
        collector.add(1.5, 5.0)
        collector.add(3.2, 1.0)
        collector.finalize(4.0)
        times, values = collector.series()
        assert times == [1.0, 2.0, 3.0, 4.0]
        assert values == [10.0, 15.0, 15.0, 16.0]

    def test_total_accumulates(self):
        collector = TimeSeriesCollector()
        collector.add(0.1, 3.0)
        collector.add(0.2, 4.0)
        assert collector.total == 7.0

    def test_series_is_monotone_for_positive_amounts(self):
        collector = TimeSeriesCollector(interval=0.5)
        for i in range(20):
            collector.add(i * 0.3, 1.0)
        collector.finalize(6.0)
        _, values = collector.series()
        assert values == sorted(values)

    def test_value_at_grid_lookup(self):
        # Each grid time holds the total observed up to it.
        collector = TimeSeriesCollector(interval=1.0)
        collector.add(0.5, 10.0)
        collector.finalize(3.0)
        assert collector.series() == ([1.0, 2.0, 3.0], [10.0, 10.0, 10.0])

    def test_out_of_order_observations_rejected(self):
        collector = TimeSeriesCollector(interval=1.0)
        collector.add(5.0, 1.0)
        with pytest.raises(ValueError, match="time-ordered"):
            collector.add(1.0, 1.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesCollector(interval=0.0)

    def test_quiet_periods_backfilled(self):
        collector = TimeSeriesCollector(interval=1.0)
        collector.add(0.5, 2.0)
        collector.add(9.5, 1.0)
        collector.finalize(10.0)
        times, values = collector.series()
        assert len(times) == 10
        assert values[:9] == [2.0] * 9
        assert values[9] == 3.0
