"""Tests for the per-second cost collection of the simulated channel.

Section 6 of the paper collects the communication cost "every second";
:meth:`SimulatedChannel.cost_series` is that curve.  The echo sites of
``test_simulated`` emit one weight update of ``BYTES`` per record, and
record ``k`` of a site is at ``k / rate`` virtual seconds.
"""

from __future__ import annotations

import pytest

from repro.runtime import SimulatedChannel
from tests.simulation.test_simulated import BYTES, feed, open_channel


class TestCollector:
    def test_samples_on_the_grid(self):
        # One site at 2 rec/s: records at 0, 0.5, ..., 3.5 s.
        channel, sites, _ = open_channel(n_sites=1, rate=2.0)
        feed(channel, sites, rounds=8)
        channel.engine.advance(4.0)
        channel.finish()
        times, values = channel.cost_series()
        assert times == [1.0, 2.0, 3.0, 4.0]
        assert values == [2 * BYTES, 4 * BYTES, 6 * BYTES, 8 * BYTES]

    def test_series_is_monotone_for_positive_amounts(self):
        channel, sites, _ = open_channel(n_sites=3, rate=7.0, sample_interval=0.5)
        feed(channel, sites, rounds=40)
        channel.finish()
        _, values = channel.cost_series()
        assert len(values) == 11
        assert values == sorted(values)

    def test_value_at_grid_lookup(self):
        # Each grid time holds the total emitted before it.
        channel, sites, _ = open_channel(n_sites=1, rate=2.0)
        feed(channel, sites, rounds=1)
        channel.engine.advance(3.0)
        channel.finish()
        assert channel.cost_series() == ([1.0, 2.0, 3.0], [BYTES] * 3)

    def test_invalid_interval_rejected(self):
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError, match="interval"):
                SimulatedChannel(sample_interval=interval)

    def test_quiet_periods_backfilled(self):
        # One record, then nothing until 9.5 s: every quiet second is
        # sampled once the next message arrives.
        channel, sites, _ = open_channel(n_sites=1, rate=2.0)
        feed(channel, sites, rounds=1)
        channel.engine.advance(9.5)
        channel.submit(sites[0], None)
        channel.engine.advance(10.0)
        channel.finish()
        times, values = channel.cost_series()
        assert times == [float(second) for second in range(1, 11)]
        assert values[:9] == [BYTES] * 9
        assert values[9] == 2 * BYTES
