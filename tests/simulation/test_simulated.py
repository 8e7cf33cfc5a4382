"""Tests for the simulated channel: direct delivery, a virtual clock and
the Figure 2 cost meter.

The sites here are stand-ins that emit one weight update per record
through the hook the channel wires into them, so every byte on the
meter is known in advance.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import pytest

from repro.core.protocol import WeightUpdateMessage
from repro.runtime import SimulatedChannel

#: Wire size of one :class:`WeightUpdateMessage`.
BYTES = WeightUpdateMessage(
    site_id=0, model_id=0, time=0, count_delta=1
).payload_bytes()


class EchoSite:
    """A stand-in remote site: one weight update per record."""

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id
        self._emit = None
        self.position = 0

    def process_record(self, record) -> list:
        message = WeightUpdateMessage(
            site_id=self.site_id,
            model_id=0,
            time=self.position,
            count_delta=1,
        )
        self.position += 1
        self._emit(message)
        return [message]


def open_channel(n_sites: int = 2, **kwargs):
    """A simulated channel over ``n_sites`` echo sites; returns the
    channel, the sites and the list the coordinator receives into."""
    received: list = []
    channel = SimulatedChannel(**kwargs)
    sites = [EchoSite(site_id) for site_id in range(n_sites)]
    channel.open(sites, SimpleNamespace(handle_message=received.append))
    return channel, sites, received


def feed(channel, sites, rounds: int) -> None:
    for _ in range(rounds):
        for site in sites:
            channel.submit(site, None)


class TestDelivery:
    def test_delivered_as_emitted(self):
        channel, sites, received = open_channel(n_sites=1)
        messages = channel.submit(sites[0], None)
        assert received == messages

    def test_accounting_sums_every_site(self):
        channel, sites, received = open_channel(n_sites=3)
        feed(channel, sites, rounds=4)
        channel.finish()
        accounting = channel.accounting()
        assert accounting.attempted == accounting.delivered == 12
        assert accounting.payload_bytes == accounting.wire_bytes == 12 * BYTES
        assert len(received) == 12

    def test_duration_is_the_time_of_the_last_record(self):
        channel, sites, _ = open_channel(rate=10.0)
        feed(channel, sites, rounds=25)
        channel.finish()
        assert channel.duration == pytest.approx(2.4)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            SimulatedChannel(rate=0.0)


class TestCostMeter:
    def test_cost_meter_counts_every_emitted_byte(self):
        # Record k of a site is at k / 10 s: records 0-9 of both sites
        # are before the 1 s grid point, records 0-19 before the 2 s one.
        channel, sites, _ = open_channel(rate=10.0, sample_interval=1.0)
        feed(channel, sites, rounds=25)
        channel.finish()
        times, values = channel.cost_series()
        assert times == [1.0, 2.0]
        assert values == [20 * BYTES, 40 * BYTES]
        # Records 20-24 are past the last grid point: accounted, not
        # yet sampled.
        assert channel.accounting().payload_bytes == 50 * BYTES

    def test_accounting_and_meter_agree_on_one_site(self):
        channel, sites, _ = open_channel(n_sites=1, sample_interval=1.0)
        feed(channel, sites, rounds=2)
        # Past the last record onto a grid point, so the meter samples
        # every byte.
        channel.engine.advance(1.0)
        channel.finish()
        accounting = channel.accounting()
        assert accounting.attempted == 2
        assert accounting.payload_bytes == 2 * BYTES
        assert accounting.wire_bytes == accounting.payload_bytes
        assert channel.cost_series() == ([1.0], [accounting.payload_bytes])

    def test_one_meter_is_shared_by_every_site(self):
        channel, sites, _ = open_channel(n_sites=2, sample_interval=1.0)
        feed(channel, sites, rounds=1)
        channel.engine.advance(1.0)
        channel.finish()
        _, values = channel.cost_series()
        assert values[-1] == channel.accounting().payload_bytes == 2 * BYTES

    def test_finish_twice_leaves_the_cost_series_unchanged(self):
        """Regression: a second finish must not corrupt the series."""
        channel, sites, _ = open_channel(rate=10.0, sample_interval=0.5)
        feed(channel, sites, rounds=12)
        channel.finish()
        series = channel.cost_series()
        accounting = channel.accounting()
        channel.finish()
        assert channel.cost_series() == series
        assert channel.accounting() == accounting

    def test_series_covers_traffic_after_a_mid_run_quiesce(self):
        channel, sites, _ = open_channel(rate=10.0, sample_interval=1.0)
        feed(channel, sites, rounds=12)
        channel.quiesce()  # what a mid-run checkpoint does
        feed(channel, sites, rounds=19)
        channel.finish()
        times, values = channel.cost_series()
        assert times == [1.0, 2.0, 3.0]
        assert values == [20 * BYTES, 40 * BYTES, 60 * BYTES]

    def test_cost_series_of_an_unopened_channel_is_empty(self):
        assert SimulatedChannel().cost_series() == ([], [])


class TestLinkModel:
    @pytest.mark.parametrize(
        "link",
        [{"latency": 0.5}, {"latency": 0.0}],
        ids=["latency", "zero-latency"],
    )
    def test_link_model_arguments_warn(self, link):
        with pytest.warns(DeprecationWarning, match="latency is deprecated"):
            SimulatedChannel(**link)

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SimulatedChannel(rate=500.0, latency=0.01, sample_interval=0.5)

    def test_link_model_changes_nothing(self):
        def series(**link):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                channel, sites, received = open_channel(rate=10.0, **link)
            feed(channel, sites, rounds=15)
            channel.finish()
            return channel.cost_series(), channel.duration, len(received)

        assert series(latency=0.5) == series()
