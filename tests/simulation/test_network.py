"""Tests for the star network channels."""

from __future__ import annotations

import pytest

from repro.core.protocol import WeightUpdateMessage
from repro.simulation.collector import TimeSeriesCollector
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import NetworkChannel, StarNetwork


def message(site_id: int = 0) -> WeightUpdateMessage:
    return WeightUpdateMessage(
        site_id=site_id, model_id=0, time=0, count_delta=1
    )


class TestChannel:
    def test_delivery_after_latency(self):
        engine = SimulationEngine()
        received = []
        channel = NetworkChannel(engine, received.append, latency=0.25)
        arrival = channel.send(message())
        assert arrival == pytest.approx(0.25)
        engine.run()
        assert len(received) == 1
        assert engine.now == pytest.approx(0.25)

    def test_bandwidth_adds_transmission_time(self):
        engine = SimulationEngine()
        received = []
        channel = NetworkChannel(
            engine, received.append, latency=0.0, bandwidth=10.0
        )
        payload = message().payload_bytes()
        arrival = channel.send(message())
        assert arrival == pytest.approx(payload / 10.0)

    def test_transmissions_serialise_on_the_link(self):
        engine = SimulationEngine()
        channel = NetworkChannel(
            engine, lambda m: None, latency=0.0, bandwidth=10.0
        )
        payload = message().payload_bytes()
        first = channel.send(message())
        second = channel.send(message())
        assert second == pytest.approx(first + payload / 10.0)

    def test_stats_and_collector_metered(self):
        engine = SimulationEngine()
        collector = TimeSeriesCollector(interval=1.0)
        channel = NetworkChannel(
            engine, lambda m: None, latency=0.0, collector=collector
        )
        channel.send(message())
        channel.send(message())
        assert channel.stats.attempted == 2
        assert channel.stats.payload_bytes == 2 * message().payload_bytes()
        assert channel.stats.wire_bytes == channel.stats.payload_bytes
        assert collector.total == channel.stats.payload_bytes

    def test_invalid_parameters_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="latency"):
            NetworkChannel(engine, lambda m: None, latency=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            NetworkChannel(engine, lambda m: None, bandwidth=0.0)


class TestStarNetwork:
    def test_channels_created_lazily_and_cached(self):
        engine = SimulationEngine()
        network = StarNetwork(engine, lambda m: None)
        a = network.channel_for(0)
        b = network.channel_for(0)
        c = network.channel_for(1)
        assert a is b
        assert a is not c

    def test_totals_aggregate_channels(self):
        engine = SimulationEngine()
        network = StarNetwork(engine, lambda m: None, latency=0.0)
        network.channel_for(0).send(message(0))
        network.channel_for(1).send(message(1))
        engine.run()
        accounting = network.accounting()
        assert accounting.attempted == 2
        assert accounting.payload_bytes == 2 * message().payload_bytes()

    def test_shared_cost_collector(self):
        engine = SimulationEngine()
        network = StarNetwork(
            engine, lambda m: None, latency=0.0, sample_interval=1.0
        )
        network.channel_for(0).send(message(0))
        network.channel_for(1).send(message(1))
        engine.run()
        network.finalize()
        assert network.cost.total == network.accounting().payload_bytes

    def test_finalize_is_idempotent(self):
        """Regression: a second finalize() must not corrupt the series."""
        engine = SimulationEngine()
        network = StarNetwork(
            engine, lambda m: None, latency=0.0, sample_interval=1.0
        )
        network.channel_for(0).send(message(0))
        network.channel_for(1).send(message(1))
        engine.run()
        network.finalize()
        samples = list(network.cost.samples)
        total = network.cost.total
        accounting = network.accounting()

        network.finalize()  # same clock: must be a no-op
        assert list(network.cost.samples) == samples
        assert network.cost.total == total
        assert network.accounting() == accounting

    def test_finalize_after_more_traffic_extends_the_series(self):
        engine = SimulationEngine()
        network = StarNetwork(
            engine, lambda m: None, latency=0.0, sample_interval=1.0
        )
        network.channel_for(0).send(message(0))
        engine.run()
        network.finalize()
        first_total = network.cost.total
        # More traffic later: a later finalize picks it up exactly once.
        engine.schedule_at(
            engine.now + 2.0, lambda: network.channel_for(0).send(message(0))
        )
        engine.run()
        network.finalize()
        network.finalize()
        assert network.cost.total == 2 * message().payload_bytes()
        assert network.cost.total > first_total
