"""Tests for the loopback backend and the lossy fault injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.transport.base import DatagramTransport
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport


class TestLoopback:
    def test_synchronous_bidirectional_delivery(self):
        transport = LoopbackTransport()
        up, down = [], []
        transport.bind_coordinator(up.append)
        transport.bind_site(4, down.append)
        transport.send_to_coordinator(4, b"data")
        transport.send_to_site(4, b"ack")
        assert up == [b"data"]
        assert down == [b"ack"]

    def test_wire_stats_metered(self):
        transport = LoopbackTransport()
        transport.bind_coordinator(lambda data: None)
        transport.send_to_coordinator(0, b"12345")
        transport.send_to_coordinator(0, b"678")
        assert transport.uplink.datagrams == 2
        assert transport.uplink.bytes == 8
        assert transport.downlink.datagrams == 0

    def test_unbound_destination_is_a_silent_drop(self):
        transport = LoopbackTransport()
        transport.send_to_coordinator(0, b"x")  # nothing bound: no error
        transport.send_to_site(9, b"y")


class TestFaultConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultConfig(drop_rate=1.0)
        with pytest.raises(ValueError, match="delays"):
            FaultConfig(delay=-0.1)
        with pytest.raises(ValueError, match="partition"):
            FaultConfig(partitions=((2.0, 1.0),))

    def test_partition_windows(self):
        faults = FaultConfig(partitions=((1.0, 2.0), (5.0, 6.0)))
        assert not faults.partitioned_at(0.5)
        assert faults.partitioned_at(1.0)
        assert faults.partitioned_at(1.99)
        assert not faults.partitioned_at(2.0)
        assert faults.partitioned_at(5.5)


class TestLossyTransport:
    def make(self, faults: FaultConfig, seed: int = 0):
        clock = ManualClock()
        inner = LoopbackTransport()
        lossy = LossyTransport(inner, clock, faults, seed=seed)
        received: list[bytes] = []
        lossy.bind_coordinator(received.append)
        return clock, lossy, received

    def test_no_faults_is_transparent(self):
        clock, lossy, received = self.make(FaultConfig())
        lossy.send_to_coordinator(0, b"a")
        assert received == [b"a"]

    def test_seeded_drop_rate_is_reproducible(self):
        counts = []
        for _ in range(2):
            _, lossy, received = self.make(FaultConfig(drop_rate=0.5), seed=42)
            for i in range(200):
                lossy.send_to_coordinator(0, bytes([i % 256]))
            counts.append((len(received), lossy.faults.dropped))
        assert counts[0] == counts[1]
        delivered, dropped = counts[0]
        assert delivered + dropped == 200
        assert 60 <= dropped <= 140  # ~Binomial(200, 0.5)

    def test_duplicates_deliver_twice(self):
        _, lossy, received = self.make(
            FaultConfig(duplicate_rate=0.99), seed=1
        )
        lossy.send_to_coordinator(0, b"dup")
        assert lossy.faults.duplicated == 1
        assert received == [b"dup", b"dup"]

    def test_delayed_delivery_waits_for_the_clock(self):
        clock, lossy, received = self.make(FaultConfig(delay=1.0))
        lossy.send_to_coordinator(0, b"slow")
        assert received == []
        assert lossy.faults.delayed == 1
        clock.advance(0.5)
        assert received == []
        clock.advance(0.6)
        assert received == [b"slow"]

    def test_reordering_lets_later_datagrams_overtake(self):
        clock, lossy, received = self.make(
            FaultConfig(reorder_rate=0.999, reorder_delay=1.0), seed=3
        )
        lossy.send_to_coordinator(0, b"first")
        # Second datagram sent fault-free through the inner transport.
        lossy._inner.send_to_coordinator(0, b"second")
        clock.advance(2.0)
        assert received == [b"second", b"first"]
        assert lossy.faults.reordered == 1

    def test_partition_window_drops_everything_inside(self):
        clock, lossy, received = self.make(
            FaultConfig(partitions=((1.0, 3.0),))
        )
        lossy.send_to_coordinator(0, b"before")
        clock.advance(2.0)
        lossy.send_to_coordinator(0, b"during")
        clock.advance(2.0)
        lossy.send_to_coordinator(0, b"after")
        assert received == [b"before", b"after"]
        assert lossy.faults.partition_drops == 1

    def test_downlink_faults_default_to_uplink_model(self):
        clock = ManualClock()
        lossy = LossyTransport(
            LoopbackTransport(), clock, FaultConfig(drop_rate=0.5), seed=11
        )
        received: list[bytes] = []
        lossy.bind_site(0, received.append)
        for _ in range(100):
            lossy.send_to_site(0, b"ack")
        assert 0 < len(received) < 100

    def test_is_a_datagram_transport(self):
        clock = ManualClock()
        lossy = LossyTransport(LoopbackTransport(), clock, FaultConfig())
        assert isinstance(lossy, DatagramTransport)
