"""Tests for the ARQ layer: retransmission, dedupe, ordering, liveness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.transport.clock import ManualClock
from repro.transport.framing import (
    KIND_ACK,
    KIND_DATA,
    Envelope,
    decode_envelope,
    encode_envelope,
)
from repro.transport import reliability
from repro.transport.reliability import (
    MAX_TIMEOUT,
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)


def quiet_config(**overrides) -> ReliabilityConfig:
    defaults = dict(
        initial_timeout=1.0,
        jitter=0.0,
        heartbeat_interval=None,
    )
    defaults.update(overrides)
    return ReliabilityConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_timeout": 0.0},
            {"initial_timeout": 2 * MAX_TIMEOUT},
            {"jitter": -0.1},
            {"heartbeat_interval": 0.0},
            {"stale_after": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReliabilityConfig(**kwargs)


class TestSender:
    def make(self, **overrides):
        clock = ManualClock()
        wire: list[bytes] = []
        sender = ReliableSender(
            site_id=7,
            transmit=wire.append,
            clock=clock,
            config=quiet_config(**overrides),
            rng=np.random.default_rng(0),
        )
        return clock, wire, sender

    def test_sequence_numbers_are_monotone_from_one(self):
        _, wire, sender = self.make()
        assert sender.send_payload(b"a") == 1
        assert sender.send_payload(b"b") == 2
        assert [decode_envelope(f).seq for f in wire] == [1, 2]
        assert sender.last_seq == 2

    def test_retransmits_with_exponential_backoff(self):
        clock, wire, sender = self.make()
        sender.send_payload(b"x")
        assert len(wire) == 1
        clock.advance(1.0)  # first timeout
        assert len(wire) == 2
        clock.advance(1.9)  # second timeout is 2.0: not yet
        assert len(wire) == 2
        clock.advance(0.2)
        assert len(wire) == 3
        assert sender.stats.retransmissions == 2
        assert sender.outstanding() == 1

    def test_backoff_is_capped_at_max_timeout(self):
        clock, wire, sender = self.make(initial_timeout=MAX_TIMEOUT / 2)
        sender.send_payload(b"x")
        clock.advance(MAX_TIMEOUT / 2)  # attempt 2 armed with MAX_TIMEOUT
        clock.advance(MAX_TIMEOUT)      # attempt 3 armed with min(2 x, cap)
        assert len(wire) == 3
        clock.advance(MAX_TIMEOUT - 1.0)
        assert len(wire) == 3
        clock.advance(1.0)  # uncapped, attempt 4 would wait 2 x MAX_TIMEOUT
        assert len(wire) == 4

    def test_jitter_stretches_the_timeout(self):
        clock, wire, sender = self.make(jitter=0.5)
        sender.send_payload(b"x")
        clock.advance(1.0)  # un-jittered deadline: may or may not have fired
        clock.advance(0.5)  # jittered deadline at most 1.5
        assert len(wire) == 2

    def test_cumulative_ack_clears_the_outbox(self):
        clock, wire, sender = self.make()
        sender.send_payload(b"a")
        sender.send_payload(b"b")
        sender.send_payload(b"c")
        sender.handle_datagram(
            encode_envelope(Envelope(kind=KIND_ACK, site_id=7, seq=2))
        )
        assert sender.outstanding() == 1
        clock.advance(10.0)
        retransmitted = [decode_envelope(f).seq for f in wire[3:]]
        assert set(retransmitted) == {3}

    def test_heartbeats_fire_on_the_interval(self):
        clock = ManualClock()
        wire: list[bytes] = []
        sender = ReliableSender(
            7, wire.append, clock, quiet_config(heartbeat_interval=2.0)
        )
        clock.advance(6.5)
        assert sender.stats.heartbeats_sent == 3
        sender.close()
        clock.advance(10.0)
        assert sender.stats.heartbeats_sent == 3

    def test_close_cancels_retransmissions(self):
        clock, wire, sender = self.make()
        sender.send_payload(b"x")
        sender.close()
        clock.advance(100.0)
        assert len(wire) == 1
        with pytest.raises(RuntimeError):
            sender.send_payload(b"y")


class TestReceiver:
    def make(self, **overrides):
        clock = ManualClock()
        delivered: list[tuple[int, bytes]] = []
        acks: list[tuple[int, int]] = []
        receiver = ReliableReceiver(
            deliver=lambda site, payload, trace: delivered.append((site, payload)),
            send_ack=lambda site, data: acks.append(
                (site, decode_envelope(data).seq)
            ),
            clock=clock,
            config=quiet_config(**overrides),
        )
        return clock, delivered, acks, receiver

    @staticmethod
    def data(site: int, seq: int, payload: bytes) -> bytes:
        return encode_envelope(
            Envelope(kind=KIND_DATA, site_id=site, seq=seq, payload=payload)
        )

    def test_in_order_delivery_and_cumulative_acks(self):
        _, delivered, acks, receiver = self.make()
        receiver.handle_datagram(self.data(1, 1, b"a"))
        receiver.handle_datagram(self.data(1, 2, b"b"))
        assert delivered == [(1, b"a"), (1, b"b")]
        assert acks == [(1, 1), (1, 2)]

    def test_duplicates_are_suppressed_but_reacked(self):
        _, delivered, acks, receiver = self.make()
        receiver.handle_datagram(self.data(1, 1, b"a"))
        receiver.handle_datagram(self.data(1, 1, b"a"))
        assert delivered == [(1, b"a")]
        assert receiver.stats.duplicates_suppressed == 1
        assert acks == [(1, 1), (1, 1)]  # the dup still earns an ack

    def test_gap_is_buffered_and_flushed_in_order(self):
        _, delivered, acks, receiver = self.make()
        receiver.handle_datagram(self.data(1, 3, b"c"))
        receiver.handle_datagram(self.data(1, 2, b"b"))
        assert delivered == []
        assert acks == [(1, 0), (1, 0)]  # nothing contiguous yet
        receiver.handle_datagram(self.data(1, 1, b"a"))
        assert delivered == [(1, b"a"), (1, b"b"), (1, b"c")]
        assert acks[-1] == (1, 3)
        assert receiver.stats.buffered_out_of_order == 2

    def test_sites_are_independent_streams(self):
        _, delivered, _, receiver = self.make()
        receiver.handle_datagram(self.data(2, 1, b"x"))
        receiver.handle_datagram(self.data(5, 1, b"y"))
        assert delivered == [(2, b"x"), (5, b"y")]
        assert receiver.known_sites == (2, 5)

    def test_reorder_limit_drops_overflow(self, monkeypatch):
        monkeypatch.setattr(reliability, "REORDER_LIMIT", 2)
        _, delivered, _, receiver = self.make()
        receiver.handle_datagram(self.data(1, 5, b"e"))
        receiver.handle_datagram(self.data(1, 4, b"d"))
        receiver.handle_datagram(self.data(1, 3, b"c"))  # over the cap
        assert receiver.stats.reorder_overflow_dropped == 1
        receiver.handle_datagram(self.data(1, 1, b"a"))
        receiver.handle_datagram(self.data(1, 2, b"b"))
        # Seq 3 was dropped; delivery stalls at 2 until it is retransmitted.
        assert [p for _, p in delivered] == [b"a", b"b"]
        receiver.handle_datagram(self.data(1, 3, b"c"))
        assert [p for _, p in delivered] == [b"a", b"b", b"c", b"d", b"e"]

    def test_heartbeats_update_liveness_and_reack(self):
        clock, _, acks, receiver = self.make(stale_after=5.0)
        receiver.handle_datagram(self.data(1, 1, b"a"))
        clock.advance(10.0)
        assert receiver.stale_sites() == (1,)
        receiver.handle_envelope(Envelope(kind=3, site_id=1, seq=1))
        assert receiver.stale_sites() == ()
        assert receiver.stats.heartbeats_received == 1
        assert acks[-1] == (1, 1)

    def test_done_site_is_never_stale(self):
        clock, _, _, receiver = self.make(stale_after=5.0)
        receiver.handle_datagram(self.data(1, 1, b"a"))
        receiver.handle_envelope(Envelope(kind=4, site_id=1, seq=1))
        assert receiver.all_done(1)
        clock.advance(100.0)
        assert receiver.stale_sites() == ()
        assert receiver.all_done(1)
        assert not receiver.all_done(2)

    def test_done_waits_for_outstanding_data(self):
        _, delivered, _, receiver = self.make()
        receiver.handle_datagram(self.data(1, 2, b"b"))
        receiver.handle_envelope(Envelope(kind=4, site_id=1, seq=2))
        assert not receiver.all_done(1)  # seq 1 still missing
        receiver.handle_datagram(self.data(1, 1, b"a"))
        assert receiver.all_done(1)
        assert [p for _, p in delivered] == [b"a", b"b"]


class TestEndToEndArq:
    """Sender and receiver talking through a flaky in-test wire."""

    def test_every_payload_survives_a_lossy_wire_exactly_once(self):
        clock = ManualClock()
        rng = np.random.default_rng(99)
        delivered: list[bytes] = []
        config = quiet_config(jitter=0.1)

        sender_holder: list[ReliableSender] = []
        receiver = ReliableReceiver(
            deliver=lambda site, payload, trace: delivered.append(payload),
            # The ack path drops 30% too.
            send_ack=lambda site, data: (
                None
                if rng.random() < 0.3
                else sender_holder[0].handle_datagram(data)
            ),
            clock=clock,
            config=config,
        )
        sender = ReliableSender(
            site_id=1,
            transmit=lambda data: (
                None
                if rng.random() < 0.3
                else receiver.handle_datagram(data)
            ),
            clock=clock,
            config=config,
            rng=np.random.default_rng(5),
        )
        sender_holder.append(sender)

        payloads = [bytes([i]) * 4 for i in range(30)]
        for payload in payloads:
            sender.send_payload(payload)
        limit = 0.0
        while sender.outstanding() and limit < 10_000.0:
            clock.advance(1.0)
            limit += 1.0
        assert sender.outstanding() == 0
        assert delivered == payloads  # exactly once, in order
        assert sender.stats.retransmissions > 0
        assert receiver.stats.duplicates_suppressed > 0
