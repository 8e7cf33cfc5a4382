"""TELEMETRY envelopes: best-effort freight outside the ARQ window.

The federation layer (ISSUE 7) piggybacks node reports on the existing
uplink as ``KIND_TELEMETRY`` envelopes.  These tests pin the transport
contract that makes that safe: telemetry is unsequenced, never acked,
never retransmitted, and invisible to the ``wire_bytes`` accounting on
both ends -- so a federated run's §6 numbers stay byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.spans import SpanContext
from repro.transport.clock import ManualClock
from repro.transport.framing import (
    KIND_DATA,
    KIND_TELEMETRY,
    Envelope,
    StreamDecoder,
    decode_envelope,
    encode_envelope,
)
from repro.transport.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)


def quiet_config() -> ReliabilityConfig:
    return ReliabilityConfig(jitter=0.0, heartbeat_interval=None)


class TestFraming:
    def test_telemetry_round_trip_with_payload(self):
        envelope = Envelope(
            kind=KIND_TELEMETRY, site_id=9, seq=4, payload=b'{"node": 9}'
        )
        assert decode_envelope(encode_envelope(envelope)) == envelope

    def test_telemetry_rejects_trace_context(self):
        with pytest.raises(ValueError, match="telemetry"):
            encode_envelope(
                Envelope(
                    kind=KIND_TELEMETRY,
                    site_id=9,
                    seq=4,
                    payload=b"x",
                    trace=SpanContext(trace_id=1, span_id=2),
                )
            )

    def test_stream_decoder_interleaves_with_data(self):
        frames = (
            encode_envelope(
                Envelope(kind=KIND_DATA, site_id=1, seq=1, payload=b"d")
            )
            + encode_envelope(
                Envelope(kind=KIND_TELEMETRY, site_id=1, seq=1, payload=b"t")
            )
            + encode_envelope(
                Envelope(kind=KIND_DATA, site_id=1, seq=2, payload=b"e")
            )
        )
        kinds = [e.kind for e in StreamDecoder().feed(frames)]
        assert kinds == [KIND_DATA, KIND_TELEMETRY, KIND_DATA]


class TestSenderSide:
    def make(self):
        clock = ManualClock()
        wire: list[bytes] = []
        sender = ReliableSender(
            site_id=7,
            transmit=wire.append,
            clock=clock,
            config=quiet_config(),
            rng=np.random.default_rng(0),
        )
        return clock, wire, sender

    def test_telemetry_is_fire_and_forget(self):
        clock, wire, sender = self.make()
        assert sender.send_telemetry(b"report") is True
        assert sender.outstanding() == 0
        # No retransmission timer was armed.
        clock.advance(100.0)
        assert len(wire) == 1
        assert decode_envelope(wire[0]).kind == KIND_TELEMETRY

    def test_telemetry_bypasses_wire_accounting(self):
        _, wire, sender = self.make()
        sender.send_telemetry(b"report")
        assert sender.stats.telemetry_sent == 1
        assert sender.stats.telemetry_bytes == len(wire[0])
        # The §6 counters never move.
        assert sender.stats.payloads_sent == 0
        assert sender.stats.payload_bytes == 0
        assert sender.stats.wire_bytes == 0

    def test_telemetry_does_not_consume_sequence_numbers(self):
        _, wire, sender = self.make()
        sender.send_telemetry(b"report")
        assert sender.send_payload(b"data") == 1

    def test_closed_sender_drops_instead_of_raising(self):
        _, wire, sender = self.make()
        sender.close()
        assert sender.send_telemetry(b"report") is False
        assert wire == []


class TestReceiverSide:
    def make(self, on_telemetry=None):
        clock = ManualClock()
        delivered: list[tuple[int, bytes]] = []
        acks: list[bytes] = []
        receiver = ReliableReceiver(
            deliver=lambda site, payload, trace: delivered.append((site, payload)),
            send_ack=lambda site, data: acks.append(data),
            clock=clock,
            config=quiet_config(),
            on_telemetry=on_telemetry,
        )
        return clock, delivered, acks, receiver

    @staticmethod
    def telemetry(site: int, payload: bytes) -> Envelope:
        return Envelope(
            kind=KIND_TELEMETRY, site_id=site, seq=1, payload=payload
        )

    def test_routes_to_callback_without_ack(self):
        taps: list[tuple[int, bytes]] = []
        _, delivered, acks, receiver = self.make(
            on_telemetry=lambda site, payload: taps.append((site, payload))
        )
        receiver.handle_envelope(self.telemetry(3, b"report"))
        assert taps == [(3, b"report")]
        # Never enters the sequenced path: no delivery, no ack, and the
        # data-side wire accounting stays untouched.
        assert delivered == [] and acks == []
        assert receiver.stats.telemetry_received == 1
        assert receiver.stats.telemetry_bytes_received > 0
        assert receiver.stats.datagrams_received == 0
        assert receiver.stats.wire_bytes_received == 0

    def test_without_callback_is_counted_and_dropped(self):
        _, delivered, acks, receiver = self.make()
        receiver.handle_envelope(self.telemetry(3, b"report"))
        assert receiver.stats.telemetry_received == 1
        assert delivered == [] and acks == []

    def test_refreshes_liveness(self):
        clock, _, _, receiver = self.make()
        receiver.handle_envelope(self.telemetry(3, b"report"))
        clock.advance(1.0)
        assert receiver.stale_sites(stale_after=5.0) == ()
        clock.advance(10.0)
        assert receiver.stale_sites(stale_after=5.0) == (3,)
