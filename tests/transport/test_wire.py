"""Tests for the message-level send path: CodecSender over ARQ.

The harness here keeps the datagram service by hand: frames sit in
in-memory queues until a test explicitly delivers them, so acks (and
therefore delta-baseline promotions) happen exactly when a test says
they do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import CodecConfig, CodecError, get_codec
from repro.transport.clock import ManualClock
from repro.transport.framing import KIND_DATA, Envelope, encode_envelope
from repro.transport.reliability import ReliableReceiver, ReliableSender
from repro.transport.wire import CodecSender


def mixture(shift: float = 0.0) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.4, 0.6]),
        (
            Gaussian.spherical(np.array([0.0 + shift, 0.0]), 1.0),
            Gaussian.spherical(np.array([5.0, 5.0]), 2.0),
        ),
    )


def update(model_id: int, shift: float = 0.0, site_id: int = 1):
    return ModelUpdateMessage(
        site_id=site_id,
        model_id=model_id,
        time=model_id,
        mixture=mixture(shift),
        count=100 * model_id,
        reference_likelihood=-3.5,
    )


class Harness:
    """One edge with hand-cranked datagram delivery."""

    def __init__(self, codec="cds1", config=None):
        self.clock = ManualClock()
        self.uplink: list[bytes] = []
        self.downlink: list[bytes] = []
        self.delivered = []
        decoder = get_codec("cds2")
        self.receiver = ReliableReceiver(
            deliver=lambda site, payload, trace: self.delivered.append(
                decoder.decode(payload)
            ),
            send_ack=lambda site, data: self.downlink.append(data),
            clock=self.clock,
        )
        self.sender = ReliableSender(
            site_id=1,
            transmit=self.uplink.append,
            clock=self.clock,
        )
        self.codec_sender = CodecSender(
            self.sender, get_codec(codec, config)
        )

    def deliver_data(self) -> None:
        """Hand every queued uplink frame to the receiver."""
        frames = list(self.uplink)
        self.uplink.clear()  # the sender holds a reference to this list
        for frame in frames:
            self.receiver.handle_datagram(frame)

    def deliver_acks(self) -> None:
        frames = list(self.downlink)
        self.downlink.clear()
        for frame in frames:
            self.sender.handle_datagram(frame)

    def roundtrip(self) -> None:
        self.deliver_data()
        self.deliver_acks()


class TestSend:
    def test_every_message_transmits_at_once(self):
        """No queue: unacknowledged payloads never hold a send back."""
        edge = Harness(codec="cds1")
        seqs = [edge.codec_sender.send(update(i)) for i in range(1, 5)]
        assert seqs == sorted(set(seqs))
        assert len(edge.uplink) == 4
        edge.roundtrip()
        assert [m.model_id for m in edge.delivered] == [1, 2, 3, 4]


class TestDeltaOverArq:
    def make(self):
        return Harness(codec="cds2", config=CodecConfig(delta=True))

    def test_ack_promotes_the_baseline(self):
        edge = self.make()
        edge.codec_sender.send(update(1))
        edge.roundtrip()
        edge.codec_sender.send(update(2, shift=0.5))
        assert edge.codec_sender.stats.delta_updates == 1
        edge.roundtrip()
        assert [m.model_id for m in edge.delivered] == [1, 2]
        assert edge.delivered[-1].mixture == mixture(0.5)

    def test_unacked_updates_stay_snapshots(self):
        edge = self.make()
        edge.codec_sender.send(update(1))
        edge.codec_sender.send(update(2, shift=0.5))  # no ack yet
        assert edge.codec_sender.stats.snapshot_updates == 2
        assert edge.codec_sender.stats.delta_updates == 0
        edge.deliver_data()
        assert edge.delivered[-1].mixture == mixture(0.5)

    def test_retransmission_resends_identical_bytes(self):
        # A delta payload bound to its seq must survive retransmission
        # verbatim -- the receiver's baseline cache makes it decodable
        # whenever it finally arrives.
        edge = self.make()
        edge.codec_sender.send(update(1))
        edge.roundtrip()
        edge.codec_sender.send(update(2, shift=0.5))
        (first,) = edge.uplink
        edge.uplink.clear()  # drop the frame: simulated loss
        edge.clock.advance(30.0)  # past the retransmit timeout
        assert edge.uplink, "retransmission timer did not fire"
        assert edge.uplink[0] == first
        edge.roundtrip()
        assert edge.delivered[-1].mixture == mixture(0.5)

    def test_stats_account_bytes_saved(self):
        edge = self.make()
        edge.codec_sender.send(update(1))
        edge.roundtrip()
        edge.codec_sender.send(update(2, shift=0.5))
        stats = edge.codec_sender.stats
        assert stats.bytes_saved > 0
        assert stats.bytes_encoded < stats.bytes_snapshot
        assert 0.0 < stats.delta_hit_rate <= 1.0


class TestNegotiation:
    """The sender picks the codec; the receiver only checks the id."""

    def test_unknown_codec_id_is_rejected_naming_it(self):
        edge = Harness()
        payload = get_codec("cds1").encode(update(1))
        frame = encode_envelope(
            Envelope(kind=KIND_DATA, site_id=1, seq=1, payload=payload, codec=7)
        )
        with pytest.raises(CodecError, match="codec id 7"):
            edge.receiver.handle_datagram(frame)
        assert edge.delivered == []
        assert edge.receiver.stats.delivered == 0

    def test_cds1_payloads_carry_codec_zero(self):
        edge = Harness(codec="cds1")
        edge.codec_sender.send(update(1))
        edge.roundtrip()
        assert [m.model_id for m in edge.delivered] == [1]
