"""Message-level send path: codec encoding over ARQ.

:class:`CodecSender` is the glue between the protocol vocabulary
(:mod:`repro.core.protocol` messages) and the byte transport
(:class:`~repro.transport.reliability.ReliableSender`):

* every outgoing message is encoded by the edge's
  :class:`~repro.core.serde.WireCodec` as it is transmitted (delta
  codecs are stateful, so encode order must equal send order);
* the codec's ARQ hooks are wired in: each payload is bound to its
  sequence number and the sender's cumulative acks (its one ``on_ack``
  listener) promote delta baselines (``note_sent`` / ``note_acked``).

Every uplink edge, a :class:`~repro.transport.endpoint.SiteEndpoint`,
holds one.
"""

from __future__ import annotations

from repro.core.protocol import Message
from repro.core.serde import CodecStats, WireCodec
from repro.obs.spans import SpanContext
from repro.transport.reliability import ReliableSender

__all__ = ["CodecSender"]


class CodecSender:
    """One edge's message-level sender: ``codec`` over ``sender``."""

    def __init__(self, sender: ReliableSender, codec: WireCodec) -> None:
        self._sender = sender
        self._codec = codec
        sender.on_ack = codec.note_acked

    @property
    def codec(self) -> WireCodec:
        return self._codec

    @property
    def stats(self) -> CodecStats:
        return self._codec.stats

    def send(self, message: Message, trace: SpanContext | None = None) -> int:
        """Encode and transmit one message; returns its seq."""
        payload = self._codec.encode(message)
        seq = self._sender.send_payload(
            payload, trace=trace, codec=self._codec.wire_id
        )
        self._codec.note_sent(seq)
        return seq
