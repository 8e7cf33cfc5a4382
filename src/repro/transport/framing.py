"""Transport envelopes and stream framing.

The reliability layer wraps every application payload (a
:mod:`repro.core.serde` ``CDS1`` message) in a fixed 22-byte envelope
carrying the datagram kind, the originating site and the sequence
number, plus a payload-length field that doubles as the length prefix
when envelopes are concatenated onto a byte stream (TCP).

Layout (little endian)::

    magic    4  b"TPT1"
    kind     1  DATA / ACK / HEARTBEAT / DONE / TELEMETRY
    flags    1  bit 0 (FLAG_TRACE): a 16-byte span context follows the
                header; bit 1 (FLAG_CODEC): a 1-byte wire-codec id
                follows the trace context; remaining bits reserved (0)
    site_id  4  int32
    seq      8  uint64 -- DATA: message seq; ACK: cumulative ack;
                HEARTBEAT/DONE/TELEMETRY: highest seq assigned so far
    length   4  uint32 payload length (0 for control kinds)
    [trace  16  optional span context (trace id + span id, uint64 LE
                each) when FLAG_TRACE is set -- Dapper-style context
                propagation; see :mod:`repro.obs.spans`]
    [codec   1  optional wire-codec id when FLAG_CODEC is set -- the
                :data:`repro.core.serde.WireCodec.wire_id` of the
                payload's encoding.  Codec id 0 (CDS1) is the default
                and never set explicitly, so v1 traffic stays
                byte-identical to the pre-extension format, and a
                pre-CDS2 peer rejects announced CDS2 traffic at this
                layer ("unknown envelope flags") instead of feeding
                garbage to its message decoder.]

Control envelopes (ACK, HEARTBEAT, DONE) never carry a payload.
TELEMETRY envelopes carry one (an encoded
:class:`~repro.obs.federation.NodeTelemetry` report) but sit outside
the ARQ state machine: unsequenced, unacked, never retransmitted --
best-effort freight riding an existing uplink without perturbing the
section 6 byte accounting of the application stream.  The trace
extension is only ever attached to DATA envelopes and only when an
enabled observer has an active span, so runs with observability off
(the :data:`~repro.obs.NULL_OBSERVER` default) stay byte-identical to
the pre-extension wire format.  :class:`StreamDecoder` incrementally
re-frames envelopes out of an arbitrary chunking of the byte stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.obs.spans import (
    SPAN_CONTEXT_BYTES,
    SpanContext,
    decode_span_context,
    encode_span_context,
)

__all__ = [
    "ENVELOPE_BYTES",
    "Envelope",
    "FLAG_CODEC",
    "FLAG_TRACE",
    "KIND_ACK",
    "KIND_DATA",
    "KIND_DONE",
    "KIND_HEARTBEAT",
    "KIND_TELEMETRY",
    "StreamDecoder",
    "decode_envelope",
    "encode_envelope",
]

ENVELOPE_MAGIC = b"TPT1"

KIND_DATA = 1
KIND_ACK = 2
KIND_HEARTBEAT = 3
KIND_DONE = 4
KIND_TELEMETRY = 5

_KINDS = (KIND_DATA, KIND_ACK, KIND_HEARTBEAT, KIND_DONE, KIND_TELEMETRY)

#: Kinds allowed to carry an application payload.
_PAYLOAD_KINDS = (KIND_DATA, KIND_TELEMETRY)

#: Flags bit 0: a 16-byte span context follows the fixed header.
FLAG_TRACE = 0x01

#: Flags bit 1: a 1-byte wire-codec id follows the (optional) trace
#: context -- it announces a non-CDS1 payload's codec; the receiver
#: checks it against :data:`repro.core.serde.WIRE_IDS`.
FLAG_CODEC = 0x02

_ENVELOPE = struct.Struct("<4sBBiQI")
ENVELOPE_BYTES = _ENVELOPE.size

#: Defensive bound on a single payload; the largest encodable mixture
#: (K = d = 255, full covariance) is ~132 MB below this.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class Envelope:
    """One transport datagram.

    ``trace`` is the optional propagated span context of the operation
    that produced the payload (the site-side chunk-test span); it rides
    the wire behind :data:`FLAG_TRACE` and never changes the format of
    trace-free envelopes.
    """

    kind: int
    site_id: int
    seq: int
    payload: bytes = b""
    trace: SpanContext | None = None
    codec: int = 0

    def wire_bytes(self) -> int:
        """Size of this envelope on the wire."""
        extra = SPAN_CONTEXT_BYTES if self.trace is not None else 0
        if self.codec:
            extra += 1
        return ENVELOPE_BYTES + extra + len(self.payload)


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialise an envelope (header [+ trace context] + payload)."""
    if envelope.kind not in _KINDS:
        raise ValueError(f"unknown envelope kind {envelope.kind}")
    if envelope.kind not in _PAYLOAD_KINDS and envelope.payload:
        raise ValueError("control envelopes cannot carry a payload")
    if envelope.kind != KIND_DATA and envelope.trace is not None:
        raise ValueError(
            "control/telemetry envelopes cannot carry a trace context"
        )
    if envelope.seq < 0:
        raise ValueError("sequence numbers are non-negative")
    if not -(2**31) <= envelope.site_id < 2**31:
        raise ValueError("site_id does not fit the wire format")
    if envelope.codec and envelope.kind != KIND_DATA:
        raise ValueError("only DATA envelopes announce a wire codec")
    if not 0 <= envelope.codec <= 0xFF:
        raise ValueError("codec id does not fit the wire format")
    flags = FLAG_TRACE if envelope.trace is not None else 0
    if envelope.codec:
        flags |= FLAG_CODEC
    header = _ENVELOPE.pack(
        ENVELOPE_MAGIC,
        envelope.kind,
        flags,
        envelope.site_id,
        envelope.seq,
        len(envelope.payload),
    )
    parts = [header]
    if envelope.trace is not None:
        parts.append(encode_span_context(envelope.trace))
    if envelope.codec:
        parts.append(bytes([envelope.codec]))
    parts.append(envelope.payload)
    return b"".join(parts)


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope` for one whole datagram."""
    if len(data) < ENVELOPE_BYTES:
        raise ValueError("datagram shorter than the envelope header")
    magic, kind, flags, site_id, seq, length = _ENVELOPE.unpack_from(data)
    if magic != ENVELOPE_MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a TPT1 envelope")
    if kind not in _KINDS:
        raise ValueError(f"unknown envelope kind {kind}")
    if flags & ~(FLAG_TRACE | FLAG_CODEC):
        raise ValueError(f"unknown envelope flags 0x{flags:02x}")
    offset = ENVELOPE_BYTES
    trace: SpanContext | None = None
    if flags & FLAG_TRACE:
        if len(data) < offset + SPAN_CONTEXT_BYTES:
            raise ValueError("datagram shorter than its declared trace context")
        trace = decode_span_context(data[offset : offset + SPAN_CONTEXT_BYTES])
        offset += SPAN_CONTEXT_BYTES
    codec = 0
    if flags & FLAG_CODEC:
        if kind != KIND_DATA:
            raise ValueError("only DATA envelopes announce a wire codec")
        if len(data) < offset + 1:
            raise ValueError("datagram shorter than its declared codec id")
        codec = data[offset]
        offset += 1
    if len(data) != offset + length:
        raise ValueError(
            f"datagram length {len(data)} does not match the declared "
            f"payload length {length}"
        )
    return Envelope(
        kind=kind,
        site_id=site_id,
        seq=seq,
        payload=data[offset:],
        trace=trace,
        codec=codec,
    )


@dataclass
class StreamDecoder:
    """Incremental envelope re-framer for byte streams.

    Feed arbitrary chunks; complete envelopes come out in order.  A
    corrupt header raises immediately -- there is no resynchronisation
    on a TCP stream (the connection is broken anyway).
    """

    _buffer: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes) -> list[Envelope]:
        """Consume ``data``; return every envelope completed by it."""
        self._buffer.extend(data)
        envelopes: list[Envelope] = []
        while len(self._buffer) >= ENVELOPE_BYTES:
            magic, kind, flags, _site, _seq, length = _ENVELOPE.unpack_from(
                self._buffer
            )
            if magic != ENVELOPE_MAGIC:
                raise ValueError(f"bad magic {magic!r} on the stream")
            if length > MAX_PAYLOAD_BYTES:
                raise ValueError(f"declared payload of {length} bytes is absurd")
            extra = SPAN_CONTEXT_BYTES if flags & FLAG_TRACE else 0
            if flags & FLAG_CODEC:
                extra += 1
            total = ENVELOPE_BYTES + extra + length
            if len(self._buffer) < total:
                break
            frame = bytes(self._buffer[:total])
            del self._buffer[:total]
            envelopes.append(decode_envelope(frame))
        return envelopes
