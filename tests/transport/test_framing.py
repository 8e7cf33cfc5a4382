"""Tests for the TPT1 envelope format and stream re-framing."""

from __future__ import annotations

import pytest

from repro.core.protocol import WeightUpdateMessage
from repro.core.serde import get_codec
from repro.obs.spans import SPAN_CONTEXT_BYTES, SpanContext
from repro.transport.framing import (
    ENVELOPE_BYTES,
    FLAG_CODEC,
    FLAG_TRACE,
    KIND_ACK,
    KIND_DATA,
    KIND_DONE,
    KIND_HEARTBEAT,
    Envelope,
    StreamDecoder,
    decode_envelope,
    encode_envelope,
)


def data_envelope(seq: int = 1, site_id: int = 3) -> Envelope:
    payload = get_codec("cds1").encode(
        WeightUpdateMessage(site_id=site_id, model_id=0, time=7, count_delta=5)
    )
    return Envelope(kind=KIND_DATA, site_id=site_id, seq=seq, payload=payload)


class TestEnvelope:
    def test_data_round_trip(self):
        envelope = data_envelope()
        assert decode_envelope(encode_envelope(envelope)) == envelope

    @pytest.mark.parametrize("kind", [KIND_ACK, KIND_HEARTBEAT, KIND_DONE])
    def test_control_round_trip(self, kind):
        envelope = Envelope(kind=kind, site_id=12, seq=99)
        assert decode_envelope(encode_envelope(envelope)) == envelope

    def test_wire_bytes_matches_encoding(self):
        envelope = data_envelope()
        assert len(encode_envelope(envelope)) == envelope.wire_bytes()
        assert envelope.wire_bytes() == ENVELOPE_BYTES + len(envelope.payload)

    def test_control_envelopes_reject_payloads(self):
        with pytest.raises(ValueError, match="control"):
            encode_envelope(Envelope(kind=KIND_ACK, site_id=0, seq=1, payload=b"x"))

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_envelope(data_envelope()))
        frame[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            decode_envelope(bytes(frame))

    def test_truncated_datagram_rejected(self):
        frame = encode_envelope(data_envelope())
        with pytest.raises(ValueError):
            decode_envelope(frame[:-1])
        with pytest.raises(ValueError):
            decode_envelope(frame[: ENVELOPE_BYTES - 1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            encode_envelope(Envelope(kind=99, site_id=0, seq=0))


class TestTraceContext:
    def test_traced_data_round_trip(self):
        trace = SpanContext(trace_id=0x1234, span_id=0x5678)
        envelope = data_envelope()
        traced = Envelope(
            kind=envelope.kind,
            site_id=envelope.site_id,
            seq=envelope.seq,
            payload=envelope.payload,
            trace=trace,
        )
        decoded = decode_envelope(encode_envelope(traced))
        assert decoded == traced
        assert decoded.trace == trace

    def test_trace_costs_exactly_the_context_bytes(self):
        plain = data_envelope()
        traced = Envelope(
            kind=plain.kind,
            site_id=plain.site_id,
            seq=plain.seq,
            payload=plain.payload,
            trace=SpanContext(trace_id=1, span_id=2),
        )
        assert traced.wire_bytes() == plain.wire_bytes() + SPAN_CONTEXT_BYTES
        assert len(encode_envelope(traced)) == traced.wire_bytes()

    def test_trace_free_wire_format_is_unchanged(self):
        # Runs with observability off must stay byte-identical to the
        # pre-extension format: flags byte zero, no context bytes.
        frame = encode_envelope(data_envelope())
        assert frame[5] == 0
        assert len(frame) == ENVELOPE_BYTES + len(data_envelope().payload)

    def test_flag_trace_is_set_on_the_wire(self):
        traced = Envelope(
            kind=KIND_DATA,
            site_id=0,
            seq=1,
            payload=b"",
            trace=SpanContext(trace_id=1, span_id=2),
        )
        assert encode_envelope(traced)[5] == FLAG_TRACE

    def test_control_envelopes_reject_trace(self):
        with pytest.raises(ValueError, match="control"):
            encode_envelope(
                Envelope(
                    kind=KIND_ACK,
                    site_id=0,
                    seq=1,
                    trace=SpanContext(trace_id=1, span_id=2),
                )
            )

    def test_unknown_flag_bits_rejected(self):
        frame = bytearray(encode_envelope(data_envelope()))
        frame[5] = 0x80
        with pytest.raises(ValueError, match="flags"):
            decode_envelope(bytes(frame))

    def test_truncated_trace_context_rejected(self):
        traced = Envelope(
            kind=KIND_DATA,
            site_id=0,
            seq=1,
            payload=b"",
            trace=SpanContext(trace_id=1, span_id=2),
        )
        frame = encode_envelope(traced)
        with pytest.raises(ValueError, match="trace"):
            decode_envelope(frame[: ENVELOPE_BYTES + SPAN_CONTEXT_BYTES - 4])

    def test_stream_decoder_reframes_traced_envelopes(self):
        envelopes = [
            data_envelope(seq=1),
            Envelope(
                kind=KIND_DATA,
                site_id=3,
                seq=2,
                payload=data_envelope().payload,
                trace=SpanContext(trace_id=9, span_id=10),
            ),
            Envelope(kind=KIND_ACK, site_id=3, seq=2),
        ]
        stream = b"".join(encode_envelope(e) for e in envelopes)
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == envelopes
        assert out[1].trace == SpanContext(trace_id=9, span_id=10)


class TestStreamDecoder:
    def test_reassembles_byte_by_byte(self):
        envelopes = [data_envelope(seq=i) for i in range(1, 4)]
        stream = b"".join(encode_envelope(e) for e in envelopes)
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == envelopes

    def test_mixed_kinds_in_one_chunk(self):
        envelopes = [
            data_envelope(seq=1),
            Envelope(kind=KIND_ACK, site_id=3, seq=1),
            Envelope(kind=KIND_HEARTBEAT, site_id=3, seq=1),
        ]
        stream = b"".join(encode_envelope(e) for e in envelopes)
        assert StreamDecoder().feed(stream) == envelopes

    def test_partial_envelope_stays_buffered(self):
        frame = encode_envelope(data_envelope())
        decoder = StreamDecoder()
        assert decoder.feed(frame[:-5]) == []
        assert len(decoder.feed(frame[-5:])) == 1

    def test_corrupt_stream_raises(self):
        decoder = StreamDecoder()
        with pytest.raises(ValueError, match="magic"):
            decoder.feed(b"garbage-garbage-garbage-garbage")


class TestCodecNegotiation:
    def make(self, codec=2, trace=None):
        plain = data_envelope()
        return Envelope(
            kind=plain.kind,
            site_id=plain.site_id,
            seq=plain.seq,
            payload=plain.payload,
            trace=trace,
            codec=codec,
        )

    def test_codec_round_trip(self):
        envelope = self.make()
        decoded = decode_envelope(encode_envelope(envelope))
        assert decoded == envelope
        assert decoded.codec == 2

    def test_codec_costs_exactly_one_byte(self):
        plain = data_envelope()
        tagged = self.make()
        assert tagged.wire_bytes() == plain.wire_bytes() + 1
        assert len(encode_envelope(tagged)) == tagged.wire_bytes()

    def test_flag_codec_is_set_on_the_wire(self):
        assert encode_envelope(self.make())[5] & FLAG_CODEC

    def test_codec_zero_leaves_the_v1_format_untouched(self):
        # The CDS1 default must stay byte-identical to the pre-CDS2
        # envelope: flags clear, no codec byte.
        frame = encode_envelope(self.make(codec=0))
        assert frame[5] == 0
        assert len(frame) == ENVELOPE_BYTES + len(data_envelope().payload)

    def test_codec_combines_with_trace(self):
        envelope = self.make(trace=SpanContext(trace_id=4, span_id=5))
        decoded = decode_envelope(encode_envelope(envelope))
        assert decoded == envelope
        assert decoded.trace == SpanContext(trace_id=4, span_id=5)
        assert decoded.codec == 2
        assert (
            envelope.wire_bytes()
            == data_envelope().wire_bytes() + SPAN_CONTEXT_BYTES + 1
        )

    def test_control_envelopes_reject_codec(self):
        with pytest.raises(ValueError, match="DATA"):
            encode_envelope(Envelope(kind=KIND_ACK, site_id=0, seq=1, codec=2))

    def test_oversized_codec_id_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            encode_envelope(self.make(codec=300))

    def test_truncated_codec_byte_rejected(self):
        frame = encode_envelope(self.make())
        with pytest.raises(ValueError, match="codec"):
            decode_envelope(frame[: ENVELOPE_BYTES])

    def test_stream_decoder_reframes_codec_envelopes(self):
        envelopes = [
            data_envelope(seq=1),
            self.make(),
            Envelope(kind=KIND_ACK, site_id=3, seq=2),
        ]
        stream = b"".join(encode_envelope(e) for e in envelopes)
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == envelopes
        assert out[1].codec == 2
