"""Unit tests for trace events and sinks."""

from __future__ import annotations

import io
import logging

import pytest

from repro.obs.trace import (
    JsonlTraceSink,
    LoggingTraceSink,
    MultiSink,
    RingBufferSink,
    TraceEvent,
    TruncatedTraceWarning,
    read_trace,
)


def event(seq: int = 1, type_: str = "site.chunk_test", **fields) -> TraceEvent:
    return TraceEvent(seq=seq, time=0.25, type=type_, fields=fields)


class TestTraceEvent:
    def test_json_round_trip(self):
        original = event(seq=7, site=3, passed=True, j_fit=-1.5)
        decoded = TraceEvent.from_json(original.to_json())
        assert decoded == original

    def test_json_is_canonical(self):
        # Same logical event -> same bytes regardless of kwargs order.
        a = TraceEvent(1, 0.0, "t", {"x": 1, "y": 2})
        b = TraceEvent(1, 0.0, "t", {"y": 2, "x": 1})
        assert a.to_json() == b.to_json()
        assert " " not in a.to_json()


class TestJsonlSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write(event(seq=1))
        sink.write(event(seq=2))
        sink.close()
        assert sink.events_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_appends_to_an_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            sink = JsonlTraceSink(path)
            sink.write(event())
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write(event())
        sink.close()
        assert path.exists()

    def test_accepts_an_open_stream(self):
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        sink.write(event())
        sink.close()  # must not close a stream it does not own
        assert stream.getvalue().count("\n") == 1


class TestRingBufferSink:
    def test_keeps_only_the_last_capacity_events(self):
        sink = RingBufferSink(capacity=3)
        for seq in range(1, 6):
            sink.write(event(seq=seq))
        assert [e.seq for e in sink.events] == [3, 4, 5]
        assert len(sink) == 3

    def test_clear_and_capacity_validation(self):
        sink = RingBufferSink()
        sink.write(event())
        sink.clear()
        assert len(sink) == 0
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestLoggingSink:
    def test_forwards_at_debug(self, caplog):
        sink = LoggingTraceSink()
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            sink.write(event(site=1))
        assert "site.chunk_test" in caplog.text

    def test_silent_above_debug(self, caplog):
        sink = LoggingTraceSink()
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            sink.write(event())
        assert caplog.text == ""


class TestMultiSink:
    def test_fans_out(self):
        a, b = RingBufferSink(), RingBufferSink()
        multi = MultiSink([a, b])
        multi.write(event())
        multi.flush()
        multi.close()
        assert len(a) == len(b) == 1


class TestReadTrace:
    def test_reads_back_what_was_written(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        events = [event(seq=s, site=s) for s in range(1, 4)]
        for item in events:
            sink.write(item)
        sink.close()
        assert list(read_trace(path)) == events

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(event().to_json() + "\n\n" + event(seq=2).to_json() + "\n")
        assert len(list(read_trace(path))) == 2

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        # A malformed line *followed by more data* is corruption, not a
        # torn tail: it must still raise.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            event().to_json() + "\nnot json\n" + event(seq=2).to_json() + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(path))

    def test_torn_trailing_line_is_skipped_with_warning(self, tmp_path):
        # A writer killed mid-record leaves a truncated final line; the
        # reader keeps every complete event and warns instead of dying.
        path = tmp_path / "trace.jsonl"
        full = [event(seq=s) for s in (1, 2)]
        torn = event(seq=3).to_json()[:17]
        path.write_text("\n".join(e.to_json() for e in full) + "\n" + torn)
        with pytest.warns(TruncatedTraceWarning, match="line 3"):
            events = list(read_trace(path))
        assert events == full

    def test_torn_half_key_trailing_line_is_skipped(self, tmp_path):
        # Truncation can also land mid-structure after valid JSON parses
        # (e.g. a bare fragment missing required keys).
        path = tmp_path / "trace.jsonl"
        path.write_text(event().to_json() + "\n" + '{"type": "x"')
        with pytest.warns(TruncatedTraceWarning):
            events = list(read_trace(path))
        assert len(events) == 1
