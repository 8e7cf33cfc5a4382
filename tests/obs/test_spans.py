"""Unit tests for the causal span model (repro.obs.spans)."""

from __future__ import annotations

import json

import pytest

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.spans import (
    SPAN_CONTEXT_BYTES,
    NULL_SCOPE,
    Span,
    SpanCollector,
    SpanContext,
    SpanRecord,
    SpanTracer,
    decode_span_context,
    encode_span_context,
    spans_from_events,
    to_chrome_trace,
)
from repro.obs.trace import RingBufferSink, TraceEvent


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def make_tracer(origin: int = 0):
    finished: list[Span] = []
    tracer = SpanTracer(
        emit=finished.append, time_source=ManualClock(), origin=origin
    )
    return tracer, finished


class TestSpanContext:
    def test_wire_round_trip(self):
        context = SpanContext(trace_id=2**63 + 5, span_id=42)
        data = encode_span_context(context)
        assert len(data) == SPAN_CONTEXT_BYTES == 16
        assert decode_span_context(data) == context

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            SpanContext(trace_id=-1, span_id=0)
        with pytest.raises(ValueError):
            SpanContext(trace_id=0, span_id=2**64)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode_span_context(b"\x00" * 8)


class TestSpanTracer:
    def test_root_span_is_its_own_trace(self):
        tracer, finished = make_tracer()
        with tracer.scope("root", {}) as span:
            assert span.context.trace_id == span.context.span_id
            assert span.parent_id is None
        assert [s.name for s in finished] == ["root"]

    def test_nested_spans_share_the_trace(self):
        tracer, finished = make_tracer()
        with tracer.scope("outer", {}) as outer:
            with tracer.scope("inner", {}) as inner:
                assert inner.context.trace_id == outer.context.trace_id
                assert inner.parent_id == outer.context.span_id
        # Emitted innermost-first (finish order).
        assert [s.name for s in finished] == ["inner", "outer"]

    def test_sequential_roots_get_distinct_traces(self):
        tracer, finished = make_tracer()
        with tracer.scope("a", {}):
            pass
        with tracer.scope("b", {}):
            pass
        assert finished[0].context.trace_id != finished[1].context.trace_id

    def test_ids_are_deterministic(self):
        ids = []
        for _ in range(2):
            tracer, finished = make_tracer()
            with tracer.scope("a", {}):
                with tracer.scope("b", {}):
                    pass
            ids.append([s.context.span_id for s in finished])
        assert ids[0] == ids[1]

    def test_origin_prefixes_the_span_id(self):
        tracer, finished = make_tracer(origin=3)
        with tracer.scope("a", {}):
            pass
        assert finished[0].context.span_id == (3 << 40) | 1

    def test_remote_scope_adopts_the_remote_trace(self):
        tracer, finished = make_tracer()
        remote = SpanContext(trace_id=0xABC, span_id=0xDEF)
        with tracer.remote_scope(remote):
            with tracer.scope("child", {}):
                pass
        assert finished[0].context.trace_id == 0xABC
        assert finished[0].parent_id == 0xDEF

    def test_remote_scope_of_none_is_null(self):
        tracer, _ = make_tracer()
        assert tracer.remote_scope(None) is NULL_SCOPE

    def test_error_status_on_exception(self):
        tracer, finished = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.scope("boom", {}):
                raise RuntimeError("x")
        assert finished[0].status == "error"

    def test_detached_span_does_not_join_the_stack(self):
        tracer, finished = make_tracer()
        with tracer.scope("active", {}) as active:
            detached = tracer.start_detached("bg")
            # Detached spans default their parent to the active span...
            assert detached.parent_id == active.context.span_id
            # ...but do not become the propagation context.
            assert tracer.current_context() == active.context
        tracer.event_on(detached, "tick", {"n": 1})
        tracer.finish(detached, "ok")
        assert finished[-1].events[0]["name"] == "tick"

    def test_add_event_targets_innermost_span(self):
        tracer, finished = make_tracer()
        with tracer.scope("outer", {}):
            with tracer.scope("inner", {}):
                tracer.add_event("hit", {"k": "v"})
        inner = next(s for s in finished if s.name == "inner")
        outer = next(s for s in finished if s.name == "outer")
        assert inner.events and inner.events[0]["k"] == "v"
        assert not outer.events


class TestSpanEventsAndRecords:
    def test_span_event_round_trip(self):
        tracer, finished = make_tracer()
        with tracer.scope("op", {"site": 2}) as span:
            span.add_event("retransmit", 1.5, {"attempt": 2})
        fields = finished[0].to_fields()
        # Survives JSON (what the JSONL sink does).
        fields = json.loads(json.dumps(fields))
        record = SpanRecord.from_event(
            TraceEvent(seq=1, time=0.0, type="span", fields=fields)
        )
        assert record.name == "op"
        assert record.attributes == {"site": 2}
        assert record.events[0]["name"] == "retransmit"
        assert record.context == finished[0].context

    def test_from_event_rejects_non_span(self):
        with pytest.raises(ValueError):
            SpanRecord.from_event(
                TraceEvent(seq=1, time=0.0, type="other", fields={})
            )

    def test_spans_from_events_filters(self):
        tracer, finished = make_tracer()
        with tracer.scope("op", {}):
            pass
        events = [
            TraceEvent(seq=1, time=0.0, type="noise", fields={}),
            TraceEvent(
                seq=2, time=0.0, type="span", fields=finished[0].to_fields()
            ),
        ]
        assert [r.name for r in spans_from_events(events)] == ["op"]


class TestObserverSpans:
    def test_observer_emits_span_trace_events(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        with observer.span("site.chunk_test", site=0):
            pass
        [event] = [e for e in sink.events if e.type == "span"]
        assert event.fields["name"] == "site.chunk_test"

    def test_null_observer_span_api_is_inert(self):
        with NULL_OBSERVER.span("anything") as nothing:
            assert nothing is None
        assert NULL_OBSERVER.span_context() is None
        assert NULL_OBSERVER.start_span("x") is None
        NULL_OBSERVER.finish_span(None)
        NULL_OBSERVER.span_event_on(None, "e")
        assert NULL_OBSERVER.remote_parent(None) is NULL_SCOPE


class TestSpanCollector:
    def test_collects_only_span_events(self):
        collector = SpanCollector(capacity=4)
        observer = Observer(sink=collector)
        observer.event("noise", x=1)
        with observer.span("kept"):
            pass
        assert len(collector) == 1
        assert collector.spans()[0].name == "kept"

    def test_capacity_bounds_the_store(self):
        collector = SpanCollector(capacity=2)
        observer = Observer(sink=collector)
        for index in range(5):
            with observer.span(f"s{index}"):
                pass
        assert [r.name for r in collector.spans()] == ["s3", "s4"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SpanCollector(capacity=0)


class TestChromeTrace:
    def collect(self):
        collector = SpanCollector()
        observer = Observer(sink=collector)
        with observer.span("site.chunk_test", site=0):
            context = observer.span_context()
        with observer.remote_parent(context):
            with observer.span("coord.update", site=0):
                observer.span_event("retransmit", attempt=1)
        return collector.spans()

    def test_round_trips_through_json(self):
        payload = to_chrome_trace(self.collect())
        decoded = json.loads(json.dumps(payload))
        assert decoded["traceEvents"]

    def test_cross_process_parent_becomes_flow_arrows(self):
        events = to_chrome_trace(self.collect())["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("s") == 1 and phases.count("f") == 1
        start = next(e for e in events if e["ph"] == "s")
        finish = next(e for e in events if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert start["pid"] != finish["pid"]

    def test_span_point_events_become_instants(self):
        events = to_chrome_trace(self.collect())["traceEvents"]
        [instant] = [e for e in events if e["ph"] == "i"]
        assert instant["name"].endswith("retransmit")

    def test_processes_get_metadata_names(self):
        events = to_chrome_trace(self.collect())["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"coordinator", "site-0"}
