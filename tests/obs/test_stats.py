"""Unit tests for trace summarisation (the `stats` subcommand core)."""

from __future__ import annotations

from repro.obs.stats import format_summary, summarize_events, summarize_trace
from repro.obs.trace import JsonlTraceSink, TraceEvent


def make_events() -> list[TraceEvent]:
    raw = [
        ("site.chunk_test", {"site": 0, "passed": True}),
        ("site.chunk_test", {"site": 0, "passed": False}),
        ("site.chunk_test", {"site": 1, "passed": True}),
        ("site.cluster", {"site": 0, "model": 1}),
        ("site.reactivate", {"site": 1, "model": 0}),
        ("site.archive", {"site": 0, "model": 0}),
        ("site.expire", {"site": 0, "model": 0}),
        ("em.fit", {"records": 100, "n_iter": 7}),
        ("em.fit", {"records": 100, "n_iter": 3}),
        ("coord.model_update", {"site": 0}),
        ("coord.weight_update", {"site": 0}),
        ("coord.deletion", {"site": 0}),
        (
            "coord.merge",
            {"a": 1, "b": 2, "simplex_iterations": 120, "simplex_evaluations": 179},
        ),
        ("coord.split", {"site": 0}),
        ("transport.evict", {"site": 1}),
        ("transport.send", {"site": 0, "seq": 1}),
        ("transport.retransmit", {"site": 0, "seq": 1}),
        ("transport.heartbeat", {"site": 0}),
        ("transport.deliver", {"site": 0, "seq": 1}),
        ("transport.duplicate", {"site": 0, "seq": 1}),
        # Emitted before 1.18.0 only; now counted in ``events`` alone.
        ("transport.expired", {"site": 0, "seq": 9}),
        ("fault.drop", {"direction": "uplink"}),
        ("fault.duplicate", {"direction": "uplink"}),
        ("fault.reorder", {"direction": "downlink"}),
        ("fault.partition", {"direction": "uplink"}),
    ]
    return [
        TraceEvent(seq=i, time=float(i), type=type_, fields=fields)
        for i, (type_, fields) in enumerate(raw, start=1)
    ]


class TestSummarizeEvents:
    def test_per_site_counts(self):
        summary = summarize_events(make_events())
        site0 = summary.sites[0]
        assert site0.chunk_tests_passed == 1
        assert site0.chunk_tests_failed == 1
        assert site0.chunk_tests == 2
        assert site0.clusterings == 1
        assert site0.archives == 1
        assert site0.expirations == 1
        assert summary.sites[1].reactivations == 1
        assert sum(s.chunk_tests for s in summary.sites.values()) == 3

    def test_system_wide_counts(self):
        summary = summarize_events(make_events())
        assert summary.events == 25
        assert summary.em_fits == 2
        assert summary.em_iterations == 10
        assert summary.model_updates == 1
        assert summary.weight_updates == 1
        assert summary.deletions == 1
        assert summary.merges == 1
        assert summary.simplex_iterations == 120
        assert summary.simplex_evaluations == 179
        assert summary.splits == 1
        assert summary.evictions == 1
        assert summary.sends == 1
        assert summary.retransmissions == 1
        assert summary.heartbeats == 1
        assert summary.delivered == 1
        assert summary.duplicates_suppressed == 1
        assert summary.fault_drops == 1
        assert summary.fault_duplicates == 1
        assert summary.fault_reorders == 1
        assert summary.fault_partition_drops == 1

    def test_unknown_event_types_still_counted(self):
        summary = summarize_events(
            [TraceEvent(1, 0.0, "custom.thing", {"x": 1})]
        )
        assert summary.events == 1
        assert summary.sites == {}

    def test_empty_trace(self):
        summary = summarize_events([])
        assert summary.events == 0
        assert summary.sites == {}


class TestSummarizeTrace:
    def test_reads_a_jsonl_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        for item in make_events():
            sink.write(item)
        sink.close()
        summary = summarize_trace(path)
        assert summary.events == 25
        assert summary.sites[0].chunk_tests == 2


class TestFormatSummary:
    def test_renders_all_sections(self):
        text = format_summary(summarize_events(make_events()))
        assert "trace events: 25" in text
        assert "sites:" in text
        assert "em: fits=2 iterations=10 mean_iter=5.0" in text
        assert "merges=1 splits=1" in text
        assert (
            "merge fit: simplex_iterations=120 simplex_evaluations=179 "
            "evaluations_per_merge=179.0" in text
        )
        assert "retransmissions=1" in text
        assert "faults:" in text

    def test_fault_section_omitted_when_clean(self):
        text = format_summary(summarize_events([]))
        assert "faults:" not in text
        assert "merge fit:" not in text
        assert "sites:" not in text


class TestDriftFromTrace:
    def recorded_history(self, tmp_path, scope="coordinator"):
        from repro.obs.history import ModelHistory
        from repro.obs.observer import Observer

        trace = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(trace)
        history = ModelHistory(scope=scope)
        history.observer = Observer(sink=sink)
        # The summary changes at every tenth and every 25th tick: twelve
        # closed reigns, the last closing at tick 100, and an open one.
        for tick in range(1, 101):
            components = 1 + tick // 25
            history.observe(tick, {
                "components": components,
                "weights": [1.0 / components] * components,
                "counters": {"merges": tick // 10},
                "gauges": {"components": components},
            })
        sink.close()
        return history, str(trace)

    def test_history_snapshots_counted_and_rendered(self, tmp_path):
        _, trace = self.recorded_history(tmp_path)
        summary = summarize_trace(trace)
        assert summary.history_reigns == 12
        assert "history: reigns=12" in format_summary(summary)

    def test_offline_fold_matches_the_live_endpoint(self, tmp_path):
        # Satellite contract: `repro stats --window` folds the trace
        # through the same retention and drift analytics as the live
        # /history/drift endpoint, so the answers are identical.
        from repro.obs.stats import drift_from_trace

        history, trace = self.recorded_history(tmp_path)
        # Windows inside the closed reigns and into the open one.
        for t0, t1 in ((10, 90), (10, 100), (100, 500)):
            live = history.drift_between(t0, t1)
            offline = drift_from_trace(trace, t0, t1)
            assert offline.pop("scope") == "coordinator"
            assert offline.pop("reigns") == len(history)
            assert offline == live

    def test_prefers_the_coordinator_scope(self, tmp_path):
        from repro.obs.history import ModelHistory
        from repro.obs.observer import Observer
        from repro.obs.stats import drift_from_trace

        trace = tmp_path / "mixed.jsonl"
        sink = JsonlTraceSink(trace)
        observer = Observer(sink=sink)
        site = ModelHistory(scope="site:0")
        coord = ModelHistory(scope="coordinator")
        site.observer = observer
        coord.observer = observer
        for tick in range(1, 51):
            site.observe(tick, {"components": 2, "tick": tick // 10})
            coord.observe(tick, {"components": 5, "tick": tick // 10})
        sink.close()
        report = drift_from_trace(str(trace), 5, 45)
        assert report["scope"] == "coordinator"
        assert report["components"]["to"] == 5
        scoped = drift_from_trace(str(trace), 5, 45, scope="site:0")
        assert scoped["components"]["to"] == 2

    def test_trace_without_history_raises_with_guidance(self, tmp_path):
        import pytest

        trace = tmp_path / "plain.jsonl"
        sink = JsonlTraceSink(trace)
        for event in make_events():
            sink.write(event)
        sink.close()
        from repro.obs.stats import drift_from_trace

        with pytest.raises(ValueError, match="--history"):
            drift_from_trace(str(trace), 0, 10)

    def test_format_drift_renders_the_report(self, tmp_path):
        from repro.obs.stats import drift_from_trace, format_drift

        _, trace = self.recorded_history(tmp_path)
        text = format_drift(drift_from_trace(trace, 10, 90))
        assert "drift window [10, 90]" in text
        assert "components:" in text
        assert "weight transport:" in text
