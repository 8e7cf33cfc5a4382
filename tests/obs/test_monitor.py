"""Tests for the terminal dashboard (repro.obs.monitor)."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.federation import FederationCollector, NodeTelemetry
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    histogram_from_samples,
    render_cluster_dashboard,
    render_dashboard,
    run_monitor,
)
from repro.obs.observer import Observer
from repro.obs.server import TelemetryServer
from repro.obs.trace import JsonlTraceSink


def sample_health() -> dict:
    return {
        "status": "ok",
        "events": 42,
        "records": 2000,
        "sites": [
            {
                "site": 0, "model": 3, "j_fit": 0.01, "threshold": 0.05,
                "margin": 0.04, "tests": 4, "tests_passed": 4,
                "pass_rate": 1.0, "records": 2000,
            },
            {
                "site": 1, "model": 5, "j_fit": 0.9, "threshold": 0.05,
                "margin": -0.85, "tests": 2, "tests_passed": 0,
                "pass_rate": 0.0, "records": 800,
            },
        ],
        "coordinator": {
            "components": 8, "merges": 2, "splits": 1,
            "churn_rate": 0.0015,
        },
        "accounting": {
            "attempted": 10, "payload_bytes": 8000, "wire_bytes": 8220,
            "bytes_per_record": 4.0,
        },
    }


class TestRenderDashboard:
    def test_renders_core_tiles(self):
        text = render_dashboard(sample_health())
        assert "status=ok" in text
        assert "components=8" in text
        assert "bytes/record=4.0" in text
        assert "+0.0400" in text

    def test_marks_drifting_sites(self):
        text = render_dashboard(sample_health())
        [drift_line] = [l for l in text.splitlines() if "DRIFT" in l]
        assert drift_line.lstrip().startswith("1")

    def test_latency_tiles_from_prometheus_samples(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.04, 0.4):
            registry.histogram("profile.em_fit").observe(value)
        samples = parse_prometheus(to_prometheus(registry))
        text = render_dashboard(sample_health(), samples)
        assert "latency" in text
        assert "EM fit" in text and "p99" in text

    def test_handles_missing_fields(self):
        text = render_dashboard({"status": "ok", "sites": [{"site": 0}]})
        assert "n/a" in text


class TestHistogramFromSamples:
    def test_rebuilds_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        samples = parse_prometheus(to_prometheus(registry))
        rebuilt = histogram_from_samples(samples, "h")
        assert rebuilt.count == 4
        # Same mid-bucket interpolation as the live histogram.
        assert rebuilt.quantile(0.5) == pytest.approx(1.5)

    def test_missing_name_returns_none(self):
        assert histogram_from_samples([], "absent") is None

    def test_merges_labelled_series_per_bound(self):
        """A federated /metrics exposes one series per node; the
        rebuild must sum cumulative counts per ``le`` bound instead of
        letting the last series win."""
        samples = [
            ("h_bucket", {"node": "0", "le": "1.0"}, 2.0),
            ("h_bucket", {"node": "0", "le": "+Inf"}, 2.0),
            ("h_sum", {"node": "0"}, 1.0),
            ("h_count", {"node": "0"}, 2.0),
            ("h_bucket", {"node": "1", "le": "1.0"}, 1.0),
            ("h_bucket", {"node": "1", "le": "+Inf"}, 3.0),
            ("h_sum", {"node": "1"}, 9.0),
            ("h_count", {"node": "1"}, 3.0),
        ]
        rebuilt = histogram_from_samples(samples, "h")
        assert rebuilt.count == 5
        assert rebuilt.total == pytest.approx(10.0)
        # 3 of 5 observations at or below 1.0, 2 above.
        assert rebuilt.bucket_counts == [3, 2]
        for q in (0.5, 0.9, 0.99):
            assert math.isfinite(rebuilt.quantile(q))

    def test_single_occupied_bucket_quantile_is_finite(self):
        """Regression: all observations in one interior bucket used to
        make the latency tile print NaN (satellite 6)."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(4):
            histogram.observe(1.5)
        rebuilt = histogram_from_samples(
            parse_prometheus(to_prometheus(registry)), "h"
        )
        for source in (histogram, rebuilt):
            for q in (0.5, 0.9, 0.99):
                value = source.quantile(q)
                assert math.isfinite(value)
                assert 1.0 <= value <= 2.0

    def test_latency_tile_never_prints_nan(self):
        registry = MetricsRegistry()
        registry.histogram("profile.em_fit").observe(0.02)
        samples = parse_prometheus(to_prometheus(registry))
        text = render_dashboard(sample_health(), samples)
        assert "EM fit" in text
        assert "nan" not in text.lower()


class TestRunMonitor:
    def test_polls_a_live_server(self):
        health = HealthMonitor()
        observer = Observer(sink=health)
        observer.event(
            "site.chunk_test",
            site=0, model=1, passed=True,
            j_fit=0.02, threshold=0.05, chunk=500,
        )
        with TelemetryServer(observer, health=health) as server:
            out = io.StringIO()
            code = run_monitor(
                url=server.url, iterations=1, clear=False, out=out
            )
        assert code == 0
        assert "status=ok" in out.getvalue()
        assert "+0.0300" in out.getvalue()

    def test_replays_a_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = Observer(sink=JsonlTraceSink(path))
        observer.event(
            "site.chunk_test",
            site=2, model=1, passed=False,
            j_fit=0.8, threshold=0.05, chunk=500,
        )
        observer.close()
        out = io.StringIO()
        code = run_monitor(trace=str(path), clear=False, out=out)
        assert code == 0
        assert "DRIFT" in out.getvalue()

    def test_unreachable_server_fails_cleanly(self):
        out = io.StringIO()
        code = run_monitor(
            url="http://127.0.0.1:9", iterations=1, clear=False, out=out
        )
        assert code == 1
        assert "cannot reach" in out.getvalue()

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            run_monitor()
        with pytest.raises(ValueError):
            run_monitor(url="http://x", trace="y")

    def test_clear_emits_ansi_escape(self):
        health = HealthMonitor()
        observer = Observer(sink=health)
        with TelemetryServer(observer, health=health) as server:
            out = io.StringIO()
            run_monitor(url=server.url, iterations=1, clear=True, out=out)
        assert out.getvalue().startswith("\x1b[2J")


def sample_cluster() -> FederationCollector:
    collector = FederationCollector(
        topology=[
            {"node_id": 0, "role": "aggregator", "level": 0,
             "parent_id": None},
            {"node_id": 1, "role": "aggregator", "level": 1, "parent_id": 0},
            {"node_id": 10, "role": "site", "level": 2, "parent_id": 1},
        ]
    )
    collector.ingest_report(NodeTelemetry(
        node_id=0, role="aggregator", level=0, pid=100, seq=1,
        gauges={"components": 4.0},
    ))
    collector.ingest_report(NodeTelemetry(
        node_id=1, role="aggregator", level=1, pid=101, seq=1,
        uplink={"payloads_sent": 2, "payload_bytes": 150,
                "wire_bytes": 200, "retransmissions": 0},
    ))
    collector.ingest_report(NodeTelemetry(
        node_id=10, role="site", level=2, pid=102, seq=1, records=400,
        uplink={"payloads_sent": 4, "payload_bytes": 700,
                "wire_bytes": 800, "retransmissions": 1},
    ))
    return collector


class TestRenderClusterDashboard:
    def test_renders_topology_and_levels(self):
        collector = sample_cluster()
        text = render_cluster_dashboard(
            collector.rollup(), collector.nodes_view()
        )
        assert "status=ok" in text
        assert "nodes=3/3 live" in text
        assert "records=400" in text
        lines = text.splitlines()
        # Children indent under their parents: site 10 under agg 1.
        (root_line,) = [l for l in lines if "node   0 aggregator" in l]
        (site_line,) = [l for l in lines if "node  10 site" in l]
        indent = len(site_line) - len(site_line.lstrip())
        assert indent > len(root_line) - len(root_line.lstrip())
        # Per-level byte table rides along.
        assert "B/rec" in text
        assert "800B" in text

    def test_tolerates_missing_nodes_view(self):
        text = render_cluster_dashboard(sample_cluster().rollup(), None)
        assert "status=ok" in text


class TestRunMonitorCluster:
    def test_polls_cluster_endpoints(self):
        collector = sample_cluster()
        server = TelemetryServer(Observer(), federation=collector).start()
        try:
            out = io.StringIO()
            code = run_monitor(
                url=server.url, cluster=True, iterations=1,
                clear=False, out=out,
            )
        finally:
            server.close()
        assert code == 0
        assert "cluster monitor" in out.getvalue()
        assert "nodes=3/3 live" in out.getvalue()

    def test_cluster_mode_requires_url(self):
        with pytest.raises(ValueError, match="cluster"):
            run_monitor(trace="x", cluster=True)


class TestSparkline:
    def test_fixed_width_resampling(self):
        from repro.obs.monitor import sparkline

        assert len(sparkline(list(range(100)), width=16)) == 16
        assert len(sparkline([1.0], width=8)) == 8 or sparkline([1.0], width=8)

    def test_empty_series_renders_spaces(self):
        from repro.obs.monitor import sparkline

        assert sparkline([], width=10) == " " * 10

    def test_rising_series_uses_rising_blocks(self):
        from repro.obs.monitor import sparkline

        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert line[0] < line[-1]
        assert line[-1] == "█"

    def test_width_validated(self):
        from repro.obs.monitor import sparkline

        with pytest.raises(ValueError, match="got 0"):
            sparkline([1.0], width=0)


class TestHistoryPane:
    def history_state(self) -> dict:
        return {
            "summary": {
                "retained": 9, "start": 4, "horizon": 40, "evictions": 5,
            },
            "series": {"components": [[10, 2], [20, 3], [40, 4]]},
        }

    def test_dashboard_gains_a_history_pane(self):
        text = render_dashboard(sample_health(), history=self.history_state())
        assert "history (reign record):" in text
        assert "retained=9 reigns  start=4  horizon=40  evicted=5" in text

    def test_pane_absent_without_history(self):
        assert "history" not in render_dashboard(sample_health())

    def test_empty_history_says_so(self):
        text = render_dashboard(sample_health(), history={})
        assert "(no reigns recorded yet)" in text

    def test_cluster_dashboard_renders_rollup_sparklines(self):
        collector = sample_cluster()
        rollup = {
            "retained": 20, "evictions": 3, "horizon": 900,
            "per_node": [
                {"node": 0, "role": "aggregator",
                 "history": {"retained": 12,
                             "components": [[100, 2], [900, 4]]}},
            ],
        }
        text = render_cluster_dashboard(
            collector.rollup(), collector.nodes_view(), history=rollup
        )
        assert "history: retained=20" in text
        assert "retained=12" in text
