"""Tests for the stdlib HTTP telemetry server (repro.obs.server)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.observer import Observer
from repro.obs.server import TelemetryServer
from repro.obs.spans import SpanCollector
from repro.obs.trace import MultiSink, RingBufferSink


@pytest.fixture()
def stack():
    health = HealthMonitor()
    spans = SpanCollector()
    observer = Observer(sink=MultiSink([RingBufferSink(), health, spans]))
    observer.inc("site.chunk_tests", site=0, result="pass")
    observer.observe("profile.em_fit", 0.25)
    with observer.span("site.chunk_test", site=0):
        context = observer.span_context()
    with observer.remote_parent(context):
        with observer.span("coord.update", site=0):
            pass
    observer.event(
        "site.chunk_test",
        site=0, model=1, passed=True, j_fit=0.01, threshold=0.05, chunk=100,
    )
    server = TelemetryServer(
        observer,
        health=health,
        spans=spans,
        snapshot=lambda: {"sites": [], "coordinator": {"components": 4}},
    ).start()
    yield server
    server.close()


def fetch(server: TelemetryServer, path: str) -> bytes:
    with urllib.request.urlopen(server.url + path, timeout=5) as response:
        return response.read()


class TestEndpoints:
    def test_metrics_is_valid_prometheus(self, stack):
        text = fetch(stack, "/metrics").decode()
        samples = parse_prometheus(text)
        names = {name for name, _, _ in samples}
        assert "site_chunk_tests_total" in names
        # Health gauges are published into the registry on scrape.
        assert "health_site_margin" in names

    def test_health_reports_site_gauges(self, stack):
        payload = json.loads(fetch(stack, "/health"))
        assert payload["status"] == "ok"
        [site] = payload["sites"]
        assert site["margin"] == pytest.approx(0.04)

    def test_snapshot_uses_the_provider(self, stack):
        payload = json.loads(fetch(stack, "/snapshot"))
        assert payload["coordinator"]["components"] == 4

    def test_spans_is_a_chrome_trace(self, stack):
        payload = json.loads(fetch(stack, "/spans"))
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"site.chunk_test", "coord.update"} <= names

    def test_root_serves_metrics(self, stack):
        assert fetch(stack, "/") == fetch(stack, "/metrics")

    def test_unknown_path_is_404(self, stack):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(stack, "/nope")
        assert excinfo.value.code == 404


class TestLifecycle:
    def test_ephemeral_port_is_reported(self):
        server = TelemetryServer(Observer())
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = TelemetryServer(Observer()).start()
        server.close()
        server.close()

    def test_context_manager(self):
        with TelemetryServer(Observer()) as server:
            assert fetch(server, "/metrics") == b""

    def test_bare_server_serves_fallbacks(self):
        with TelemetryServer(Observer()) as server:
            health = json.loads(fetch(server, "/health"))
            assert health["status"] == "ok"
            spans = json.loads(fetch(server, "/spans"))
            assert spans == {"traceEvents": [], "lastId": 0, "count": 0}
            snapshot = json.loads(fetch(server, "/snapshot"))
            assert "detail" in snapshot


class TestHistoryEndpoints:
    @pytest.fixture()
    def history_server(self):
        from repro.obs.history import ModelHistory

        history = ModelHistory(scope="coordinator")
        for tick in range(1, 41):
            components = 1 + tick // 10
            history.observe(tick, {
                "components": components,
                "weights": [1.0 / components] * components,
                "counters": {"merges": tick // 7},
                "gauges": {"components": components},
            })
        server = TelemetryServer(Observer(), history=history).start()
        yield server
        server.close()

    def fetch_json(self, server, path):
        return json.loads(fetch(server, path))

    def fetch_error(self, server, path) -> tuple[int, str]:
        try:
            fetch(server, path)
        except urllib.error.HTTPError as err:
            return err.code, err.read().decode()
        raise AssertionError(f"{path} unexpectedly succeeded")

    def test_history_summary(self, history_server):
        summary = self.fetch_json(history_server, "/history")
        assert summary["scope"] == "coordinator"
        assert summary["horizon"] == 40
        assert summary["retained"] == len(summary["reigns"]) - 1
        assert summary["reigns"][0][0] == summary["start"] == 1
        assert "components" in summary["gauges"]

    def test_history_model_at(self, history_server):
        answer = self.fetch_json(history_server, "/history?t=25")
        assert answer["t"] == 25
        assert answer["start"] <= 25 < answer["end"]
        assert answer["summary"]["components"] >= 1

    def test_history_drift_with_window(self, history_server):
        report = self.fetch_json(history_server, "/history/drift?t0=5&t1=35")
        assert report["t0"] == 5 and report["t1"] == 35
        assert set(report["components"]) == {"from", "to", "delta"}
        assert "weight_transport" in report

    def test_history_drift_defaults_to_the_retained_range(self, history_server):
        report = self.fetch_json(history_server, "/history/drift")
        assert report["t0"] == 1 and report["t1"] == 40
        assert report["change_points"][-1] == 40

    def test_history_series(self, history_server):
        body = self.fetch_json(
            history_server, "/history/series?name=components&t0=10&t1=30"
        )
        assert body["name"] == "components"
        assert body["points"]
        for tick, _ in body["points"]:
            assert 10 <= tick <= 30

    def test_negative_time_is_a_400_naming_the_value(self, history_server):
        code, body = self.fetch_error(history_server, "/history?t=-3")
        assert code == 400
        assert "got -3" in body

    def test_non_integer_parameter_is_a_400(self, history_server):
        code, body = self.fetch_error(history_server, "/history?t=zzz")
        assert code == 400
        assert "must be an integer" in body

    def test_reversed_drift_window_is_a_400_naming_both_values(
        self, history_server
    ):
        code, body = self.fetch_error(
            history_server, "/history/drift?t0=30&t1=5"
        )
        assert code == 400
        assert "[30, 5)" in body

    def test_history_endpoints_404_without_history(self):
        with TelemetryServer(Observer()) as server:
            for path in ("/history", "/history/drift", "/history/series"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    fetch(server, path)
                assert err.value.code == 404

    def test_metrics_include_retention_gauges(self, history_server):
        samples = parse_prometheus(fetch(history_server, "/metrics").decode())
        names = {name for name, _, _ in samples}
        assert "history_retained" in names
        assert "history_evictions" in names
