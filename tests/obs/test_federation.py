"""Tests for cluster-wide telemetry federation (repro.obs.federation)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.protocol import WeightUpdateMessage
from repro.obs.federation import (
    FederationCollector,
    FederationPublisher,
    NodeTelemetry,
    TelemetryRelay,
    process_resources,
    publish_process_resources,
    topology_from_spec,
    uplink_report,
)
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.server import TelemetryServer
from repro.obs.spans import SpanCollector
from repro.obs.trace import MultiSink
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from tests.cluster.trees import wire_edge


def make_report(node_id=1, seq=1, pid=100, role="site", level=2, **extra):
    return NodeTelemetry(
        node_id=node_id, role=role, level=level, pid=pid, seq=seq, **extra
    )


class TestNodeTelemetry:
    def test_payload_round_trip(self):
        report = make_report(
            records=500,
            health={"status": "ok", "records": 500},
            resources={"rss_bytes": 1024},
            uplink={"wire_bytes": 42},
            gauges={"models": 2.0},
            endpoints={"tcp": {"host": "127.0.0.1", "port": 9000}},
            spans=({"name": "site.chunk_test", "span": "01"},),
        )
        assert NodeTelemetry.from_payload(report.to_payload()) == report

    def test_junk_payloads_raise_value_error(self):
        for junk in (b"", b"\xff\xfe", b"{}", b'{"kind": "nope"}',
                     b'[1, 2]', b'{"kind": "node_telemetry", "format": 99}'):
            with pytest.raises(ValueError):
                NodeTelemetry.from_payload(junk)


def _with(**fields) -> bytes:
    """A valid second report of node 1 with ``fields`` overwritten."""
    payload = json.loads(make_report(seq=2, history={"retained": 1}).to_payload())
    payload.update(fields)
    return json.dumps(payload).encode()


#: Reports that once raised out of ``ingest`` (the first three) or were
#: stored and then broke ``rollup`` / ``history_rollup`` (the last two).
MALFORMED = {
    "no_node": b'{"kind":"node_telemetry","format":1}',
    "null_level": _with(level=None),
    "int_spans": _with(spans=5),
    "list_health": _with(health=[1]),
    "list_history": _with(history=[3]),
}


class TestMalformedReports:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_decoding_raises_value_error(self, payload):
        with pytest.raises(ValueError, match="telemetry"):
            NodeTelemetry.from_payload(payload)

    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_collector_rejects_and_keeps_answering(self, payload):
        collector = FederationCollector(clock=lambda: 0.0)
        assert collector.ingest(make_report().to_payload()) is not None
        assert collector.ingest(payload) is None
        assert (collector.ingested, collector.rejected) == (1, 1)
        server = TelemetryServer(Observer(), federation=collector)
        assert server.route("/cluster/health")("")["nodes"]["reporting"] == 1
        assert server.route("/cluster/history")("")["nodes"] == 0

    @pytest.mark.parametrize(
        "field, value",
        [("node", 1.5), ("pid", True), ("seq", "3"), ("records", None),
         ("resources", []), ("uplink", 7), ("gauges", None),
         ("endpoints", "x")],
    )
    def test_every_typed_field_is_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            NodeTelemetry.from_payload(_with(**{field: value}))

    def test_null_health_and_history_stay_allowed(self):
        report = NodeTelemetry.from_payload(_with(health=None, history=None))
        assert report.health is None and report.history is None


class TestProcessResources:
    def test_gauges_are_positive_on_linux(self):
        resources = process_resources()
        assert resources["rss_bytes"] is None or resources["rss_bytes"] > 0
        assert resources["cpu_seconds"] is None or resources["cpu_seconds"] >= 0

    def test_publish_into_registry(self):
        registry = MetricsRegistry()
        publish_process_resources(registry)
        names = {name for _, name, _, _ in registry.collect()}
        assert any(name.startswith("process.") for name in names)


class TestPublisher:
    def test_seq_increments_per_flush(self):
        publisher = FederationPublisher(3, "site", 2)
        first = NodeTelemetry.from_payload(publisher.collect())
        second = NodeTelemetry.from_payload(publisher.collect())
        assert (first.seq, second.seq) == (1, 2)

    def test_spans_ship_incrementally(self):
        spans = SpanCollector()
        observer = Observer(sink=spans, span_origin=3)
        publisher = FederationPublisher(3, "site", 2, spans=spans)
        with observer.span("site.chunk_test", site=3):
            pass
        first = NodeTelemetry.from_payload(publisher.collect())
        assert len(first.spans) == 1
        # Nothing new since: the next report ships no spans again.
        second = NodeTelemetry.from_payload(publisher.collect())
        assert second.spans == ()

    def test_bind_uplink_late(self):
        clock = ManualClock()
        edge = wire_edge(3, LoopbackTransport(), clock)
        edge.send(WeightUpdateMessage(site_id=3, model_id=0, time=1, count_delta=4))
        publisher = FederationPublisher(3, "site", 2)
        assert NodeTelemetry.from_payload(publisher.collect()).uplink == {}
        # An edge built after its publisher is assigned to it.
        publisher.uplink = lambda: edge
        report = NodeTelemetry.from_payload(publisher.collect())
        assert report.uplink["wire_bytes"] == edge.sender.stats.wire_bytes > 0
        assert report.uplink == uplink_report(edge)
        edge.close()


class TestRelay:
    def test_drain_empties_oldest_first(self):
        relay = TelemetryRelay()
        relay.add(b"a")
        relay.add(b"b")
        assert relay.drain() == [b"a", b"b"]
        assert relay.drain() == []
        assert relay.forwarded == 2

    def test_bounded_drops_oldest(self):
        relay = TelemetryRelay(capacity=2)
        for payload in (b"a", b"b", b"c"):
            relay.add(payload)
        assert relay.drain() == [b"b", b"c"]


class TestCollector:
    def test_dedup_same_pid_stale_seq(self):
        collector = FederationCollector()
        assert collector.ingest_report(make_report(seq=2)) is not None
        assert collector.ingest_report(make_report(seq=2)) is None
        assert collector.ingest_report(make_report(seq=1)) is None
        assert collector.rejected == 2
        # A restart (new pid) resets the counter: accept seq 1 again.
        assert collector.ingest_report(make_report(seq=1, pid=200)) is not None

    def test_junk_payload_counted_not_raised(self):
        collector = FederationCollector()
        assert collector.ingest(b"not json") is None
        assert collector.rejected == 1

    def test_liveness_from_staleness(self):
        now = [0.0]
        collector = FederationCollector(stale_after=5.0, clock=lambda: now[0])
        collector.ingest_report(make_report())
        assert collector.is_live(1)
        now[0] = 6.0
        assert not collector.is_live(1)
        assert collector.rollup()["nodes"]["live"] == 0

    def test_rollup_expected_from_topology(self):
        collector = FederationCollector(
            topology=[
                {"node_id": 0, "role": "aggregator", "level": 0,
                 "parent_id": None},
                {"node_id": 1, "role": "site", "level": 1, "parent_id": 0},
            ]
        )
        rollup = collector.rollup()
        assert rollup["nodes"] == {"expected": 2, "reporting": 0, "live": 0}
        assert rollup["status"] == "degraded"
        collector.ingest_report(
            make_report(node_id=0, role="aggregator", level=0)
        )
        collector.ingest_report(make_report(node_id=1, level=1, records=300))
        rollup = collector.rollup()
        assert rollup["nodes"]["live"] == 2
        assert rollup["status"] == "ok"
        assert rollup["records"] == 300

    def test_add_topology_node_after_construction(self):
        collector = FederationCollector()
        collector.add_topology_node(0, "aggregator", 0, None)
        collector.add_topology_node(5, "site", 1, 0)
        collector.add_topology_node(5, "site", 1, 0)  # idempotent
        assert collector.expected_nodes() == [0, 5]

    def test_level_rollup_bytes_per_record(self):
        collector = FederationCollector()
        collector.ingest_report(make_report(
            node_id=1, seq=1, records=100,
            uplink={"payloads_sent": 4, "payload_bytes": 400,
                    "wire_bytes": 500, "retransmissions": 1},
        ))
        collector.ingest_report(make_report(
            node_id=2, seq=1, pid=101, records=100,
            uplink={"payloads_sent": 6, "payload_bytes": 600,
                    "wire_bytes": 700, "retransmissions": 0},
        ))
        rollup = collector.rollup()
        (level,) = rollup["levels"]
        assert level["level"] == 2
        assert level["edges"] == 2
        assert level["wire_bytes"] == 1200
        assert level["bytes_per_record"] == pytest.approx(1200 / 200)

    def test_span_assembly_across_processes(self):
        """Spans from different pids join into one trace at the root."""
        collector = FederationCollector()
        # One logical trace: a site-side span (pid 100) whose child ran
        # at the aggregator (pid 200).
        site_span = {
            "name": "site.chunk_test", "trace": "00000001000000aa",
            "span": "0000010000000001", "parent": None,
            "start": 0.0, "end": 0.5, "site": 3,
        }
        agg_span = {
            "name": "cluster.aggregate", "trace": "00000001000000aa",
            "span": "0000020000000001", "parent": "0000010000000001",
            "start": 0.6, "end": 0.8, "node": 0,
        }
        collector.ingest_report(make_report(node_id=3, pid=100,
                                            spans=(site_span,)))
        collector.ingest_report(make_report(node_id=0, role="aggregator",
                                            level=0, pid=200,
                                            spans=(agg_span,)))
        trace = collector.render_spans()
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {100, 200}
        # Cross-process parent link renders Chrome flow arrows.
        phases = {e["ph"] for e in events}
        assert {"s", "f"} <= phases
        # Track names carry the node id and real pid.
        metas = [e for e in events if e["ph"] == "M"]
        names = {e["args"].get("name") for e in metas
                 if e["name"] == "process_name"}
        assert "node-3 (pid 100)" in names

    def test_span_paging_since_limit(self):
        collector = FederationCollector()
        spans = tuple(
            {"name": "site.chunk_test", "trace": f"{i:016x}",
             "span": f"{i + 1:016x}", "parent": None,
             "start": float(i), "end": float(i) + 0.1}
            for i in range(5)
        )
        collector.ingest_report(make_report(spans=spans))
        first = collector.render_spans(limit=3)
        assert first["count"] == 3
        rest = collector.render_spans(since=first["lastId"])
        assert rest["count"] == 2
        assert collector.render_spans(since=rest["lastId"])["count"] == 0

    def test_duplicate_spans_dedup_by_span_id(self):
        collector = FederationCollector()
        span = {"name": "site.chunk_test", "trace": "0" * 16,
                "span": "1" * 16, "parent": None,
                "start": 0.0, "end": 0.1}
        collector.ingest_report(make_report(seq=1, spans=(span,)))
        collector.ingest_report(make_report(seq=2, spans=(span,)))
        assert collector.render_spans()["count"] == 1


class TestTopologyFromSpec:
    def test_shape(self):
        from repro.cluster.spec import build_spec

        spec = build_spec(4, 2, seed=1)
        topology = topology_from_spec(spec)
        assert len(topology) == len(spec.nodes)
        roots = [n for n in topology if n["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["role"] == "aggregator"


class TestClusterEndpoints:
    @pytest.fixture()
    def federated_server(self):
        collector = FederationCollector(
            topology=[
                {"node_id": 0, "role": "aggregator", "level": 0,
                 "parent_id": None},
                {"node_id": 1, "role": "site", "level": 1, "parent_id": 0},
            ]
        )
        collector.ingest_report(make_report(
            node_id=1, level=1, records=100,
            spans=({"name": "site.chunk_test", "trace": "a" * 16,
                    "span": "b" * 16, "parent": None,
                    "start": 0.0, "end": 0.1},),
        ))
        server = TelemetryServer(Observer(), federation=collector).start()
        yield server
        server.close()

    def fetch(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=5) as resp:
            return json.loads(resp.read())

    def test_cluster_health(self, federated_server):
        health = self.fetch(federated_server, "/cluster/health")
        assert health["nodes"]["expected"] == 2
        assert health["records"] == 100

    def test_cluster_nodes(self, federated_server):
        nodes = self.fetch(federated_server, "/cluster/nodes")
        assert {n["node"] for n in nodes["nodes"]} == {0, 1}

    def test_cluster_spans_with_paging(self, federated_server):
        spans = self.fetch(federated_server, "/cluster/spans")
        assert spans["count"] == 1
        again = self.fetch(
            federated_server, f"/cluster/spans?since={spans['lastId']}"
        )
        assert again["count"] == 0

    def test_cluster_endpoints_404_without_federation(self):
        with TelemetryServer(Observer()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self.fetch(server, "/cluster/health")
            assert err.value.code == 404


class TestHistoryFederation:
    def sample_history(self) -> dict:
        return {
            "retained": 12,
            "evictions": 3,
            "start": 128,
            "horizon": 400,
            "components": [[320, 3], [400, 4]],
        }

    def test_history_rides_the_wire_round_trip(self):
        report = make_report(history=self.sample_history())
        clone = NodeTelemetry.from_payload(report.to_payload())
        assert clone == report
        assert clone.history["retained"] == 12

    def test_history_key_absent_when_none(self):
        # Byte-compat pin: a node without history emits the exact
        # pre-history payload, so older peers decode it unchanged.
        report = make_report()
        assert report.history is None
        assert b'"history"' not in report.to_payload()
        assert NodeTelemetry.from_payload(report.to_payload()).history is None

    def test_history_rollup_folds_per_node_summaries(self):
        collector = FederationCollector(
            topology=[
                {"node_id": 0, "role": "aggregator", "level": 0,
                 "parent_id": None},
                {"node_id": 1, "role": "site", "level": 1, "parent_id": 0},
                {"node_id": 2, "role": "site", "level": 1, "parent_id": 0},
            ]
        )
        collector.ingest_report(make_report(
            node_id=0, role="aggregator", level=0,
            history=self.sample_history(),
        ))
        collector.ingest_report(make_report(
            node_id=1, level=1,
            history={"retained": 5, "evictions": 3, "start": 700,
                     "horizon": 900, "components": []},
        ))
        collector.ingest_report(make_report(node_id=2, level=1))  # no history
        rollup = collector.history_rollup()
        assert {entry["node"] for entry in rollup["per_node"]} == {0, 1}
        assert rollup["retained"] == 17
        assert rollup["evictions"] == 6
        assert rollup["horizon"] == 900

    def test_cluster_history_endpoint(self):
        collector = FederationCollector(
            topology=[
                {"node_id": 0, "role": "aggregator", "level": 0,
                 "parent_id": None},
            ]
        )
        collector.ingest_report(make_report(
            node_id=0, role="aggregator", level=0,
            history=self.sample_history(),
        ))
        with TelemetryServer(Observer(), federation=collector) as server:
            with urllib.request.urlopen(
                server.url + "/cluster/history", timeout=5
            ) as resp:
                rollup = json.loads(resp.read())
        assert rollup["per_node"][0]["history"]["retained"] == 12

    def test_cluster_history_404_without_federation(self):
        with TelemetryServer(Observer()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    server.url + "/cluster/history", timeout=5
                )
            assert err.value.code == 404
