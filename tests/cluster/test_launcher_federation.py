"""Federated telemetry on a real multi-process deployment (ISSUE 7).

Launches the acceptance-scale tree -- 8 sites at fan-in 4, so two
mid-level aggregators under the root, 11 OS processes -- with
``--serve-telemetry`` semantics and drives the root's ``/cluster/*``
endpoints while the run is live.  Slow-ish (a few seconds of polling),
but this is the only place the whole federation path -- publisher →
TELEMETRY envelope → relay → collector → HTTP -- runs across real
process boundaries inside the test suite.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.launcher import ClusterLauncher
from repro.cluster.spec import build_spec


def fetch(url: str, path: str, timeout: float = 5.0, patience: float = 30.0) -> dict:
    """GET a JSON endpoint, retrying while the server comes up.

    Each attempt waits ``timeout`` seconds; a refused, reset or timed-out
    attempt is retried until ``patience`` seconds have passed, so a root
    slowed by eleven busy processes on a small machine is not a failure.
    """
    deadline = time.time() + patience
    while True:
        try:
            with urllib.request.urlopen(url + path, timeout=timeout) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


@pytest.fixture(scope="module")
def live_cluster():
    """An 8-site fan-in-4 federated tree, kept busy for the module."""
    spec = build_spec(
        8,
        4,
        seed=3,
        dim=2,
        clusters=2,
        epsilon=0.3,
        delta=0.1,
        chunk=100,
        # Sites stream ~1M records a second between them, so a finite
        # budget that "should" last can end mid-module and take the root's
        # server down; this one outlasts any run and shutdown() stops it.
        records_per_site=10**9,
        p_new=0.0,
        merge_method="moment",
        telemetry_interval=0.25,
    )
    launcher = ClusterLauncher(spec, serve_telemetry=0)
    launcher.launch()
    assert launcher.telemetry_port
    url = f"http://127.0.0.1:{launcher.telemetry_port}"
    try:
        yield spec, url
    finally:
        launcher.shutdown()


class TestClusterHealth:
    def test_every_node_reports_live(self, live_cluster):
        spec, url = live_cluster
        deadline = time.time() + 90.0
        while True:
            health = fetch(url, "/cluster/health")
            if health["nodes"]["live"] == len(spec.nodes):
                break
            if time.time() > deadline:
                pytest.fail(f"nodes never all went live: {health['nodes']}")
            time.sleep(0.3)
        assert health["nodes"] == {
            "expected": len(spec.nodes),
            "reporting": len(spec.nodes),
            "live": len(spec.nodes),
        }
        # Liveness only: "drifting" means some site's last fit-test margin
        # was negative at scrape time, which depends on which chunk each
        # live subprocess happened to have tested.
        assert health["status"] != "degraded"

    def test_per_level_rollup_reports_bytes_per_record(self, live_cluster):
        _, url = live_cluster
        deadline = time.time() + 90.0
        while True:
            health = fetch(url, "/cluster/health")
            levels = {entry["level"]: entry for entry in health["levels"]}
            # Level 1: aggregator uplinks; level 2: the eight sites.
            if {1, 2} <= set(levels) and health["records"] > 0:
                break
            if time.time() > deadline:
                pytest.fail(f"level rollup incomplete: {health['levels']}")
            time.sleep(0.3)
        assert levels[2]["edges"] == 8
        assert levels[1]["edges"] == 2
        for entry in levels.values():
            assert entry["wire_bytes"] > 0
            assert entry["bytes_per_record"] > 0.0


class TestClusterNodes:
    def test_topology_with_endpoints(self, live_cluster):
        spec, url = live_cluster
        nodes = fetch(url, "/cluster/nodes")
        assert nodes["count"] == len(spec.nodes)
        by_id = {entry["node"]: entry for entry in nodes["nodes"]}
        assert set(by_id) == {n.node_id for n in spec.nodes}
        root = by_id[spec.root.node_id]
        assert root["role"] == "aggregator"
        assert root["parent"] is None
        assert root["endpoints"]["telemetry"]["port"] > 0
        # Every process reported a real pid, all distinct.
        pids = {entry["pid"] for entry in nodes["nodes"] if entry["pid"]}
        assert len(pids) == len(spec.nodes)


class TestClusterSpans:
    def test_one_trace_spans_three_processes(self, live_cluster):
        """A chunk test at a site, the mid-level aggregation and the
        root merge land on one trace with distinct pids -- the
        cross-process assembly the ISSUE's acceptance demands."""
        _, url = live_cluster
        deadline = time.time() + 90.0
        while True:
            trace = fetch(url, "/cluster/spans")
            events = trace["traceEvents"]
            pids_by_trace: dict = {}
            for event in events:
                if event.get("ph") == "X":
                    key = (event.get("args") or {}).get("trace")
                    pids_by_trace.setdefault(key, set()).add(event["pid"])
            if any(len(pids) >= 3 for pids in pids_by_trace.values()):
                break
            if time.time() > deadline:
                depth = max((len(p) for p in pids_by_trace.values()), default=0)
                pytest.fail(f"no 3-process trace assembled (max {depth})")
            time.sleep(0.3)
        # Cross-process parent links render Chrome flow arrows.
        phases = {event["ph"] for event in events}
        assert {"s", "f"} <= phases
        # pid/tid metadata names every process track.
        process_names = {
            (event["args"] or {}).get("name")
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert any("node-" in (name or "") for name in process_names)

    def test_since_limit_paging(self, live_cluster):
        _, url = live_cluster
        first = fetch(url, "/cluster/spans?limit=3")
        assert first["count"] <= 3
        assert len(first["traceEvents"]) >= first["count"]
        rest = fetch(url, f"/cluster/spans?since={first['lastId']}&limit=3")
        assert rest["count"] <= 3


class TestAggregatorTelemetryEndpoints:
    def test_manifests_record_bound_ports(self, tmp_path):
        """With --serve-telemetry, EVERY aggregator gets a port-0
        server and its bound endpoint lands in the node manifest
        (satellite 2)."""
        spec = build_spec(
            4,
            2,
            seed=3,
            dim=2,
            clusters=2,
            epsilon=0.3,
            delta=0.1,
            chunk=100,
            records_per_site=200,
            p_new=0.0,
            merge_method="moment",
        )
        launcher = ClusterLauncher(
            spec, checkpoint_dir=tmp_path, serve_telemetry=0
        )
        launcher.launch()
        try:
            result = launcher.wait(timeout=120.0)
        finally:
            launcher.shutdown()
        assert set(result.exit_codes.values()) == {0}, result.exit_codes
        ports = set()
        for agg in spec.aggregators:
            manifest = json.loads(
                (tmp_path / f"node-{agg.node_id}.manifest.json").read_text()
            )
            endpoint = manifest["endpoints"]["telemetry"]
            assert endpoint["port"] > 0
            ports.add(endpoint["port"])
        assert len(ports) == len(spec.aggregators)
