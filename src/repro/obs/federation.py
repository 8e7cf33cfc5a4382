"""Cluster-wide telemetry federation: per-node collection, root rollup.

PR 6 deployed the paper's section 7 aggregation tree as real OS
processes; this module makes the tree *observable as one system*.  The
design is deliberately tree-shaped, like the data path itself:

* every node runs a :class:`FederationPublisher` -- a thin sampler over
  the node's own :class:`~repro.obs.health.HealthMonitor`,
  :class:`~repro.obs.spans.SpanCollector`, uplink edge
  (:func:`uplink_report`) and OS process resources -- producing one
  :class:`NodeTelemetry` report per flush;
* reports ride the node's *existing* ARQ uplink as best-effort
  ``TELEMETRY`` envelopes (:data:`repro.transport.framing.KIND_TELEMETRY`):
  unsequenced, unacked, excluded from the section 6 wire accounting, so
  a federated run's byte budget is identical to a plain one;
* intermediate aggregators buffer child reports in a
  :class:`TelemetryRelay` and forward them verbatim on their own flush,
  so one report crosses each tree edge exactly once on its way up;
* the root ingests everything into a :class:`FederationCollector`,
  which keeps the latest report per node, derives liveness from report
  staleness, computes per-level rollups (bytes/record, ε−J_fit margin,
  pass rate, merge/split churn, component counts) and reassembles
  cross-process traces by joining span records on the 16-byte wire
  span context -- served by the root's
  :class:`~repro.obs.server.TelemetryServer` under ``/cluster/health``,
  ``/cluster/nodes`` and ``/cluster/spans``.

Reports are idempotent state snapshots, not deltas (spans excepted:
each flush ships only spans recorded since the previous one), so a
dropped TELEMETRY envelope is simply superseded by the next flush and
a duplicated one is suppressed by its flush sequence number.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.health import HealthMonitor, site_rollup
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanCollector, SpanRecord, to_chrome_trace
from repro.obs.trace import TraceEvent

__all__ = [
    "FederationCollector",
    "NODE_TELEMETRY_FORMAT",
    "NodeTelemetry",
    "FederationPublisher",
    "TelemetryRelay",
    "level_rollup",
    "process_resources",
    "publish_process_resources",
    "topology_from_spec",
    "uplink_report",
]

NODE_TELEMETRY_FORMAT = 1

#: Bound on reassembled span records a :class:`FederationCollector`
#: keeps for ``/cluster/spans``.
SPAN_CAPACITY = 65536


# ----------------------------------------------------------------------
# Process-resource gauges (stdlib only)
# ----------------------------------------------------------------------
def process_resources() -> dict:
    """RSS, cumulative CPU time and open-fd count of this process.

    Standard library only: ``resource.getrusage`` for memory and CPU
    (``ru_maxrss`` is kilobytes on Linux, bytes on macOS -- normalised
    to bytes here), ``/proc/self/fd`` for the descriptor count where
    available.  Missing facilities degrade to ``None`` rather than
    raising, so the gauges are safe on any platform.
    """
    rss_bytes: int | None = None
    cpu_seconds: float | None = None
    try:
        import resource
        import sys

        usage = resource.getrusage(resource.RUSAGE_SELF)
        scale = 1 if sys.platform == "darwin" else 1024
        rss_bytes = int(usage.ru_maxrss) * scale
        cpu_seconds = float(usage.ru_utime + usage.ru_stime)
    except (ImportError, OSError, ValueError):
        pass
    open_fds: int | None = None
    try:
        open_fds = len(os.listdir("/proc/self/fd"))
    except OSError:
        pass
    return {
        "rss_bytes": rss_bytes,
        "cpu_seconds": cpu_seconds,
        "open_fds": open_fds,
    }


def publish_process_resources(registry: MetricsRegistry) -> None:
    """Push :func:`process_resources` as ``process.*`` gauges.

    Designed as a :class:`~repro.obs.server.TelemetryServer` publisher,
    so every node's ``/metrics`` carries its own RSS / CPU / fd gauges.
    """
    resources = process_resources()
    for name, value in resources.items():
        if value is not None:
            registry.gauge(f"process.{name}").set(float(value))


# ----------------------------------------------------------------------
# The federated report
# ----------------------------------------------------------------------
#: JSON types an optional report field may decode to; anything else is
#: a malformed report (``health`` and ``history`` may be ``null``).
_REPORT_FIELD_TYPES = {
    "health": (dict, type(None)),
    "history": (dict, type(None)),
    "resources": dict,
    "uplink": dict,
    "gauges": dict,
    "endpoints": dict,
    "spans": list,
}


@dataclass(frozen=True, kw_only=True)
class NodeTelemetry:
    """One node's self-report, as shipped up the tree.

    ``seq`` is the node's flush counter: the collector only replaces a
    stored report with a higher-``seq`` one from the same process, which
    makes duplicated (or reordered) TELEMETRY envelopes harmless.
    ``spans`` carries the *incremental* span-event field dicts recorded
    since the node's previous flush; everything else is an idempotent
    snapshot of current state.
    """

    node_id: int
    role: str
    level: int
    pid: int
    seq: int
    records: int = 0
    health: dict | None = None
    resources: dict = field(default_factory=dict)
    uplink: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    endpoints: dict = field(default_factory=dict)
    spans: tuple = ()
    #: Compact model-history rollup
    #: (:meth:`~repro.obs.history.ModelHistory.federated_summary`);
    #: ``None`` when the node runs without history, and then absent
    #: from the wire payload so pre-history peers decode unchanged.
    history: dict | None = None

    def to_payload(self) -> bytes:
        """Encode for a TELEMETRY envelope (compact JSON)."""
        payload = {
            "format": NODE_TELEMETRY_FORMAT,
            "kind": "node_telemetry",
            "node": self.node_id,
            "role": self.role,
            "level": self.level,
            "pid": self.pid,
            "seq": self.seq,
            "records": self.records,
            "health": self.health,
            "resources": self.resources,
            "uplink": self.uplink,
            "gauges": self.gauges,
            "endpoints": self.endpoints,
            "spans": list(self.spans),
        }
        if self.history is not None:
            payload["history"] = self.history
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, data: bytes) -> "NodeTelemetry":
        """Inverse of :meth:`to_payload`; raises ``ValueError`` on junk."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"undecodable telemetry payload: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("kind") != "node_telemetry":
            raise ValueError("payload is not a node telemetry report")
        if payload.get("format") != NODE_TELEMETRY_FORMAT:
            raise ValueError(
                f"unsupported telemetry format {payload.get('format')}"
            )
        for key in ("node", "level", "pid", "seq", "records"):
            value = payload.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"telemetry {key!r} is not an integer: {value!r}")
        for key, kinds in _REPORT_FIELD_TYPES.items():
            if key in payload and not isinstance(payload[key], kinds):
                raise ValueError(
                    f"telemetry {key!r} is a {type(payload[key]).__name__}"
                )
        return cls(
            node_id=payload["node"],
            role=str(payload.get("role", "aggregator")),
            level=payload["level"],
            pid=payload["pid"],
            seq=payload["seq"],
            records=payload["records"],
            health=payload.get("health"),
            resources=payload.get("resources", {}),
            uplink=payload.get("uplink", {}),
            gauges=payload.get("gauges", {}),
            endpoints=payload.get("endpoints", {}),
            spans=tuple(payload.get("spans", ())),
            history=payload.get("history"),
        )


def uplink_report(edge) -> dict:
    """JSON-safe view of one uplink edge's byte account.

    ``edge`` is a :class:`~repro.transport.endpoint.SiteEndpoint`: its
    sender's :class:`~repro.transport.reliability.SenderStats` and its
    wire codec's name and delta/quantization accounting.
    """
    stats = edge.sender.stats
    codec = edge.codec_sender
    return {
        "payloads_sent": stats.payloads_sent,
        "payload_bytes": stats.payload_bytes,
        "wire_bytes": stats.wire_bytes,
        "retransmissions": stats.retransmissions,
        "telemetry_bytes": stats.telemetry_bytes,
        "codec": codec.codec.name,
        "model_updates": int(codec.stats.model_updates),
        "delta_updates": int(codec.stats.delta_updates),
        "delta_hit_rate": float(codec.stats.delta_hit_rate),
        "bytes_saved": int(codec.stats.bytes_saved),
    }


def level_rollup(
    edges: Iterable[tuple[int, Mapping]], records: int
) -> list[dict]:
    """Per-level wire accounting over ``(level, uplink report)`` pairs.

    An edge belongs to its *child's* level (a node at level ``L``
    uplinks into level ``L-1``).  ``bytes_per_record`` divides a level's
    wire bytes by ``records``, the records fed into the tree.  The one
    rollup behind :meth:`~repro.cluster.tree.TransportTree.level_stats`
    (from the senders themselves) and ``/cluster/health`` ``levels``
    (from the reported uplinks), so the two agree by construction.
    """
    per_level: dict[int, list[Mapping]] = {}
    for level, uplink in edges:
        per_level.setdefault(level, []).append(uplink)
    levels = []
    for level in sorted(per_level):
        uplinks = per_level[level]

        def total(key: str) -> int:
            return sum(int(u.get(key, 0)) for u in uplinks)

        entry = {
            "level": level,
            "edges": len(uplinks),
            "messages": total("payloads_sent"),
            "payload_bytes": total("payload_bytes"),
            "wire_bytes": total("wire_bytes"),
            "retransmissions": total("retransmissions"),
            "telemetry_bytes": total("telemetry_bytes"),
            "bytes_per_record": total("wire_bytes") / max(1, records),
        }
        codecs = sorted({str(u["codec"]) for u in uplinks if u.get("codec")})
        if codecs:
            model_updates = total("model_updates")
            entry["codecs"] = codecs
            entry["delta_hit_rate"] = (
                total("delta_updates") / model_updates if model_updates else 0.0
            )
            entry["bytes_saved"] = total("bytes_saved")
        levels.append(entry)
    return levels


# ----------------------------------------------------------------------
# Node side: publisher + relay
# ----------------------------------------------------------------------
class FederationPublisher:
    """Samples one node's observability state into telemetry reports.

    All probes are zero-argument callables polled at :meth:`collect`
    time, so the publisher holds no background thread and adds nothing
    to the hot path; a node that never flushes pays nothing.

    Parameters
    ----------
    node_id / role / level:
        The node's position in the tree (as in
        :class:`~repro.cluster.spec.NodeSpec`).
    health:
        The node's own :class:`HealthMonitor`; its
        :meth:`~HealthMonitor.report` rides every flush.
    spans:
        The node's :class:`SpanCollector`; each flush ships only span
        events recorded since the previous flush (tracked by collector
        id cursor).
    uplink:
        Probe returning the node's uplink edge, a
        :class:`~repro.transport.endpoint.SiteEndpoint` (or ``None`` at
        the root, which has none); reports carry its
        :func:`uplink_report`.  An edge built after the publisher is
        assigned here.
    gauges:
        Probe returning a small JSON-safe dict of node gauges
        (``messages_up``, ``bytes_up``, ``components``...).
    records:
        Probe returning records processed; defaults to the health
        monitor's record count.
    endpoints:
        Static endpoint dict for ``/cluster/nodes`` (TCP + telemetry).
    history:
        Probe returning the node's compact history rollup (typically
        ``history.federated_summary``), or ``None``; rides every flush
        so the root's ``/cluster/history`` stays current.
    """

    def __init__(
        self,
        node_id: int,
        role: str,
        level: int,
        health: HealthMonitor | None = None,
        spans: SpanCollector | None = None,
        uplink: Callable[[], object | None] | None = None,
        gauges: Callable[[], dict] | None = None,
        records: Callable[[], int] | None = None,
        endpoints: Mapping | None = None,
        pid: int | None = None,
        history: Callable[[], dict | None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.role = role
        self.level = level
        self._health = health
        self._spans = spans
        self.uplink = uplink
        self._gauges = gauges
        self._records = records
        self._history = history
        self.endpoints = dict(endpoints or {})
        self._pid = pid if pid is not None else os.getpid()
        self._span_cursor = 0
        self._seq = 0

    def collect(self) -> bytes:
        """Produce the next report as an encoded TELEMETRY payload."""
        return self.collect_report().to_payload()

    def collect_report(self) -> NodeTelemetry:
        self._seq += 1
        health = self._health.report() if self._health is not None else None
        records = 0
        if self._records is not None:
            records = int(self._records())
        elif health is not None:
            records = int(health.get("records", 0))
        edge = self.uplink() if self.uplink is not None else None
        uplink = uplink_report(edge) if edge is not None else {}
        span_fields: list[dict] = []
        if self._spans is not None:
            page = self._spans.events_since(self._span_cursor)
            if page:
                self._span_cursor = page[-1][0]
                span_fields = [dict(event.fields) for _, event in page]
        history = self._history() if self._history is not None else None
        return NodeTelemetry(
            node_id=self.node_id,
            role=self.role,
            level=self.level,
            pid=self._pid,
            seq=self._seq,
            records=records,
            health=health,
            resources=process_resources(),
            uplink=uplink,
            gauges=dict(self._gauges()) if self._gauges is not None else {},
            endpoints=self.endpoints,
            spans=tuple(span_fields),
            history=dict(history) if history is not None else None,
        )


class TelemetryRelay:
    """Bounded store-and-forward buffer at an intermediate aggregator.

    Child reports (raw payload bytes -- never re-encoded) queue here
    until the aggregator's own flush forwards them up its uplink, so a
    report crosses each edge once.  The bound protects a stalled uplink
    from accumulating reports without end; dropping the *oldest* is
    correct because newer reports supersede older ones anyway.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._buffer: deque[bytes] = deque(maxlen=capacity)
        self.forwarded = 0

    def add(self, payload: bytes) -> None:
        self._buffer.append(payload)

    def drain(self) -> list[bytes]:
        """All buffered payloads, oldest first; empties the buffer."""
        drained = list(self._buffer)
        self._buffer.clear()
        self.forwarded += len(drained)
        return drained

    def __len__(self) -> int:
        return len(self._buffer)


# ----------------------------------------------------------------------
# Root side: the collector
# ----------------------------------------------------------------------
@dataclass
class _StoredSpan:
    id: int
    node_id: int
    pid: int
    record: SpanRecord


class FederationCollector:
    """Root-side store of federated telemetry: latest report per node,
    staleness-derived liveness, per-level rollups, cross-process traces.

    Parameters
    ----------
    topology:
        Optional static node list (dicts with ``node_id`` / ``role`` /
        ``level`` / ``parent_id``), typically from
        :meth:`~repro.cluster.spec.ClusterSpec.to_dict`; lets
        ``/cluster/health`` distinguish "never reported" from "does not
        exist" and ``/cluster/nodes`` render the full tree before the
        first flush arrives.
    stale_after:
        Seconds of report silence after which a node counts as not
        live.  Pick roughly three flush intervals: one lost report must
        not flap liveness, a dead process must show within a few.
    clock:
        Wall-clock source for report ages (injectable for tests).
    """

    def __init__(
        self,
        topology: Iterable[Mapping] | None = None,
        stale_after: float = 6.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if stale_after <= 0.0:
            raise ValueError("stale_after must be positive")
        self.stale_after = stale_after
        self._clock = clock
        self._topology: list[dict] = [dict(n) for n in topology or ()]
        self._reports: dict[int, NodeTelemetry] = {}
        self._received_at: dict[int, float] = {}
        self._spans: deque[_StoredSpan] = deque()
        self._span_ids: set[int] = set()
        self._next_span_id = 1
        self.ingested = 0
        self.rejected = 0

    def add_topology_node(
        self,
        node_id: int,
        role: str,
        level: int,
        parent_id: int | None = None,
    ) -> None:
        """Register one expected node after construction.

        For topologies built incrementally (e.g. a
        :class:`~repro.cluster.tree.TransportTree` growing node by
        node); re-registering an id updates it in place.
        """
        entry = {
            "node_id": int(node_id),
            "role": role,
            "level": int(level),
            "parent_id": parent_id,
        }
        for existing in self._topology:
            if existing["node_id"] == entry["node_id"]:
                existing.update(entry)
                return
        self._topology.append(entry)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, payload: bytes) -> NodeTelemetry | None:
        """Decode and store one TELEMETRY payload.

        Junk payloads and stale duplicates are counted and dropped --
        this is the root of a best-effort channel, it must never let a
        malformed report take the server down.  Returns the stored
        report, or ``None`` when rejected.
        """
        try:
            report = NodeTelemetry.from_payload(payload)
        except ValueError:
            self.rejected += 1
            return None
        return self.ingest_report(report)

    def ingest_report(self, report: NodeTelemetry) -> NodeTelemetry | None:
        previous = self._reports.get(report.node_id)
        if (
            previous is not None
            and report.pid == previous.pid
            and report.seq <= previous.seq
        ):
            # Duplicate or reordered flush from the same process.  A
            # different pid means the node restarted and its counter
            # reset -- accept unconditionally then.
            self.rejected += 1
            return None
        self._reports[report.node_id] = report
        self._received_at[report.node_id] = self._clock()
        self.ingested += 1
        for fields in report.spans:
            try:
                event = TraceEvent(0, 0.0, "span", dict(fields))
                record = SpanRecord.from_event(event)
            except (KeyError, ValueError, TypeError):
                continue
            if record.span_id in self._span_ids:
                continue
            if len(self._spans) >= SPAN_CAPACITY:
                evicted = self._spans.popleft()
                self._span_ids.discard(evicted.record.span_id)
            self._spans.append(
                _StoredSpan(
                    id=self._next_span_id,
                    node_id=report.node_id,
                    pid=report.pid,
                    record=record,
                )
            )
            self._span_ids.add(record.span_id)
            self._next_span_id += 1
        return report

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def age(self, node_id: int) -> float | None:
        """Seconds since the node's last report (``None`` if never)."""
        at = self._received_at.get(node_id)
        return self._clock() - at if at is not None else None

    def is_live(self, node_id: int) -> bool:
        age = self.age(node_id)
        return age is not None and age <= self.stale_after

    def expected_nodes(self) -> list[int]:
        """Node ids the rollup accounts for: topology, else reporters."""
        if self._topology:
            return sorted(int(n["node_id"]) for n in self._topology)
        return sorted(self._reports)

    def _placement(self, node_id: int) -> dict:
        """Role, level and parent from the static topology (or ``{}``)."""
        for node in self._topology:
            if int(node["node_id"]) == node_id:
                return {
                    "role": node.get("role"),
                    "level": node.get("level"),
                    "parent": node.get("parent_id"),
                }
        return {}

    def rollup(self) -> dict:
        """The ``/cluster/health`` payload: per-node and per-level."""
        expected = self.expected_nodes()
        per_node = [self._node_entry(node_id) for node_id in expected]
        live = sum(1 for entry in per_node if entry["live"])
        reporting = sum(1 for entry in per_node if entry["age_seconds"] is not None)
        total_records = sum(
            r.records for r in self._reports.values() if r.role == "site"
        )
        status = "ok"
        if any(entry["status"] == "drifting" for entry in per_node):
            status = "drifting"
        if live < len(expected):
            status = "degraded"
        return {
            "status": status,
            "stale_after": self.stale_after,
            "nodes": {
                "expected": len(expected),
                "reporting": reporting,
                "live": live,
            },
            "records": total_records,
            "levels": level_rollup(
                [(r.level, r.uplink) for r in self._reports.values() if r.uplink],
                total_records,
            ),
            "per_node": per_node,
            "spans_collected": len(self._spans),
            "reports_ingested": self.ingested,
        }

    def _node_entry(self, node_id: int) -> dict:
        report = self._reports.get(node_id)
        age = self.age(node_id)
        entry: dict = {
            "node": node_id,
            "age_seconds": age,
            "live": self.is_live(node_id),
        }
        entry.update(self._placement(node_id))
        if report is None:
            entry["status"] = "unreported"
            return entry
        entry.update(
            role=report.role,
            level=report.level,
            pid=report.pid,
            records=report.records,
            resources=report.resources,
            endpoints=report.endpoints,
        )
        health = report.health or {}
        entry["status"] = health.get("status", "ok")
        entry["margin"], entry["pass_rate"] = site_rollup(
            health.get("sites", [])
        )
        coordinator = health.get("coordinator", {})
        entry["components"] = (
            coordinator.get("components")
            if coordinator.get("components") is not None
            else report.gauges.get("components")
        )
        entry["merges"] = coordinator.get("merges", 0)
        entry["splits"] = coordinator.get("splits", 0)
        entry["churn_rate"] = coordinator.get("churn_rate", 0.0)
        if report.uplink:
            entry["uplink"] = report.uplink
        if report.gauges:
            entry["gauges"] = report.gauges
        return entry

    def history_rollup(self) -> dict:
        """The ``/cluster/history`` payload: per-node history rollups.

        Folds the compact :attr:`NodeTelemetry.history` summaries from
        the latest report of every node that ships one -- retained
        reigns and their range, evictions and the recent
        component-count series -- plus cluster totals.  Nodes running
        without history simply do not appear; a cluster with history
        disabled everywhere answers with an empty node list.
        """
        per_node = []
        retained = 0
        evictions = 0
        horizon = 0
        for node_id in self.expected_nodes():
            report = self._reports.get(node_id)
            if report is None or report.history is None:
                continue
            history = report.history
            entry = {
                "node": node_id,
                "role": report.role,
                "level": report.level,
                "live": self.is_live(node_id),
                "history": history,
            }
            per_node.append(entry)
            retained += int(history.get("retained", 0))
            evictions += int(history.get("evictions", 0))
            horizon = max(horizon, int(history.get("horizon", 0)))
        return {
            "nodes": len(per_node),
            "retained": retained,
            "evictions": evictions,
            "horizon": horizon,
            "per_node": per_node,
        }

    def nodes_view(self) -> dict:
        """The ``/cluster/nodes`` payload: topology + endpoints/status."""
        nodes = []
        for node_id in self.expected_nodes():
            entry: dict = {"node": node_id, **self._placement(node_id)}
            report = self._reports.get(node_id)
            if report is not None:
                entry.update(
                    role=report.role,
                    level=report.level,
                    pid=report.pid,
                    endpoints=report.endpoints,
                    seq=report.seq,
                )
            entry["live"] = self.is_live(node_id)
            entry["age_seconds"] = self.age(node_id)
            nodes.append(entry)
        return {"nodes": nodes, "count": len(nodes)}

    # ------------------------------------------------------------------
    # Cross-process trace assembly
    # ------------------------------------------------------------------
    def spans_since(
        self, since: int = 0, limit: int | None = None
    ) -> tuple[list[_StoredSpan], int]:
        page = [s for s in tuple(self._spans) if s.id > since]
        if limit is not None:
            page = page[:limit]
        last = page[-1].id if page else max(since, 0)
        return page, last

    def render_spans(self, since: int = 0, limit: int | None = None) -> dict:
        """One Chrome/Perfetto trace across every reporting process.

        Spans from all nodes are joined on their wire span context (per
        -process origins keep span ids collision-free), each placed on
        the track of its *real* OS pid, with flow arrows wherever a
        parent link crosses processes.  Extra top-level keys
        (``lastId``, ``count``) ride along for incremental pollers --
        the trace-event format tolerates them.
        """
        page, last = self.spans_since(since, limit)
        placement = {
            s.record.span_id: (s.pid, f"node-{s.node_id} (pid {s.pid})")
            for s in page
        }

        def process_of(record: SpanRecord) -> tuple[int, str]:
            placed = placement.get(record.span_id)
            if placed is not None:
                return placed
            return 0, "unknown-process"

        trace = to_chrome_trace([s.record for s in page], process_of=process_of)
        trace["lastId"] = last
        trace["count"] = len(page)
        return trace


def topology_from_spec(spec: object) -> list[dict]:
    """Static node list for a collector from a ``ClusterSpec``-like."""
    nodes: Sequence = getattr(spec, "nodes", ())
    return [
        {
            "node_id": n.node_id,
            "role": n.role,
            "level": n.level,
            "parent_id": n.parent_id,
        }
        for n in nodes
    ]
