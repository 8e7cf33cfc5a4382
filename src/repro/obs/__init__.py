"""``repro.obs`` -- zero-dependency observability for CluDistream.

The reproduction's behaviour is event driven: chunk tests pass or fail
(Theorem 2), models get archived, synopses ship only on change, the
coordinator merges and splits.  This package makes every one of those
events observable without changing any of them:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of labelled
  counters, gauges and streaming histograms (cheap no-op when
  disabled);
* :mod:`repro.obs.trace` -- typed :class:`TraceEvent` records with
  JSONL, ring-buffer, logging and fan-out sinks;
* :mod:`repro.obs.observer` -- the :class:`Observer` facade threaded
  (optionally) through sites, coordinator, transport and simulation;
  :data:`NULL_OBSERVER` is the default and keeps all behaviour and
  output byte-identical to an uninstrumented run;
* :mod:`repro.obs.spans` -- causal spans (trace/span/parent ids)
  propagated across the site-to-coordinator boundary on every channel
  backend, with Chrome trace-event / Perfetto export;
* :mod:`repro.obs.export` -- Prometheus-style text dump (and parser)
  plus JSON snapshot of a registry;
* :mod:`repro.obs.health` -- the one fold over the trace stream
  (:class:`HealthMonitor`) and its live paper-grounded gauges (AvgPr
  margin, component count, merge/split churn, bytes-per-record); the
  run summary, history replay, monitor and federation read views of it;
* :mod:`repro.obs.history` -- the reign record (:class:`ModelHistory`)
  behind time-travel queries: ``model_at(t)``, drift analytics and
  gauge series, one summary per event-table reign;
* :mod:`repro.obs.server` -- a stdlib HTTP telemetry server exposing
  ``/metrics``, ``/health``, ``/snapshot`` and ``/spans`` for a live
  run;
* :mod:`repro.obs.monitor` -- the ``repro monitor`` terminal dashboard
  polling that server or replaying a trace file;
* :mod:`repro.obs.stats` -- trace summarisation behind the
  ``cludistream stats`` subcommand.

See DESIGN.md ("Observability" and "Live observability") for the
mapping from paper mechanism to trace event and span.

The HTTP server and the dashboard are imported on first use (module
``__getattr__``): ``http.server`` and ``urllib.request`` are not loaded
by a process that never serves or polls.
"""

import importlib

from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.federation import (
    FederationCollector,
    FederationPublisher,
    NodeTelemetry,
    TelemetryRelay,
    process_resources,
    publish_process_resources,
    topology_from_spec,
)
from repro.obs.health import HealthMonitor, SiteHealth, system_snapshot
from repro.obs.history import (
    ModelHistory,
    coordinator_history_payload,
    site_history_payload,
    weight_transport,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.observer import NULL_OBSERVER, Observer, ensure_observer
from repro.obs.spans import (
    Span,
    SpanCollector,
    SpanContext,
    SpanRecord,
    spans_from_events,
    to_chrome_trace,
)
from repro.obs.stats import (
    RunSummary,
    SiteSummary,
    drift_from_trace,
    format_drift,
    format_summary,
    summarize_events,
    summarize_trace,
)
from repro.obs.trace import (
    JsonlTraceSink,
    LoggingTraceSink,
    MultiSink,
    NullTraceSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    TruncatedTraceWarning,
    read_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FederationCollector",
    "FederationPublisher",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "JsonlTraceSink",
    "LoggingTraceSink",
    "MetricsRegistry",
    "ModelHistory",
    "MultiSink",
    "NULL_OBSERVER",
    "NULL_REGISTRY",
    "NodeTelemetry",
    "NullTraceSink",
    "Observer",
    "RingBufferSink",
    "RunSummary",
    "SiteHealth",
    "SiteSummary",
    "Span",
    "SpanCollector",
    "SpanContext",
    "SpanRecord",
    "TelemetryRelay",
    "TelemetryServer",
    "publish_process_resources",
    "process_resources",
    "TraceEvent",
    "TraceSink",
    "TruncatedTraceWarning",
    "coordinator_history_payload",
    "drift_from_trace",
    "ensure_observer",
    "format_drift",
    "format_summary",
    "site_history_payload",
    "weight_transport",
    "parse_prometheus",
    "read_trace",
    "render_cluster_dashboard",
    "render_dashboard",
    "run_monitor",
    "topology_from_spec",
    "spans_from_events",
    "summarize_events",
    "summarize_trace",
    "system_snapshot",
    "to_chrome_trace",
    "to_prometheus",
]

#: Names resolved on first use, and the module that defines each.
_LAZY = {
    "TelemetryServer": "repro.obs.server",
    "render_cluster_dashboard": "repro.obs.monitor",
    "render_dashboard": "repro.obs.monitor",
    "run_monitor": "repro.obs.monitor",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
