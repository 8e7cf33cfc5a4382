"""Zero-dependency live telemetry server over the observability layer.

A :class:`TelemetryServer` wraps one :class:`~repro.obs.observer.Observer`
(plus optional :class:`~repro.obs.health.HealthMonitor`,
:class:`~repro.obs.spans.SpanCollector` and snapshot provider) in a
stdlib :class:`http.server.ThreadingHTTPServer` running on a daemon
thread, so a live run can be inspected while it streams:

``/metrics``
    Prometheus text exposition of the observer's metrics registry (via
    :func:`repro.obs.export.to_prometheus`); health gauges are published
    into the registry right before rendering, so scrapes are current.
``/health``
    JSON from :meth:`HealthMonitor.report` -- per-site AvgPr margin,
    global component count, merge/split churn, bytes-per-record.
``/snapshot``
    JSON from the snapshot provider (typically
    ``lambda: system_snapshot(sites, coordinator, accounting())``) --
    per-site current model, event-table tail, delivery accounting.
``/spans``
    Chrome trace-event JSON of the collected spans (load in Perfetto or
    ``chrome://tracing``), via :func:`repro.obs.spans.to_chrome_trace`.
    Accepts ``?since=<id>&limit=<n>`` for incremental polling: only
    spans with collector id beyond ``since`` are returned, and the
    response carries ``lastId`` to resume from.

With a :class:`~repro.obs.history.ModelHistory` attached (usually the
coordinator's), three time-travel endpoints come alive:

``/history``
    Without parameters, the record's index (retained reigns, their
    range, evictions, known gauges).  With ``?t=<tick>``, the
    :meth:`~repro.obs.history.ModelHistory.model_at` answer: the reign
    containing ``t`` -- its start, end, id and summary.
``/history/drift``
    ``?t0=<tick>&t1=<tick>`` drift analytics between the two reigning
    summaries: component-count delta, weight-transport distance,
    counter churn and the reign ends in between.  Missing endpoints
    default to the full retained range.
``/history/series``
    ``?name=<gauge>&t0=&t1=`` ``[start, value]`` series of a recorded
    gauge, one point per reign (``components`` by default).

Bad ranges (reversed or negative) answer 400 with the offending
values; each history query is traced as a ``history.query`` span.

With a :class:`~repro.obs.federation.FederationCollector` attached
(the root of a federated cluster deployment), three more endpoints
serve the cluster-wide view:

``/cluster/health``
    Per-node and per-level rollups: ε−J_fit margin, pass rate,
    bytes/record, merge/split churn, component counts, liveness from
    report staleness.
``/cluster/nodes``
    Tree topology plus each node's endpoints, pid and report age.
``/cluster/spans``
    Cross-process traces reassembled at the root, exported as one
    Chrome/Perfetto file with real-pid tracks and cross-process flow
    arrows; supports the same ``?since=&limit=`` paging as ``/spans``.
``/cluster/history``
    Per-node history rollups (retained reigns and their range,
    evictions, component-count series) folded from the latest
    telemetry reports.

Everything is standard library; there is nothing to install on the
scrape side either -- ``curl`` and a browser suffice.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.export import to_prometheus
from repro.obs.federation import FederationCollector
from repro.obs.health import HealthMonitor
from repro.obs.observer import Observer
from repro.obs.spans import SpanCollector, to_chrome_trace

__all__ = ["TelemetryServer"]


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a :class:`TelemetryServer` via the server."""

    #: Quiet by default: per-request logging would interleave with the
    #: run's own output.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path, _, query = self.path.partition("?")
        render = telemetry.route(path.rstrip("/") or "/")
        if render is None:
            self.send_error(404, "unknown endpoint")
            return
        try:
            rendered = render(query)
            if isinstance(rendered, str):
                body = rendered.encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = _json_bytes(rendered)
                content_type = "application/json"
        except ValueError as exc:
            # Bad query ranges (reversed/negative windows) are the
            # client's fault; the message names the offending values.
            self.send_error(400, str(exc))
            return
        except Exception as exc:  # surface handler bugs to the client
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, indent=2, default=str).encode("utf-8")


def _paging(query: str) -> tuple[int, int | None]:
    """Parse ``since`` / ``limit`` from a query string (0 / None default).

    Unparseable values fall back to the defaults rather than erroring:
    the endpoints are for humans with ``curl`` as much as for the
    monitor's poll loop.
    """
    params = urllib.parse.parse_qs(query)
    since, limit = 0, None
    try:
        since = max(0, int(params["since"][0]))
    except (KeyError, ValueError, IndexError):
        pass
    try:
        limit = max(1, int(params["limit"][0]))
    except (KeyError, ValueError, IndexError):
        pass
    return since, limit


def _history_int(query: str, name: str) -> int | None:
    """Parse one integer history parameter (``None`` when absent).

    Unlike :func:`_paging` the value is *not* clamped: a negative
    ``t0`` must reach the validation layer so the 400 answer names it.
    """
    params = urllib.parse.parse_qs(query)
    try:
        return int(params[name][0])
    except (KeyError, IndexError):
        return None
    except ValueError:
        raise ValueError(
            f"parameter {name!r} must be an integer, "
            f"got {params[name][0]!r}"
        ) from None


def _history_str(query: str, name: str) -> str | None:
    params = urllib.parse.parse_qs(query)
    try:
        return params[name][0]
    except (KeyError, IndexError):
        return None


class TelemetryServer:
    """Serve live metrics, health, snapshots and spans over HTTP.

    Parameters
    ----------
    observer:
        The observer whose metrics registry backs ``/metrics``.
    health:
        Optional :class:`HealthMonitor`; without it ``/health`` reports
        a minimal liveness payload.
    spans:
        Optional :class:`SpanCollector`; without it ``/spans`` serves an
        empty Chrome trace.
    snapshot:
        Optional zero-argument callable returning the JSON-safe system
        snapshot served at ``/snapshot``.
    host / port:
        Bind address.  ``port=0`` (the default) picks a free ephemeral
        port; read it back from :attr:`port` / :attr:`url`.
    publish:
        Extra publishers called with the metrics registry right before
        every ``/metrics`` render (after the health monitor publishes),
        e.g. :func:`repro.obs.federation.publish_process_resources` --
        lets components push point-in-time gauges without holding a
        background thread.
    federation:
        Optional :class:`~repro.obs.federation.FederationCollector`;
        when present the ``/cluster/*`` endpoints come alive (the root
        of a federated tree attaches its collector here).
    history:
        Optional :class:`~repro.obs.history.ModelHistory` (usually the
        coordinator's); when present the ``/history*`` endpoints come
        alive and its ``history.*`` gauges are published into
        ``/metrics``.
    """

    def __init__(
        self,
        observer: Observer,
        health: HealthMonitor | None = None,
        spans: SpanCollector | None = None,
        snapshot: Callable[[], dict] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        publish: tuple[Callable, ...] = (),
        federation: FederationCollector | None = None,
        history=None,
    ) -> None:
        self.observer = observer
        self.health = health
        self.spans = spans
        self.snapshot = snapshot
        self.publish = tuple(publish)
        self.federation = federation
        self.history = history
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.telemetry = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Start serving on a daemon thread; returns ``self``."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"telemetry:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the server and release the socket (idempotent)."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Renderers (shared with tests; no HTTP required)
    # ------------------------------------------------------------------
    def route(self, path: str) -> Callable[[str], object] | None:
        """The renderer behind ``path``, called with the query string;
        ``None`` for an endpoint this server does not serve.  A ``str``
        answer is Prometheus text, anything else is served as JSON."""
        routes: dict[str, Callable[[str], object]] = {
            "/": lambda query: self.render_metrics(),
            "/metrics": lambda query: self.render_metrics(),
            "/health": lambda query: self.render_health(),
            "/snapshot": lambda query: self.render_snapshot(),
            "/spans": lambda query: self.render_spans(*_paging(query)),
        }
        if self.history is not None:
            routes["/history"] = lambda query: self.render_history(
                _history_int(query, "t")
            )
            routes["/history/drift"] = lambda query: self.render_history_drift(
                _history_int(query, "t0"), _history_int(query, "t1")
            )
            routes["/history/series"] = lambda query: self.render_history_series(
                _history_str(query, "name"),
                _history_int(query, "t0"),
                _history_int(query, "t1"),
            )
        federation = self.federation
        if federation is not None:
            routes["/cluster/health"] = lambda query: federation.rollup()
            routes["/cluster/nodes"] = lambda query: federation.nodes_view()
            routes["/cluster/history"] = lambda query: federation.history_rollup()
            routes["/cluster/spans"] = lambda query: federation.render_spans(
                *_paging(query)
            )
        return routes.get(path)

    def render_metrics(self) -> str:
        if self.health is not None:
            self.health.publish(self.observer.registry)
        if self.history is not None:
            self.history.publish(self.observer.registry)
        for publisher in self.publish:
            publisher(self.observer.registry)
        return to_prometheus(self.observer.registry)

    def render_health(self) -> dict:
        if self.health is None:
            return {"status": "ok", "detail": "no health monitor attached"}
        return self.health.report()

    def render_snapshot(self) -> dict:
        if self.snapshot is None:
            return {"detail": "no snapshot provider attached"}
        return self.snapshot()

    def render_spans(self, since: int = 0, limit: int | None = None) -> dict:
        if self.spans is None:
            return {"traceEvents": [], "lastId": 0, "count": 0}
        records, last = self.spans.spans_since(since, limit)
        trace = to_chrome_trace(records)
        trace["lastId"] = last
        trace["count"] = len(records)
        return trace

    def render_history(self, t: int | None = None) -> dict:
        assert self.history is not None
        with self.observer.span(
            "history.query", endpoint="/history", t=t
        ):
            if t is None:
                return self.history.summary()
            return self.history.model_at(t)

    def render_history_drift(
        self, t0: int | None = None, t1: int | None = None
    ) -> dict:
        assert self.history is not None
        if t0 is None:
            t0 = self.history.start
        if t1 is None:
            t1 = self.history.last_tick
        with self.observer.span(
            "history.query", endpoint="/history/drift", t0=t0, t1=t1
        ):
            return self.history.drift_between(t0, t1)

    def render_history_series(
        self,
        name: str | None = None,
        t0: int | None = None,
        t1: int | None = None,
    ) -> dict:
        assert self.history is not None
        name = name or "components"
        with self.observer.span(
            "history.query", endpoint="/history/series", gauge=name
        ):
            return {
                "name": name,
                "t0": t0,
                "t1": t1,
                "points": self.history.gauge_series(name, t0, t1),
            }
