"""The one fold over the trace stream, and every view of it.

The trace layer records *what happened*.  :class:`HealthMonitor` is the
only reducer of that stream: one dispatch per event type keeps counts
per type and per (site, type), plus the few values some output reads.
Every consumer is a view of that state:

* :meth:`HealthMonitor.report`, :meth:`~HealthMonitor.publish` and
  :meth:`~HealthMonitor.history_gauges` -- ``/health``, the ``health.*``
  gauges in ``/metrics`` and the gauges a reign summary carries;
* :func:`repro.obs.stats.summarize_events` -- ``repro stats``;
* :meth:`HealthMonitor.history` -- the replayed model history behind
  ``repro stats --window`` and ``repro monitor --trace``;
* :func:`site_rollup` -- a node's worst margin and pooled pass rate, as
  the federated root reads them off each node's report.

The gauges speak the paper's terms: per-site **AvgPr drift** (the margin
``epsilon - J_fit`` of section 4.2, negative once a site drifted), the
**global component count** (section 6), **merge/split churn** per
record, **bytes per record** (section 6) and the **refit ladder**
(DESIGN section 14).  What the trace does not carry (live component
count, channel accounting) is bound with :meth:`HealthMonitor.bind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.history import REIGN_LIMIT, ModelHistory
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceEvent, TraceSink

__all__ = ["HealthMonitor", "SiteHealth", "site_rollup", "system_snapshot"]

#: Duration buckets for span histograms: 10µs .. 10s, log-spaced.
_SPAN_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)

_REQUIRED = object()

#: Event-table entries per site in :func:`system_snapshot`.
EVENT_TAIL = 5


def _field(fields: Mapping, name: str, kind: type = int, default=_REQUIRED):
    """``kind(fields[name])``; absent or ``None`` answers ``default``.

    A required field that is missing, or a value ``kind`` rejects,
    raises ``ValueError`` naming the field.
    """
    value = fields.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} is not a number: {value!r}") from None


@dataclass
class SiteHealth:
    """Live per-site state folded from the site's trace events."""

    site_id: int
    #: Model the site currently clusters against (last seen).
    model_id: int | None = None
    #: Last fit-test ``J_fit`` (AvgPr difference) and its threshold.
    last_j_fit: float | None = None
    last_threshold: float | None = None
    tests: int = 0
    tests_passed: int = 0
    clusterings: int = 0
    reactivations: int = 0
    archives: int = 0
    expirations: int = 0
    #: Records the site has chunk-tested so far.
    records: int = 0
    #: Refit-ladder outcomes (DESIGN section 14): every failed fit test
    #: resolves to exactly one of these rungs.
    refits_reactivated: int = 0
    refits_warm: int = 0
    refits_cold: int = 0
    #: Total seconds spent inside ``site.refit`` spans.
    refit_seconds: float = 0.0

    @property
    def margin(self) -> float | None:
        """``threshold - j_fit`` of the last fit test.

        Positive means the chunk still fits the current model; negative
        is the drift signal that triggered (or is about to trigger)
        re-clustering.
        """
        if self.last_j_fit is None or self.last_threshold is None:
            return None
        return self.last_threshold - self.last_j_fit

    @property
    def pass_rate(self) -> float | None:
        return self.tests_passed / self.tests if self.tests else None

    @property
    def refits(self) -> int:
        """Total refit-ladder invocations (all rungs)."""
        return self.refits_reactivated + self.refits_warm + self.refits_cold

    @property
    def refit_rate(self) -> float | None:
        """Fraction of fit tests that escalated into the refit ladder."""
        return self.refits / self.tests if self.tests else None

    @property
    def mean_refit_seconds(self) -> float | None:
        """Mean latency of one refit-ladder resolution."""
        return self.refit_seconds / self.refits if self.refits else None

    def as_dict(self) -> dict:
        return {
            "site": self.site_id,
            "model": self.model_id,
            "j_fit": self.last_j_fit,
            "threshold": self.last_threshold,
            "margin": self.margin,
            "tests": self.tests,
            "tests_passed": self.tests_passed,
            "pass_rate": self.pass_rate,
            "clusterings": self.clusterings,
            "reactivations": self.reactivations,
            "archives": self.archives,
            "records": self.records,
            "refits": {
                "reactivated": self.refits_reactivated,
                "warm": self.refits_warm,
                "cold": self.refits_cold,
            },
            "refit_rate": self.refit_rate,
            "mean_refit_seconds": self.mean_refit_seconds,
        }


def site_rollup(sites: Iterable[Mapping]) -> tuple[float | None, float | None]:
    """Worst margin and pooled pass rate over per-site report rows.

    ``sites`` are :meth:`SiteHealth.as_dict` rows -- a live monitor's or
    the ``"sites"`` of a report shipped by another node -- so a node's
    drift headline means the same thing wherever it is read.
    """
    margins, tests, passed = [], 0, 0
    for site in sites:
        if site.get("margin") is not None:
            margins.append(site["margin"])
        tests += int(site.get("tests", 0))
        passed += int(site.get("tests_passed", 0))
    return (min(margins) if margins else None), (passed / tests if tests else None)


class HealthMonitor(TraceSink):
    """The trace fold: a sink whose state every trace consumer reads.

    Use it as an extra observer sink::

        health = HealthMonitor()
        observer = Observer(sinks=[JsonlTraceSink(path), health])
        ...
        health.report()        # JSON-safe dict, any time
        health.publish(registry)  # push health.* gauges for /metrics

    or replay a recorded trace with :meth:`replay`.  A malformed event
    (a missing site id, a non-numeric count) raises ``ValueError``
    naming the event's ``seq`` and the field.

    Thread-safe enough for its purpose: writes come from the run thread,
    reads from the telemetry server thread; folding mutates plain ints
    and floats, so a report taken mid-event is merely one event stale.
    """

    def __init__(self) -> None:
        #: Events per type (``span`` included).
        self.counts: dict[str, int] = {}
        self.sites: dict[int, SiteHealth] = {}
        #: Records the sites tested (plus each site's first clustered chunk).
        self.records = 0
        self.em_iterations = 0
        self.simplex_iterations = 0
        self.simplex_evaluations = 0
        self.runtime_records = 0
        #: Per-span-name duration histograms (seconds).
        self.span_durations: dict[str, Histogram] = {}
        self._histories: dict[str | None, ModelHistory] = {}
        #: Optional live probes attached with :meth:`bind`.
        self._component_count: Callable[[], int] | None = None
        self._accounting: Callable[[], object] | None = None

    @classmethod
    def replay(cls, events: Iterable[TraceEvent]) -> "HealthMonitor":
        """A fresh monitor with ``events`` folded in."""
        monitor = cls()
        for event in events:
            monitor.write(event)
        return monitor

    # ------------------------------------------------------------------
    # Live probes
    # ------------------------------------------------------------------
    def bind(
        self,
        component_count: Callable[[], int] | None = None,
        accounting: Callable[[], object] | None = None,
    ) -> "HealthMonitor":
        """Attach live probes polled at report time.

        Parameters
        ----------
        component_count:
            Zero-argument callable returning the coordinator's current
            global component count (``lambda: coordinator.n_components``).
        accounting:
            Zero-argument callable returning the channel's current
            :class:`~repro.runtime.accounting.DeliveryAccounting`
            (``runtime.accounting``) -- used for bytes-per-record.

        Returns ``self`` so binding chains off the constructor.
        """
        if component_count is not None:
            self._component_count = component_count
        if accounting is not None:
            self._accounting = accounting
        return self

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def write(self, event: TraceEvent) -> None:
        type_ = event.type
        self.counts[type_] = self.counts.get(type_, 0) + 1
        try:
            self._fold(type_, event.fields)
        except ValueError as error:
            raise ValueError(
                f"trace event seq {event.seq} ({type_}): {error}"
            ) from None

    def _fold(self, type_: str, fields: Mapping) -> None:
        if type_ == "span":
            start = _field(fields, "start", float, None)
            end = _field(fields, "end", float, None)
            if start is None or end is None:
                return
            name = str(fields.get("name", "?"))
            histogram = self.span_durations.get(name)
            if histogram is None:
                histogram = self.span_durations[name] = Histogram(_SPAN_BUCKETS)
            histogram.observe(max(end - start, 0.0))
            # Refit latency rides the span record, not the event: span
            # start/end come from the observer's time source, so
            # deterministic (manual-clock) traces stay byte-stable while
            # live runs report real wall time.
            attrs = fields.get("attrs") or {}
            if name == "site.refit" and "site" in attrs:
                self._site(attrs).refit_seconds += end - start
        elif type_ == "site.chunk_test":
            site = self._site(fields)
            site.tests += 1
            if fields.get("passed"):
                site.tests_passed += 1
            site.model_id = fields.get("model", site.model_id)
            site.last_j_fit = _field(fields, "j_fit", float, site.last_j_fit)
            site.last_threshold = _field(
                fields, "threshold", float, site.last_threshold
            )
            chunk = _field(fields, "chunk", int, 0)
            site.records += chunk
            self.records += chunk
        elif type_ == "site.cluster":
            site = self._site(fields)
            # A site's very first chunk is clustered without a fit test
            # (Algorithm 1); count its records here.  Every later
            # clustering re-uses a chunk already counted by the failed
            # chunk test that triggered it.
            if not site.tests and not site.clusterings:
                records = _field(fields, "records", int, 0)
                site.records += records
                self.records += records
            site.clusterings += 1
            site.model_id = fields.get("model", site.model_id)
        elif type_ == "site.reactivate":
            site = self._site(fields)
            site.reactivations += 1
            site.model_id = fields.get("model", site.model_id)
        elif type_ == "site.archive":
            self._site(fields).archives += 1
        elif type_ == "site.expire":
            self._site(fields).expirations += 1
        elif type_ == "site.refit":
            site = self._site(fields)
            outcome = fields.get("outcome")
            if outcome == "reactivated":
                site.refits_reactivated += 1
            elif outcome == "warm":
                site.refits_warm += 1
            elif outcome == "cold":
                site.refits_cold += 1
        elif type_ == "em.fit":
            self.em_iterations += _field(fields, "n_iter", int, 0)
        elif type_ == "coord.merge":
            self.simplex_iterations += _field(fields, "simplex_iterations", int, 0)
            self.simplex_evaluations += _field(
                fields, "simplex_evaluations", int, 0
            )
        elif type_ == "runtime.run":
            self.runtime_records += _field(fields, "records", int, 0)
        elif type_ in ("history.reign", "history.open"):
            scope = fields.get("scope")
            history = self._histories.get(scope)
            if history is None:
                history = self._histories[scope] = ModelHistory(
                    scope=scope, limit=_field(fields, "limit", int, REIGN_LIMIT)
                )
            summary = fields.get("summary")
            if not isinstance(summary, (dict, type(None))):
                raise ValueError(f"field 'summary' is not an object: {summary!r}")
            closed = type_ == "history.reign"
            history.replay(
                _field(fields, "start"),
                _field(fields, "end") if closed else None,
                _field(fields, "model", int, None),
                summary,
                _field(fields, "tick", int, None),
            )

    def _site(self, fields: Mapping) -> SiteHealth:
        site_id = _field(fields, "site")
        site = self.sites.get(site_id)
        if site is None:
            site = self.sites[site_id] = SiteHealth(site_id=site_id)
        return site

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def count(self, type_: str) -> int:
        """Events of one type seen so far."""
        return self.counts.get(type_, 0)

    @property
    def events(self) -> int:
        return sum(self.counts.values())

    @property
    def churn_rate(self) -> float:
        """Merge + split decisions per processed record."""
        if not self.records:
            return 0.0
        return (self.count("coord.merge") + self.count("coord.split")) / self.records

    def component_count(self) -> int | None:
        """Current global component count from the live probe, if bound."""
        if self._component_count is None:
            return None
        return int(self._component_count())

    def _pooled(self) -> SiteHealth:
        """Every site's ladder counts summed: the cluster-wide rates."""
        pooled = SiteHealth(site_id=-1)
        for site in self.sites.values():
            pooled.tests += site.tests
            pooled.refits_reactivated += site.refits_reactivated
            pooled.refits_warm += site.refits_warm
            pooled.refits_cold += site.refits_cold
            pooled.refit_seconds += site.refit_seconds
        return pooled

    def history(self, scope: str | None = None) -> ModelHistory | None:
        """The reign record replayed from ``history.reign`` and
        ``history.open`` events.

        ``scope`` selects one record; unset, the coordinator's is
        preferred and the first scope seen answers otherwise.  ``None``
        when the trace carried no matching events.
        """
        histories = self._histories
        if scope is None:
            scope = next(iter(histories), None)
            if "coordinator" in histories:
                scope = "coordinator"
        return histories.get(scope)

    def history_gauges(self) -> dict:
        """Compact gauge dict for a reign summary.

        Designed as a :class:`~repro.obs.history.ModelHistory`
        ``gauge_source`` probe: attaching
        ``history.gauge_source = health.history_gauges`` makes every
        reign's summary carry the AvgPr margin, pass rate and churn,
        so ``gauge_series("avg_pr_margin", ...)`` can replay how close
        the system sat to its drift threshold over time.  ``None``
        values are dropped by the history.
        """
        margin, pass_rate = site_rollup(s.as_dict() for s in self.sites.values())
        return {
            "avg_pr_margin": margin,
            "pass_rate": pass_rate,
            "churn_rate": self.churn_rate,
        }

    def bytes_per_record(self) -> float | None:
        """Section 6 communication cost: payload bytes per record."""
        if self._accounting is None or not self.records:
            return None
        payload = getattr(self._accounting(), "payload_bytes", None)
        return None if payload is None else payload / self.records

    def report(self) -> dict:
        """JSON-safe snapshot of every gauge, for ``/health``."""
        accounting = self._accounting() if self._accounting is not None else None
        pooled = self._pooled().as_dict()
        out: dict = {
            "status": "ok",
            "events": self.events,
            "records": self.records,
            "sites": [self.sites[site_id].as_dict() for site_id in sorted(self.sites)],
            "coordinator": {
                "components": self.component_count(),
                "merges": self.count("coord.merge"),
                "splits": self.count("coord.split"),
                "model_updates": self.count("coord.model_update"),
                "weight_updates": self.count("coord.weight_update"),
                "deletions": self.count("coord.deletion"),
                "churn_rate": self.churn_rate,
            },
            "refits": {
                **pooled["refits"],
                "refit_rate": pooled["refit_rate"],
                "mean_seconds": pooled["mean_refit_seconds"],
            },
        }
        if accounting is not None:
            out["accounting"] = {
                "attempted": getattr(accounting, "attempted", 0),
                "payload_bytes": getattr(accounting, "payload_bytes", 0),
                "wire_bytes": getattr(accounting, "wire_bytes", 0),
                "bytes_per_record": self.bytes_per_record(),
            }
        drifting = [
            site.site_id
            for site in self.sites.values()
            if site.margin is not None and site.margin < 0.0
        ]
        if drifting:
            out["status"] = "drifting"
            out["drifting_sites"] = drifting
        return out

    def publish(self, registry: MetricsRegistry) -> None:
        """Push every gauge into ``registry`` under ``health.*`` names.

        Called by the telemetry server right before rendering
        ``/metrics``, so Prometheus scrapes always see current values.
        """
        for site in self.sites.values():
            labels = {"site": site.site_id}
            for name, value in (
                ("site_margin", site.margin),
                ("site_j_fit", site.last_j_fit),
                ("site_pass_rate", site.pass_rate),
                ("site_records", site.records),
                ("site_refit_rate", site.refit_rate),
                ("site_refit_seconds", site.mean_refit_seconds),
            ):
                if value is not None:
                    registry.gauge(f"health.{name}", **labels).set(value)
        pooled = self._pooled()
        for name, value in (
            ("components", self.component_count()),
            ("merges", self.count("coord.merge")),
            ("splits", self.count("coord.split")),
            ("churn_rate", self.churn_rate),
            ("refit_rate", pooled.refit_rate),
            ("refit_seconds", pooled.mean_refit_seconds),
            ("bytes_per_record", self.bytes_per_record()),
        ):
            if value is not None:
                registry.gauge(f"health.{name}").set(value)


def system_snapshot(
    sites: Sequence[object],
    coordinator: object,
    accounting: object | None = None,
) -> dict:
    """Introspect live site/coordinator objects into a JSON-safe dict.

    Backs the telemetry server's ``/snapshot`` endpoint: per-site
    current model id, archived model ids, stream position and the last
    :data:`EVENT_TAIL` entries of the section 5.1 event table, plus the coordinator's cluster
    structure and (optionally) the channel's
    :class:`~repro.runtime.accounting.DeliveryAccounting`.
    """
    out: dict = {"sites": [], "coordinator": {}}
    for site in sites:
        current = getattr(site, "current_model", None)
        events = getattr(site, "events", None)
        tail = []
        if events is not None:
            records = list(getattr(events, "records", ()))
            tail = [
                {"start": r.start, "end": r.end, "model": r.model_id}
                for r in records[-EVENT_TAIL:]
            ]
        entry = {
            "site": getattr(site, "site_id", None),
            "position": getattr(site, "position", None),
            "current_model": (
                current.model_id if current is not None else None
            ),
            "models": [
                entry.model_id
                for entry in getattr(site, "all_models", ())
            ],
            "event_table_tail": tail,
            "event_count": len(events) if events is not None else 0,
        }
        history = getattr(site, "history", None)
        if history is not None:
            entry["history"] = history.summary()
        out["sites"].append(entry)
    out["coordinator"] = {
        "components": getattr(coordinator, "n_components", None),
        "clusters": len(getattr(coordinator, "clusters", ())),
        "site_models": len(getattr(coordinator, "site_models", {})),
    }
    coordinator_history = getattr(coordinator, "history", None)
    if coordinator_history is not None:
        out["coordinator"]["history"] = coordinator_history.summary()
    if accounting is not None:
        out["accounting"] = accounting.as_dict()
    return out
