"""Trace analysis: tail a JSONL trace into a human-readable run summary.

This is the consumer half of the tracing layer: given the typed events
emitted during a run (from a file, a ring buffer, or any iterable), it
reconstructs the counts the paper's figures are built from -- per-site
chunk-test pass/fail, EM runs, reactivations, model archives,
coordinator merge/split decisions, and everything the transport had to
do (sends, retransmissions, heartbeats, duplicate suppressions).

The ``cludistream stats`` CLI subcommand is a thin wrapper over
:func:`summarize_trace` + :func:`format_summary`; the integration suite
uses the same functions to assert that a trace reconstructs exactly the
state the live objects report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable

from repro.obs.history import history_from_events
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceEvent, read_trace

__all__ = [
    "RunSummary",
    "SiteSummary",
    "drift_from_trace",
    "format_drift",
    "format_summary",
    "summarize_events",
    "summarize_trace",
]


#: Duration buckets for span histograms: 10µs .. 10s, log-spaced.
_SPAN_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


@dataclass
class SiteSummary:
    """Per-site event counts reconstructed from a trace."""

    chunk_tests_passed: int = 0
    chunk_tests_failed: int = 0
    clusterings: int = 0
    reactivations: int = 0
    archives: int = 0
    expirations: int = 0

    @property
    def chunk_tests(self) -> int:
        return self.chunk_tests_passed + self.chunk_tests_failed


@dataclass
class RunSummary:
    """Everything a trace says about one run.

    ``sites`` maps site id to its :class:`SiteSummary`; the remaining
    attributes are system-wide totals.
    """

    events: int = 0
    sites: dict[int, SiteSummary] = field(default_factory=dict)
    # EM / profiling
    em_fits: int = 0
    em_iterations: int = 0
    # Coordinator
    model_updates: int = 0
    weight_updates: int = 0
    deletions: int = 0
    merges: int = 0
    simplex_iterations: int = 0
    simplex_evaluations: int = 0
    splits: int = 0
    evictions: int = 0
    # Transport
    sends: int = 0
    retransmissions: int = 0
    heartbeats: int = 0
    delivered: int = 0
    duplicates_suppressed: int = 0
    send_expirations: int = 0
    # Fault injection
    fault_drops: int = 0
    fault_duplicates: int = 0
    fault_reorders: int = 0
    fault_partition_drops: int = 0
    # Runtime lifecycle
    runtime_runs: int = 0
    runtime_records: int = 0
    runtime_checkpoints: int = 0
    runtime_resumes: int = 0
    # Model history (time-travel observability)
    history_snapshots: int = 0
    # Spans (causal tracing)
    span_count: int = 0
    #: Per-span-name duration histograms (seconds).
    span_durations: dict[str, Histogram] = field(default_factory=dict)

    def site(self, site_id: int) -> SiteSummary:
        if site_id not in self.sites:
            self.sites[site_id] = SiteSummary()
        return self.sites[site_id]

    def span_histogram(self, name: str) -> Histogram:
        if name not in self.span_durations:
            self.span_durations[name] = Histogram(_SPAN_BUCKETS)
        return self.span_durations[name]

    @property
    def total_archives(self) -> int:
        return sum(s.archives for s in self.sites.values())

    @property
    def total_chunk_tests(self) -> int:
        return sum(s.chunk_tests for s in self.sites.values())

    def as_dict(self) -> dict:
        """JSON-safe rendering, backing ``repro stats --format json``."""
        out = asdict(self)
        out["sites"] = {
            str(site_id): asdict(site) for site_id, site in self.sites.items()
        }
        out["span_durations"] = {
            name: {
                "count": histogram.count,
                "sum": histogram.total,
                "p50": histogram.quantile(0.5),
                "p90": histogram.quantile(0.9),
                "p99": histogram.quantile(0.99),
            }
            for name, histogram in sorted(self.span_durations.items())
        }
        return out


def summarize_events(events: Iterable[TraceEvent]) -> RunSummary:
    """Fold a stream of trace events into a :class:`RunSummary`."""
    summary = RunSummary()
    for event in events:
        summary.events += 1
        fields = event.fields
        type_ = event.type
        if type_ == "site.chunk_test":
            site = summary.site(int(fields["site"]))
            if fields.get("passed"):
                site.chunk_tests_passed += 1
            else:
                site.chunk_tests_failed += 1
        elif type_ == "site.cluster":
            summary.site(int(fields["site"])).clusterings += 1
        elif type_ == "site.reactivate":
            summary.site(int(fields["site"])).reactivations += 1
        elif type_ == "site.archive":
            summary.site(int(fields["site"])).archives += 1
        elif type_ == "site.expire":
            summary.site(int(fields["site"])).expirations += 1
        elif type_ == "em.fit":
            summary.em_fits += 1
            summary.em_iterations += int(fields.get("n_iter", 0))
        elif type_ == "coord.model_update":
            summary.model_updates += 1
        elif type_ == "coord.weight_update":
            summary.weight_updates += 1
        elif type_ == "coord.deletion":
            summary.deletions += 1
        elif type_ == "coord.merge":
            summary.merges += 1
            summary.simplex_iterations += int(fields.get("simplex_iterations", 0))
            summary.simplex_evaluations += int(
                fields.get("simplex_evaluations", 0)
            )
        elif type_ == "coord.split":
            summary.splits += 1
        elif type_ == "transport.evict":
            summary.evictions += 1
        elif type_ == "transport.send":
            summary.sends += 1
        elif type_ == "transport.retransmit":
            summary.retransmissions += 1
        elif type_ == "transport.heartbeat":
            summary.heartbeats += 1
        elif type_ == "transport.deliver":
            summary.delivered += 1
        elif type_ == "transport.duplicate":
            summary.duplicates_suppressed += 1
        elif type_ == "transport.expired":
            summary.send_expirations += 1
        elif type_ == "fault.drop":
            summary.fault_drops += 1
        elif type_ == "fault.duplicate":
            summary.fault_duplicates += 1
        elif type_ == "fault.reorder":
            summary.fault_reorders += 1
        elif type_ == "fault.partition":
            summary.fault_partition_drops += 1
        elif type_ == "runtime.run":
            summary.runtime_runs += 1
            summary.runtime_records += int(fields.get("records", 0))
        elif type_ == "runtime.checkpoint":
            summary.runtime_checkpoints += 1
        elif type_ == "runtime.resume":
            summary.runtime_resumes += 1
        elif type_ == "history.snapshot":
            summary.history_snapshots += 1
        elif type_ == "span":
            summary.span_count += 1
            start = fields.get("start")
            end = fields.get("end")
            if start is not None and end is not None:
                summary.span_histogram(str(fields.get("name", "?"))).observe(
                    max(float(end) - float(start), 0.0)
                )
    return summary


def summarize_trace(source: str | Path | IO[str]) -> RunSummary:
    """Read a JSONL trace file and summarise it."""
    return summarize_events(read_trace(source))


def drift_from_trace(
    source: str | Path | IO[str],
    t0: int,
    t1: int,
    scope: str | None = None,
) -> dict:
    """Fold a trace's history snapshots through the live drift analytics.

    Backs ``repro stats --window t0 t1``: the trace's
    ``history.snapshot`` events replay through the same pyramidal
    retention (:func:`~repro.obs.history.history_from_events`) and the
    same :func:`~repro.obs.history.drift_report`, so an offline trace
    and the live ``/history/drift`` endpoint answer identically for
    any window the run served.  Prefers the coordinator's history when
    ``scope`` is unset and the trace carries several.

    Raises
    ------
    ValueError
        When the trace carries no matching history snapshots, or the
        window is negative/reversed (values named in the message).
    """
    events = list(read_trace(source))
    history = None
    if scope is None:
        history = history_from_events(events, scope="coordinator")
    if history is None:
        history = history_from_events(events, scope=scope)
    if history is None:
        raise ValueError(
            "trace carries no history.snapshot events"
            + (f" for scope {scope!r}" if scope is not None else "")
            + "; run with history enabled (--history) to record them"
        )
    report = history.drift_between(t0, t1)
    report["scope"] = history.scope
    report["snapshots"] = len(history)
    return report


def format_drift(report: dict) -> str:
    """Human-readable rendering of a :func:`drift_from_trace` report."""
    components = report.get("components", {})
    transport = report.get("weight_transport")
    lines = [
        f"drift window [{report.get('t0')}, {report.get('t1')}]"
        + (
            f"  (scope={report['scope']})"
            if report.get("scope") is not None
            else ""
        ),
        f"  answered from snapshots at t={report.get('tick0')} "
        f"and t={report.get('tick1')}",
        "  components: "
        f"{components.get('from')} -> {components.get('to')} "
        f"(delta {components.get('delta', 0):+d})",
        "  weight transport: "
        + (f"{transport:.6f}" if transport is not None else "n/a"),
    ]
    churn = report.get("churn") or {}
    if churn:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(churn.items()))
        lines.append(
            f"  churn: {pairs}  (total {report.get('churn_total', 0)})"
        )
    return "\n".join(lines) + "\n"


def format_summary(summary: RunSummary) -> str:
    """Human-readable multi-section rendering of a run summary."""
    lines: list[str] = [f"trace events: {summary.events}"]

    if summary.sites:
        lines.append("")
        lines.append("sites:")
        header = (
            f"  {'site':>6}  {'tests':>6}  {'pass':>6}  {'fail':>6}  "
            f"{'em runs':>8}  {'reactivated':>11}  {'archived':>8}"
        )
        lines.append(header)
        for site_id in sorted(summary.sites):
            site = summary.sites[site_id]
            lines.append(
                f"  {site_id:>6}  {site.chunk_tests:>6}  "
                f"{site.chunk_tests_passed:>6}  {site.chunk_tests_failed:>6}  "
                f"{site.clusterings:>8}  {site.reactivations:>11}  "
                f"{site.archives:>8}"
            )

    if summary.em_fits:
        lines.append("")
        lines.append(
            f"em: fits={summary.em_fits} "
            f"iterations={summary.em_iterations} "
            f"mean_iter={summary.em_iterations / summary.em_fits:.1f}"
        )

    lines.append("")
    lines.append(
        "coordinator: "
        f"model_updates={summary.model_updates} "
        f"weight_updates={summary.weight_updates} "
        f"deletions={summary.deletions} "
        f"merges={summary.merges} splits={summary.splits} "
        f"evictions={summary.evictions}"
    )
    if summary.simplex_evaluations:
        lines.append(
            "merge fit: "
            f"simplex_iterations={summary.simplex_iterations} "
            f"simplex_evaluations={summary.simplex_evaluations} "
            f"evaluations_per_merge="
            f"{summary.simplex_evaluations / summary.merges:.1f}"
        )
    lines.append(
        "transport: "
        f"sends={summary.sends} "
        f"retransmissions={summary.retransmissions} "
        f"delivered={summary.delivered} "
        f"duplicates_suppressed={summary.duplicates_suppressed} "
        f"heartbeats={summary.heartbeats} "
        f"expired={summary.send_expirations}"
    )
    if (
        summary.fault_drops
        or summary.fault_duplicates
        or summary.fault_reorders
        or summary.fault_partition_drops
    ):
        lines.append(
            "faults: "
            f"drops={summary.fault_drops} "
            f"duplicates={summary.fault_duplicates} "
            f"reorders={summary.fault_reorders} "
            f"partition_drops={summary.fault_partition_drops}"
        )
    if summary.runtime_runs or summary.runtime_checkpoints or summary.runtime_resumes:
        lines.append(
            "runtime: "
            f"runs={summary.runtime_runs} "
            f"records={summary.runtime_records} "
            f"checkpoints={summary.runtime_checkpoints} "
            f"resumes={summary.runtime_resumes}"
        )
    if summary.history_snapshots:
        lines.append(f"history: snapshots={summary.history_snapshots}")
    if summary.span_durations:
        lines.append("")
        lines.append(f"spans: {summary.span_count}")
        lines.append(
            f"  {'name':<22}  {'count':>6}  {'p50':>10}  {'p90':>10}  "
            f"{'p99':>10}"
        )
        for name in sorted(summary.span_durations):
            histogram = summary.span_durations[name]
            lines.append(
                f"  {name:<22}  {histogram.count:>6}  "
                f"{histogram.quantile(0.5):>10.6f}  "
                f"{histogram.quantile(0.9):>10.6f}  "
                f"{histogram.quantile(0.99):>10.6f}"
            )
    return "\n".join(lines) + "\n"
