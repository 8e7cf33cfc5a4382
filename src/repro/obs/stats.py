"""Trace analysis: a JSONL trace as a human-readable run summary.

The consumer half of the tracing layer: the typed events emitted
during a run (from a file, a ring buffer, or any iterable) pass through
the one trace fold (:class:`~repro.obs.health.HealthMonitor`), and
:class:`RunSummary` is its view in the counts the paper's figures are
built from -- per-site chunk-test pass/fail, EM runs, reactivations,
model archives, coordinator merge/split decisions, and everything the
transport had to do (sends, retransmissions, heartbeats, duplicate
suppressions).

The ``cludistream stats`` CLI subcommand is a thin wrapper over
:func:`summarize_trace` + :func:`format_summary`; the integration suite
uses the same functions to assert that a trace reconstructs exactly the
state the live objects report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable

from repro.obs.health import HealthMonitor
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


def _count(event_type: str):
    """A :class:`RunSummary` total that is the number of ``event_type``
    events in the trace."""
    return field(default=0, metadata={"count": event_type})


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
    attributes are system-wide totals.  Built by :meth:`of` from the
    trace fold.
    """

    events: int = 0
    sites: dict[int, SiteSummary] = field(default_factory=dict)
    # EM / profiling
    em_fits: int = _count("em.fit")
    em_iterations: int = 0
    # Coordinator
    model_updates: int = _count("coord.model_update")
    weight_updates: int = _count("coord.weight_update")
    deletions: int = _count("coord.deletion")
    merges: int = _count("coord.merge")
    simplex_iterations: int = 0
    simplex_evaluations: int = 0
    splits: int = _count("coord.split")
    evictions: int = _count("transport.evict")
    # Transport
    sends: int = _count("transport.send")
    retransmissions: int = _count("transport.retransmit")
    heartbeats: int = _count("transport.heartbeat")
    delivered: int = _count("transport.deliver")
    duplicates_suppressed: int = _count("transport.duplicate")
    # Fault injection
    fault_drops: int = _count("fault.drop")
    fault_duplicates: int = _count("fault.duplicate")
    fault_reorders: int = _count("fault.reorder")
    fault_partition_drops: int = _count("fault.partition")
    # Runtime lifecycle
    runtime_runs: int = _count("runtime.run")
    runtime_records: int = 0
    runtime_checkpoints: int = _count("runtime.checkpoint")
    runtime_resumes: int = _count("runtime.resume")
    # Model history (time-travel observability)
    history_reigns: int = _count("history.reign")
    # Spans (causal tracing)
    span_count: int = _count("span")
    #: Per-span-name duration histograms (seconds).
    span_durations: dict[str, Histogram] = field(default_factory=dict)

    @classmethod
    def of(cls, fold: HealthMonitor) -> "RunSummary":
        """The run summary view of a trace fold."""
        return cls(
            events=fold.events,
            sites={
                site_id: SiteSummary(
                    chunk_tests_passed=site.tests_passed,
                    chunk_tests_failed=site.tests - site.tests_passed,
                    clusterings=site.clusterings,
                    reactivations=site.reactivations,
                    archives=site.archives,
                    expirations=site.expirations,
                )
                for site_id, site in fold.sites.items()
            },
            em_iterations=fold.em_iterations,
            simplex_iterations=fold.simplex_iterations,
            simplex_evaluations=fold.simplex_evaluations,
            runtime_records=fold.runtime_records,
            span_durations=dict(fold.span_durations),
            **{
                f.name: fold.count(f.metadata["count"])
                for f in fields(cls)
                if "count" in f.metadata
            },
        )

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
    return RunSummary.of(HealthMonitor.replay(events))


def summarize_trace(source: str | Path | IO[str]) -> RunSummary:
    """Read a JSONL trace file and summarise it."""
    return summarize_events(read_trace(source))


def drift_from_trace(
    source: str | Path | IO[str],
    t0: int,
    t1: int,
    scope: str | None = None,
) -> dict:
    """Fold a trace's reigns through the live drift analytics.

    Backs ``repro stats --window t0 t1``: the trace fold replays the
    ``history.reign`` and ``history.open`` events into the same reign
    record, whose :meth:`~repro.obs.history.ModelHistory.drift_between`
    the live ``/history/drift`` endpoint serves, so both answer
    identically for any window.  ``scope`` picks the history as
    :meth:`~repro.obs.health.HealthMonitor.history` does.

    Raises
    ------
    ValueError
        When the trace carries no matching reigns, or the window is
        negative/reversed (values named in the message).
    """
    history = HealthMonitor.replay(read_trace(source)).history(scope)
    if history is None:
        raise ValueError(
            "trace carries no history events"
            + (f" for scope {scope!r}" if scope is not None else "")
            + "; run with history enabled (--history) to record them"
        )
    report = history.drift_between(t0, t1)
    report["scope"] = history.scope
    report["reigns"] = len(history)
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
        f"  answered from the reigns starting at t={report.get('start0')} "
        f"and t={report.get('start1')}",
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
    ends = report.get("change_points")
    if ends:
        lines.append("  reign ends: " + ", ".join(str(end) for end in ends))
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
        f"heartbeats={summary.heartbeats}"
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
    if summary.history_reigns:
        lines.append(f"history: reigns={summary.history_reigns}")
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
