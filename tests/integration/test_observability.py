"""Acceptance: a traced end-to-end run is reconstructible from its trace.

One CluDistream run over the loopback transport with tracing enabled
must yield a JSONL trace from which the ``stats`` summariser recovers
per-site chunk-test pass/fail counts, clusterings, model archives and
the coordinator's merge/split/update counts -- matching the numbers
the system itself reports through its own statistics objects.  A
second, lossy run additionally pins total retransmissions and
suppressed duplicates against the senders' and receiver's counters.

When ``REPRO_TRACE_ARTIFACTS`` names a directory, the traces and a
metrics snapshot are written there so CI can upload them as build
artifacts.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.obs import JsonlTraceSink, Observer, summarize_trace
from repro.runtime import TransportChannel
from repro.runtime.channel import ROOT_ID
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig

N_SITES = 3
RECORDS_PER_SITE = 480
DIM = 2

FAULTS = FaultConfig(
    drop_rate=0.20,
    duplicate_rate=0.05,
    reorder_rate=0.10,
    reorder_delay=0.6,
)


def traced_run(lossy: bool):
    """Run the system over a transport with full tracing enabled."""
    clock = ManualClock()
    buffer = io.StringIO()
    observer = Observer(
        sink=JsonlTraceSink(buffer), time_source=lambda: clock.now
    )
    system = CluDistream(
        CluDistreamConfig(
            n_sites=N_SITES,
            site=RemoteSiteConfig(
                dim=DIM,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=30),
                chunk_override=80,
            ),
        ),
        seed=11,
        observer=observer,
    )
    transport = LoopbackTransport()
    if lossy:
        transport = LossyTransport(
            transport, clock, FAULTS, seed=21, observer=observer
        )
    streams = {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=DIM, n_components=2, p_new_distribution=0.8
                ),
                rng=np.random.default_rng(500 + site_id),
            ),
            RECORDS_PER_SITE,
        )
        for site_id in range(N_SITES)
    }
    channel = TransportChannel(
        transport,
        clock,
        reliability=ReliabilityConfig(
            initial_timeout=0.4, jitter=0.1, heartbeat_interval=None
        ),
    )
    system.runtime(channel).run(streams, max_records_per_site=RECORDS_PER_SITE)
    observer.flush()
    return (
        system,
        channel.endpoints,
        channel.hop,
        observer,
        buffer.getvalue(),
    )


def export_artifacts(name: str, trace: str, observer: Observer) -> None:
    directory = os.environ.get("REPRO_TRACE_ARTIFACTS")
    if not directory:
        return
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{name}.trace.jsonl").write_text(trace, encoding="utf-8")
    (root / f"{name}.metrics.json").write_text(
        json.dumps(observer.registry.snapshot(), indent=2, sort_keys=True),
        encoding="utf-8",
    )


@pytest.fixture(scope="module")
def loopback_run():
    system, endpoints, hop, observer, trace = traced_run(lossy=False)
    export_artifacts("loopback", trace, observer)
    return system, endpoints, hop, observer, trace


@pytest.fixture(scope="module")
def lossy_run():
    system, endpoints, hop, observer, trace = traced_run(lossy=True)
    export_artifacts("lossy", trace, observer)
    return system, endpoints, hop, observer, trace


class TestTraceReconstructsRun:
    def test_per_site_chunk_outcomes_match_site_stats(self, loopback_run):
        system, _, _, _, trace = loopback_run
        summary = summarize_trace(io.StringIO(trace))
        for site in system.sites:
            if site.stats.n_tests == 0 and site.stats.n_clusterings == 0:
                continue
            traced = summary.sites[site.site_id]
            assert traced.chunk_tests_passed == site.stats.n_tests_passed
            assert traced.chunk_tests_failed == (
                site.stats.n_tests - site.stats.n_tests_passed
            )
            assert traced.clusterings == site.stats.n_clusterings
            assert traced.archives == site.stats.n_archived
            assert traced.reactivations == site.stats.n_reactivations

    def test_coordinator_counts_match_coordinator_stats(self, loopback_run):
        system, _, _, _, trace = loopback_run
        summary = summarize_trace(io.StringIO(trace))
        stats = system.coordinator.stats
        assert summary.model_updates == stats.model_updates
        assert summary.weight_updates == stats.weight_updates
        assert summary.deletions == stats.deletions
        assert summary.merges == stats.merges
        assert summary.splits == stats.splits
        # The run actually exercised the merge path.
        assert summary.model_updates > 0

    def test_em_activity_is_traced(self, loopback_run):
        system, _, _, observer, trace = loopback_run
        summary = summarize_trace(io.StringIO(trace))
        clusterings = sum(s.stats.n_clusterings for s in system.sites)
        assert summary.em_fits == clusterings
        assert summary.em_iterations > 0
        # Profiling timers observed every fit.
        histogram = observer.registry.histogram("profile.em_fit")
        assert histogram.count == summary.em_fits

    def test_metrics_registry_agrees_with_trace(self, loopback_run):
        system, _, _, observer, trace = loopback_run
        summary = summarize_trace(io.StringIO(trace))
        registry = observer.registry
        traced_total = sum(s.chunk_tests for s in summary.sites.values())
        counted = sum(
            metric.value
            for kind, name, _, metric in registry.collect()
            if kind == "counter" and name == "site.chunk_tests"
        )
        assert counted == traced_total
        # The merge fit's cost counters: trace and registry agree.
        for field, name in (
            ("simplex_iterations", "merge.simplex_iterations"),
            ("simplex_evaluations", "merge.simplex_evaluations"),
        ):
            assert getattr(summary, field) == registry.counter(name).value

    def test_retransmissions_match_sender_stats(self, lossy_run):
        _, endpoints, hop, _, trace = lossy_run
        summary = summarize_trace(io.StringIO(trace))
        expected = sum(e.sender.stats.retransmissions for e in endpoints)
        assert summary.retransmissions == expected
        assert expected > 0
        duplicates = hop.receiver.stats.duplicates_suppressed
        assert summary.duplicates_suppressed == duplicates
        assert duplicates > 0

    def test_each_applied_message_is_one_root_aggregate_under_its_site(
        self, lossy_run
    ):
        # The channel's coordinator is the root of a one-level tree:
        # what serve's root pins in tests/transport/test_flat_server.py.
        system, _, hop, _, trace = lossy_run
        spans = {
            event["span"]: event
            for event in map(json.loads, trace.splitlines())
            if event["type"] == "span"
        }
        aggregates = [
            span for span in spans.values()
            if span["name"] == "cluster.aggregate"
        ]
        assert len(aggregates) == hop.receiver.stats.delivered
        assert len(aggregates) == system.coordinator.stats.messages_received
        for span in aggregates:
            attrs = span["attrs"]
            assert (attrs["node"], attrs["level"]) == (ROOT_ID, 0)
            site_span = spans[span["parent"]]
            assert site_span["name"].startswith("site.")
            assert site_span["attrs"]["site"] == attrs["child"]
            assert site_span["trace"] == span["trace"]

    def test_lossy_trace_records_faults(self, lossy_run):
        _, _, _, _, trace = lossy_run
        summary = summarize_trace(io.StringIO(trace))
        assert summary.fault_drops > 0
        assert summary.sends > 0
        assert summary.delivered >= summary.sends
