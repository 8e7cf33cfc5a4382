"""Unit tests for the live health gauges (repro.obs.health)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.obs.health import (
    EVENT_TAIL,
    HealthMonitor,
    SiteHealth,
    system_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import TraceEvent
from repro.runtime import DirectChannel
from repro.runtime.accounting import DeliveryAccounting
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)


def event(type_: str, **fields) -> TraceEvent:
    return TraceEvent(seq=1, time=0.0, type=type_, fields=fields)


class TestSiteHealth:
    def test_margin_is_threshold_minus_j_fit(self):
        site = SiteHealth(site_id=0, last_j_fit=0.02, last_threshold=0.05)
        assert site.margin == pytest.approx(0.03)

    def test_margin_none_without_a_test(self):
        assert SiteHealth(site_id=0).margin is None

    def test_pass_rate(self):
        site = SiteHealth(site_id=0, tests=4, tests_passed=3)
        assert site.pass_rate == pytest.approx(0.75)
        assert SiteHealth(site_id=0).pass_rate is None


class TestHealthMonitorFolding:
    def test_chunk_test_updates_site_gauges(self):
        monitor = HealthMonitor()
        monitor.write(
            event(
                "site.chunk_test",
                site=3, model=7, passed=True,
                j_fit=0.01, threshold=0.05, chunk=500,
            )
        )
        report = monitor.report()
        [site] = report["sites"]
        assert site["site"] == 3
        assert site["model"] == 7
        assert site["margin"] == pytest.approx(0.04)
        assert site["pass_rate"] == 1.0
        assert report["records"] == 500
        assert report["status"] == "ok"

    def test_negative_margin_flags_drift(self):
        monitor = HealthMonitor()
        monitor.write(
            event(
                "site.chunk_test",
                site=0, model=1, passed=False,
                j_fit=0.9, threshold=0.05, chunk=100,
            )
        )
        report = monitor.report()
        assert report["status"] == "drifting"
        assert report["drifting_sites"] == [0]

    def test_refit_ladder_gauges(self):
        monitor = HealthMonitor()
        for _ in range(4):
            monitor.write(
                event("site.chunk_test", site=0, passed=False, chunk=100)
            )
        monitor.write(event("site.refit", site=0, outcome="warm", n_iter=2))
        monitor.write(event("site.refit", site=0, outcome="warm", n_iter=3))
        monitor.write(event("site.refit", site=0, outcome="cold", n_iter=9))
        monitor.write(
            event(
                "site.refit", site=0, outcome="reactivated", n_iter=0
            )
        )
        # Latency arrives on the span record, not the event.
        monitor.write(
            event(
                "span",
                name="site.refit",
                start=1.0,
                end=1.25,
                attrs={"site": 0, "outcome": "warm", "n_iter": 2},
            )
        )
        monitor.write(
            event(
                "span",
                name="site.refit",
                start=2.0,
                end=2.75,
                attrs={"site": 0, "outcome": "cold", "n_iter": 9},
            )
        )
        site = monitor.report()["sites"][0]
        assert site["refits"] == {"reactivated": 1, "warm": 2, "cold": 1}
        assert site["refit_rate"] == pytest.approx(1.0)
        assert site["mean_refit_seconds"] == pytest.approx(0.25)
        rollup = monitor.report()["refits"]
        assert rollup["warm"] == 2 and rollup["cold"] == 1
        assert rollup["refit_rate"] == pytest.approx(1.0)
        assert rollup["mean_seconds"] == pytest.approx(0.25)
        registry = MetricsRegistry()
        monitor.publish(registry)
        assert registry.gauge(
            "health.site_refit_rate", site=0
        ).value == pytest.approx(1.0)
        assert registry.gauge(
            "health.site_refit_seconds", site=0
        ).value == pytest.approx(0.25)
        assert registry.gauge("health.refit_rate").value == pytest.approx(1.0)
        assert registry.gauge(
            "health.refit_seconds"
        ).value == pytest.approx(0.25)

    def test_coordinator_counters_and_churn(self):
        monitor = HealthMonitor()
        monitor.write(
            event(
                "site.chunk_test",
                site=0, model=1, passed=True,
                j_fit=0.0, threshold=0.1, chunk=1000,
            )
        )
        monitor.write(event("coord.merge", a=1, b=2))
        monitor.write(event("coord.split", site=0, model=1))
        coord = monitor.report()["coordinator"]
        assert coord["merges"] == 1 and coord["splits"] == 1
        assert coord["churn_rate"] == pytest.approx(2 / 1000)

    def test_bound_probes_feed_the_report(self):
        monitor = HealthMonitor()
        accounting = DeliveryAccounting(payload_bytes=4000)
        monitor.bind(
            component_count=lambda: 8, accounting=lambda: accounting
        )
        monitor.write(
            event(
                "site.chunk_test",
                site=0, model=1, passed=True,
                j_fit=0.0, threshold=0.1, chunk=1000,
            )
        )
        report = monitor.report()
        assert report["coordinator"]["components"] == 8
        assert report["accounting"]["bytes_per_record"] == pytest.approx(4.0)

    def test_publish_pushes_health_gauges(self):
        monitor = HealthMonitor().bind(component_count=lambda: 5)
        monitor.write(
            event(
                "site.chunk_test",
                site=1, model=1, passed=True,
                j_fit=0.02, threshold=0.05, chunk=100,
            )
        )
        registry = MetricsRegistry()
        monitor.publish(registry)
        assert registry.gauge("health.components").value == 5.0
        assert registry.gauge(
            "health.site_margin", site=1
        ).value == pytest.approx(0.03)


class TestAgainstLiveRun:
    def test_monitor_matches_the_live_objects(self):
        monitor = HealthMonitor()
        observer = Observer(sink=monitor)
        config = CluDistreamConfig(
            n_sites=2,
            site=RemoteSiteConfig(
                dim=4, epsilon=0.05, delta=0.05,
                em=EMConfig(n_components=3, n_init=1, max_iter=30),
                chunk_override=400,
            ),
            coordinator=CoordinatorConfig(max_components=6),
        )
        system = CluDistream(config, seed=1, observer=observer)
        monitor.bind(component_count=lambda: system.coordinator.n_components)
        streams = {
            i: EvolvingGaussianStream(
                EvolvingStreamConfig(dim=4, n_components=3),
                rng=np.random.default_rng(50 + i),
            )
            for i in range(2)
        }
        runtime = system.runtime(DirectChannel())
        monitor.bind(accounting=runtime.accounting)
        runtime.run(streams, max_records_per_site=1600)
        report = monitor.report()
        assert report["records"] == 2 * 1600
        assert (
            report["coordinator"]["components"]
            == system.coordinator.n_components
        )
        for entry in report["sites"]:
            site = next(
                s for s in system.sites if s.site_id == entry["site"]
            )
            assert entry["tests"] == site.stats.n_tests
            assert entry["tests_passed"] == site.stats.n_tests_passed
            assert entry["model"] == site.current_model.model_id
        assert report["accounting"]["payload_bytes"] > 0


class TestSystemSnapshot:
    def test_snapshot_of_a_live_system(self):
        config = CluDistreamConfig(
            n_sites=2,
            site=RemoteSiteConfig(
                dim=4, epsilon=0.05, delta=0.05,
                em=EMConfig(n_components=3, n_init=1, max_iter=30),
                chunk_override=400,
            ),
            coordinator=CoordinatorConfig(max_components=6),
        )
        system = CluDistream(config, seed=1)
        streams = {
            i: EvolvingGaussianStream(
                EvolvingStreamConfig(dim=4, n_components=3),
                rng=np.random.default_rng(50 + i),
            )
            for i in range(2)
        }
        runtime = system.runtime(DirectChannel())
        runtime.run(streams, max_records_per_site=1200)
        snapshot = system_snapshot(
            system.sites, system.coordinator, runtime.accounting()
        )
        assert [s["site"] for s in snapshot["sites"]] == [0, 1]
        for entry, site in zip(snapshot["sites"], system.sites):
            assert entry["position"] == site.position
            assert entry["current_model"] == site.current_model.model_id
            assert entry["event_count"] == len(site.events)
            assert len(entry["event_table_tail"]) <= 5
        assert (
            snapshot["coordinator"]["components"]
            == system.coordinator.n_components
        )
        assert snapshot["accounting"]["payload_bytes"] > 0

    def test_event_table_tail_is_bounded(self):
        class FakeEvents:
            records = tuple(
                type("R", (), {"start": i, "end": i + 1, "model_id": i})()
                for i in range(10)
            )

            def __len__(self):
                return 10

        class FakeSite:
            site_id = 0
            position = 10
            current_model = None
            all_models = ()
            events = FakeEvents()

        snapshot = system_snapshot([FakeSite()], object())
        tail = snapshot["sites"][0]["event_table_tail"]
        assert [e["start"] for e in tail] == list(range(10 - EVENT_TAIL, 10))
