"""Tests for the reign record behind time-travel queries (repro.obs.history)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.obs.history import (
    REIGN_LIMIT,
    SERIES_POINTS,
    ModelHistory,
    site_history_payload,
    weight_transport,
)
from repro.obs.health import HealthMonitor
from repro.obs.observer import Observer
from repro.obs.trace import RingBufferSink


def payload_at(tick: int) -> dict:
    """A deterministic JSON-safe summary for tick ``tick``: it changes
    every ten ticks."""
    components = 1 + tick // 10
    return {
        "components": components,
        "weights": [1.0 / components] * components,
        "counters": {"merges": tick // 10, "splits": tick // 20},
        "gauges": {"components": components, "margin": 0.1 * (tick // 10)},
    }


def filled_history(n: int = 40, **kwargs) -> ModelHistory:
    """Observed at ticks 1..n: reigns [1, 10), [10, 20), ... and an open
    reign from the last multiple of ten."""
    history = ModelHistory(**kwargs)
    for tick in range(1, n + 1):
        history.observe(tick, payload_at(tick))
    return history


class TestWeightTransport:
    def test_identical_profiles_have_zero_distance(self):
        assert weight_transport([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_order_does_not_matter(self):
        # Components carry no identity; profiles are matched by rank.
        assert weight_transport([0.3, 0.7], [0.7, 0.3]) == 0.0

    def test_shorter_vector_is_zero_padded(self):
        assert weight_transport([1.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_split_into_four_moves_three_quarters(self):
        assert weight_transport([1.0], [0.25] * 4) == pytest.approx(0.75)

    def test_none_or_empty_sides_answer_none(self):
        assert weight_transport(None, [0.5, 0.5]) is None
        assert weight_transport([0.5, 0.5], None) is None
        assert weight_transport([], []) is None


class TestObserve:
    def test_stores_positive_ticks(self):
        history = ModelHistory()
        history.observe(1, {"components": 1})
        history.observe(2, {"components": 2})
        # The change at tick 2 closed the reign [1, 2) and opened one.
        assert len(history) == 1
        assert history.reigns()[0]["start"] == 1
        assert history.reigns()[0]["end"] == 2
        assert history.reigns()[1]["end"] is None
        assert history.last_tick == 2

    def test_an_unchanged_summary_keeps_the_reign_open(self):
        history = ModelHistory()
        for tick in (5, 6, 7):
            history.observe(tick, {"components": 1})
        assert len(history) == 0
        assert history.model_at(7)["start"] == 5
        assert history.last_tick == 7

    def test_out_of_order_ticks_are_ignored(self):
        # Interleaved multi-site clocks at a coordinator: a stale tick
        # neither closes a reign nor rewinds the clock, but its summary
        # is recorded (no message is dropped).
        history = ModelHistory()
        history.observe(10, {"components": 1})
        history.observe(10, {"components": 2})
        history.observe(3, {"components": 3})
        assert len(history) == 0
        assert history.last_tick == 10
        assert history.model_at(10)["summary"] == {"components": 3}

    def test_gauge_source_merged_dropping_none(self):
        history = ModelHistory(
            gauge_source=lambda: {"margin": 0.25, "pass_rate": None}
        )
        history.observe(1, {"gauges": {"components": 2}})
        assert history.model_at(1)["summary"]["gauges"] == {
            "components": 2, "margin": 0.25,
        }

    def test_snapshots_mirrored_as_trace_events(self):
        # Each closed reign is one history.reign event carrying the
        # summary it had when it closed; each change of the open reign
        # is one history.open event.
        sink = RingBufferSink()
        history = ModelHistory(scope="site:3")
        history.observer = Observer(sink=sink)
        for tick in (5, 6, 8):
            history.observe(tick, payload_at(tick))
        history.observe(12, payload_at(12))
        (event,) = [e for e in sink.events if e.type == "history.reign"]
        fields = event.fields
        assert fields["scope"] == "site:3"
        assert (fields["start"], fields["end"], fields["model"]) == (5, 12, 0)
        assert fields["limit"] == REIGN_LIMIT
        assert fields["summary"] == payload_at(8)
        opened = [e.fields for e in sink.events if e.type == "history.open"]
        assert [(f["start"], f["model"], f["tick"]) for f in opened] == [
            (5, 0, 5), (5, 0, 6), (5, 0, 8), (12, 1, 12),
        ]
        assert opened[-1]["summary"] == payload_at(12)


class TestModelAt:
    def test_exact_tick_answers_itself(self):
        history = filled_history(40)
        answer = history.model_at(20)
        assert answer["t"] == 20
        assert (answer["start"], answer["end"], answer["model"]) == (20, 30, 2)
        assert answer["summary"] == payload_at(29)

    def test_answers_newest_retained_at_or_before(self):
        history = filled_history(40)
        assert history.model_at(25)["start"] == 20
        # The open reign answers from its start on.
        assert history.model_at(1000)["start"] == 40
        assert history.model_at(1000)["end"] is None
        assert history.model_at(1000)["summary"] == payload_at(40)

    def test_before_the_retained_range_answers_no_reign(self):
        history = ModelHistory(limit=2)
        for tick in range(1, 41):
            history.observe(tick, payload_at(tick))
        assert history.start == history.events.retained_start == 20
        assert history.model_at(5) == {
            "t": 5, "start": None, "end": None, "model": None, "summary": None,
        }
        assert history.events.model_at(5) is None

    def test_negative_time_raises_naming_value(self):
        history = filled_history(10)
        with pytest.raises(ValueError, match="got -7"):
            history.model_at(-7)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="history is empty"):
            ModelHistory().model_at(0)


class TestDriftBetween:
    def test_reports_component_delta_and_transport(self):
        history = filled_history(40)
        report = history.drift_between(5, 35)
        assert report["t0"] == 5 and report["t1"] == 35
        assert report["start0"] == 1 and report["start1"] == 30
        assert report["components"]["from"] == payload_at(9)["components"]
        assert report["components"]["to"] == payload_at(39)["components"]
        assert (
            report["components"]["delta"]
            == report["components"]["to"] - report["components"]["from"]
        )
        assert report["weight_transport"] is not None
        assert report["churn_total"] == sum(report["churn"].values())
        assert report["change_points"] == [10, 20, 30]

    def test_churn_clamps_negative_deltas(self):
        history = ModelHistory()
        history.observe(1, {"counters": {"merges": 5}})
        history.observe(2, {"counters": {"merges": 2}})
        report = history.drift_between(1, 2)
        assert report["churn"]["merges"] == 0
        assert report["churn_total"] == 0
        assert report["change_points"] == [2]

    def test_negative_start_raises_naming_value(self):
        with pytest.raises(ValueError, match="got -1"):
            filled_history(10).drift_between(-1, 5)

    def test_reversed_window_raises_naming_both_values(self):
        with pytest.raises(ValueError, match=r"\[30, 5\)"):
            filled_history(40).drift_between(30, 5)


class TestGaugeSeries:
    def test_series_is_tick_value_pairs_in_range(self):
        history = filled_history(40)
        points = history.gauge_series("components", 10, 25)
        # One point per reign meeting the range, at the reign's start.
        assert [start for start, _ in points] == [10, 20]
        for start, value in points:
            assert value == payload_at(start + 9)["gauges"]["components"]

    def test_endpoints_default_to_full_range(self):
        history = filled_history(40)
        points = history.gauge_series("components")
        assert [start for start, _ in points] == [1, 10, 20, 30, 40]
        assert points == history.gauge_series("components", 0, 40)

    def test_unknown_gauge_is_empty(self):
        assert filled_history(10).gauge_series("no_such_gauge") == []

    def test_none_values_are_skipped(self):
        history = ModelHistory()
        history.observe(1, {"gauges": {"pass_rate": None}})
        history.observe(2, {"gauges": {"pass_rate": 0.5}})
        assert history.gauge_series("pass_rate") == [[2, 0.5]]

    def test_reversed_range_raises(self):
        with pytest.raises(ValueError, match=r"\[9, 3\)"):
            filled_history(10).gauge_series("components", 9, 3)

    def test_gauge_names_are_sorted_union(self):
        history = ModelHistory()
        history.observe(1, {"gauges": {"b": 1}})
        history.observe(2, {"gauges": {"a": 1}})
        assert history.summary()["gauges"] == ["a", "b"]


class TestRetentionBound:
    def test_fifty_thousand_ticks_stay_within_the_reign_limit(self):
        # The table's max_events bounds the record; a summary leaves
        # with its reign.
        n = 50_000
        history = ModelHistory()
        for tick in range(1, n + 1):
            history.observe(tick, {"components": tick})
        assert len(history) == REIGN_LIMIT
        assert len(history._summaries) == REIGN_LIMIT
        assert history.events.evictions == n - 1 - REIGN_LIMIT
        assert history.start == n - REIGN_LIMIT
        summary = history.summary()
        assert summary["retained"] == REIGN_LIMIT
        assert summary["evictions"] == history.events.evictions
        assert summary["horizon"] == n


    def test_a_long_site_stream_keeps_every_payload_bounded(self):
        # A site's table keeps every reign by default (no event_limit);
        # its record, what the record serves and the trace fold of it
        # keep the newest REIGN_LIMIT.
        site = make_history_site()
        assert site.config.event_limit is None
        history = site.history
        assert history.events.max_events == REIGN_LIMIT
        sink = RingBufferSink()
        history.observer = Observer(sink=sink)
        n = 3 * REIGN_LIMIT
        for reign in range(n + 1):
            start = 100 * reign
            components = 1 + reign % 3
            history.observe(
                start + 50,
                {"model": reign, "gauges": {"components": components}},
                start=start,
            )
            if reign < n:
                history.close(start + 100)
        summary = history.summary()
        assert len(summary["reigns"]) == REIGN_LIMIT + 1
        assert len(history._summaries) == REIGN_LIMIT
        assert summary["evictions"] == n - REIGN_LIMIT
        assert summary["start"] == 100 * (n - REIGN_LIMIT)
        rollup = history.federated_summary()
        assert len(rollup["components"]) == SERIES_POINTS
        offline = HealthMonitor.replay(sink.events).history("site:0")
        assert len(offline) == REIGN_LIMIT
        assert offline.summary() == summary


class TestSummaries:
    def test_summary_shape(self):
        history = filled_history(40, scope="coordinator")
        summary = history.summary()
        assert set(summary) == {
            "scope", "retained", "evictions", "start", "horizon", "reigns",
            "gauges",
        }
        assert summary["scope"] == "coordinator"
        assert summary["horizon"] == 40
        assert summary["start"] == 1
        assert summary["retained"] == 4
        assert summary["reigns"][0] == [1, 10, 0]
        assert summary["reigns"][-1] == [40, None, 4]
        assert "components" in summary["gauges"]

    def test_federated_summary_caps_the_series(self):
        history = filled_history(400)
        rollup = history.federated_summary()
        full = history.gauge_series("components")
        assert len(full) > SERIES_POINTS
        assert len(rollup["components"]) == SERIES_POINTS
        assert rollup["retained"] == len(history)
        assert rollup["horizon"] == 400
        # The series keeps the most recent points.
        assert rollup["components"] == full[-SERIES_POINTS:]

    def test_publish_pushes_retention_gauges(self):
        history = filled_history(40, scope="site:1", limit=2)
        registry = Observer().registry
        history.publish(registry)
        assert registry.gauge(
            "history.retained", scope="site:1"
        ).value == len(history) == 2
        assert (
            registry.gauge("history.evictions", scope="site:1").value
            == history.events.evictions
            == 2
        )


class TestCheckpoint:
    def test_round_trip_preserves_answers(self):
        history = filled_history(64, scope="coordinator", limit=4)
        clone = ModelHistory.from_dict(history.to_dict())
        assert clone.summary() == history.summary()
        for t in (1, 17, 40, 64):
            assert clone.model_at(t) == history.model_at(t)
        assert clone.drift_between(4, 60) == history.drift_between(4, 60)

    def test_round_trip_survives_json(self):
        history = filled_history(32)
        wire = json.loads(json.dumps(history.to_dict()))
        clone = ModelHistory.from_dict(wire)
        assert clone.reigns() == history.reigns()

    def test_process_state_is_not_checkpointed(self):
        history = filled_history(8, gauge_source=lambda: {"margin": 1.0})
        history.observer = Observer()
        clone = ModelHistory.from_dict(history.to_dict())
        assert clone.observer is None
        assert clone.gauge_source is None

    def test_restored_store_continues_retention(self):
        history = filled_history(40, limit=8)
        clone = ModelHistory.from_dict(history.to_dict())
        for tick in range(41, 201):
            clone.observe(tick, payload_at(tick))
        reference = filled_history(200, limit=8)
        assert clone.to_dict() == reference.to_dict()

    def test_a_pyramid_payload_starts_a_fresh_record(self):
        # The 1.17.0 checkpoint layout: a nested "store" of snapshots.
        pyramid = {
            "max_bytes": None, "scope": "coordinator", "last_tick": 40,
            "evicted_memory": 0,
            "store": {"alpha": 2, "capacity": 2, "offered": 1,
                      "stored_total": 1, "evicted": 0,
                      "snapshots": [[40, {"components": 2}]]},
        }
        history = ModelHistory.from_dict(pyramid)
        assert history.scope == "coordinator"
        assert len(history) == 0 and history.reigns() == []


class TestTraceReplay:
    def test_offline_replay_matches_the_live_store(self):
        sink = RingBufferSink()
        live = ModelHistory(scope="coordinator")
        live.observer = Observer(sink=sink)
        for tick in range(1, 101):
            live.observe(tick, payload_at(tick))
        offline = HealthMonitor.replay(sink.events).history()
        assert offline is not None
        assert offline.scope == "coordinator"
        # The trace holds the closed reigns and the open one.
        assert offline.reigns() == live.reigns()
        assert offline.summary() == live.summary()
        assert offline.drift_between(10, 90) == live.drift_between(10, 90)
        assert offline.drift_between(95, 100) == live.drift_between(95, 100)
        assert offline.gauge_series("components", 0, 99) == live.gauge_series(
            "components", 0, 99
        )

    def test_a_record_with_no_closed_reign_replays(self):
        # A model that never changes closes no reign; its open reign is
        # still in the trace, so the offline fold answers.
        sink = RingBufferSink()
        live = ModelHistory(scope="coordinator")
        live.observer = Observer(sink=sink)
        for tick in (400, 400, 800):
            live.observe(tick, {"components": 2})
        offline = HealthMonitor.replay(sink.events).history()
        assert len(offline) == 0
        assert offline.summary() == live.summary()
        assert offline.drift_between(0, 800) == live.drift_between(0, 800)

    def test_scope_selects_one_history_from_a_shared_trace(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        coord = ModelHistory(scope="coordinator")
        site = ModelHistory(scope="site:0")
        coord.observer = observer
        site.observer = observer
        for tick in range(1, 31):
            site.observe(tick, payload_at(tick))
            coord.observe(tick, payload_at(tick + 100))
        replayed = HealthMonitor.replay(sink.events).history("site:0")
        assert replayed.reigns() == site.reigns()
        assert replayed.model_at(1)["summary"] == payload_at(9)

    def test_unscoped_replay_locks_to_the_first_scope_seen(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        first = ModelHistory(scope="site:1")
        second = ModelHistory(scope="site:2")
        first.observer = observer
        second.observer = observer
        for tick in (1, 2):
            first.observe(tick, {"components": tick})
            second.observe(tick, {"components": tick})
        first.observe(3, {"components": 3})
        replayed = HealthMonitor.replay(sink.events).history()
        assert replayed.scope == "site:1"
        assert [r["start"] for r in replayed.reigns()] == [1, 2, 3]

    def test_no_matching_events_answers_none(self):
        assert HealthMonitor.replay([]).history() is None
        sink = RingBufferSink()
        history = ModelHistory(scope="site:0")
        history.observer = Observer(sink=sink)
        history.observe(1, payload_at(1))
        history.observe(10, payload_at(10))
        assert HealthMonitor.replay(sink.events).history("site:9") is None


def make_mixture(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def make_history_site(**config) -> RemoteSite:
    config = RemoteSiteConfig(
        dim=2,
        epsilon=0.3,
        delta=0.05,
        c_max=4,
        em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
        chunk_override=200,
        **config,
    )
    return RemoteSite(
        0, config, rng=np.random.default_rng(5), history=ModelHistory()
    )


def feed(site: RemoteSite, center: float, n: int, seed: int) -> None:
    points, _ = make_mixture(center).sample(n, np.random.default_rng(seed))
    site.process_stream(points)


def recurring_site() -> RemoteSite:
    """A site on a seeded recurring-regime stream: two regimes
    alternating every three chunks, so archived models come back."""
    site = make_history_site()
    for seed, center in enumerate([0.0, 40.0, 0.0, 40.0, 0.0, 40.0]):
        feed(site, center, site.chunk * 3, seed)
    return site


class TestSiteIntegration:
    def test_site_records_one_snapshot_per_chunk(self):
        # After every chunk the open reign carries the site's summary at
        # its position; the reign boundaries are the site's own table.
        site = make_history_site()
        assert site.history.scope == "site:0"
        for seed in range(3):
            feed(site, 0.0, site.chunk, seed)
            assert site.history.last_tick == site.position
            assert site.history.model_at(site.position)["summary"] == (
                site_history_payload(site)
            )
        assert len(site.history) == len(site.events) == 0
        assert site.history.model_at(0)["start"] == 0

    def test_model_at_agrees_with_the_event_table(self):
        site = recurring_site()
        assert len(site.events) >= 4
        assert site.stats.n_reactivations > 0
        # The site closes each reign where its own table does.
        assert list(site.history.events) == list(site.events)
        for reign in site.history.reigns()[:-1]:
            record = site.events.between(reign["start"], reign["start"] + 1)[0]
            assert (reign["start"], reign["end"], reign["model"]) == (
                record.start, record.end, record.model_id,
            )
            # The summary is the reign's own model, as it last stood.
            assert reign["summary"]["model"] == record.model_id

    def test_model_at_is_exact_at_every_chunk_midpoint(self):
        site = recurring_site()
        history = site.history
        for start in range(0, site.position, site.chunk):
            t = start + site.chunk // 2
            expected = (
                site.current_model.model_id
                if t >= site.events.horizon
                else site.events.model_at(t)
            )
            assert history.model_at(t)["model"] == expected

    def test_a_summary_leaves_with_its_evicted_reign(self):
        site = make_history_site(event_limit=2)
        for seed, center in enumerate([0.0, 40.0, 80.0, 120.0, 160.0]):
            feed(site, center, site.chunk * 2, seed)
        assert site.events.evictions > 0
        assert sorted(site.history._summaries) == [
            record.start for record in site.events
        ]
        assert site.history.model_at(0)["model"] is None


def model_update(site_id: int, model_id: int, time: int) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=site_id,
        model_id=model_id,
        time=time,
        mixture=make_mixture(10.0 * site_id),
        count=100,
        reference_likelihood=-2.0,
    )


class TestCoordinatorIntegration:
    def test_no_message_at_one_position_is_dropped(self):
        # Every site reports at the same stream position: the record at
        # that position counts all of them, not only the first.
        coordinator = Coordinator(CoordinatorConfig(max_components=4))
        coordinator.history = ModelHistory(scope="coordinator")
        for site_id in range(3):
            coordinator.handle_message(model_update(site_id, 0, 80))
        counters = coordinator.history.model_at(80)["summary"]["counters"]
        assert counters["model_updates"] == coordinator.stats.model_updates == 3
        assert counters["merges"] == coordinator.stats.merges
        # A later position closes that reign with all three counted.
        coordinator.handle_message(model_update(0, 1, 160))
        closed = coordinator.history.model_at(80)
        assert (closed["start"], closed["end"]) == (80, 160)
        assert closed["summary"]["counters"]["model_updates"] == 3
        assert coordinator.history.model_at(160)["summary"]["counters"][
            "model_updates"
        ] == coordinator.stats.model_updates == 4
