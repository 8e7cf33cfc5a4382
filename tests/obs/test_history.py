"""Tests for the pyramidal model-history store (repro.obs.history)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.obs.history import (
    SERIES_POINTS,
    ModelHistory,
    drift_report,
    weight_transport,
)
from repro.obs.health import HealthMonitor
from repro.obs.observer import Observer
from repro.obs.trace import RingBufferSink


def payload_at(tick: int) -> dict:
    """A deterministic JSON-safe snapshot payload for tick ``tick``."""
    components = 1 + tick // 10
    return {
        "model": tick // 10,
        "components": components,
        "weights": [1.0 / components] * components,
        "counters": {"merges": tick // 7, "splits": tick // 13},
        "gauges": {"components": components, "margin": 0.1 * (tick % 5)},
    }


def filled_history(n: int = 40, **kwargs) -> ModelHistory:
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
        assert history.observe(1, {"components": 1})
        assert history.observe(2, {"components": 1})
        assert len(history) == 2
        assert history.last_tick == 2

    def test_tick_zero_is_not_stored(self):
        history = ModelHistory()
        assert not history.observe(0, {})
        assert len(history) == 0

    def test_out_of_order_ticks_are_ignored(self):
        # Interleaved multi-site clocks at a coordinator are safe: a
        # stale tick neither stores nor rewinds the horizon.
        history = ModelHistory()
        history.observe(10, {"components": 1})
        assert not history.observe(10, {"components": 2})
        assert not history.observe(3, {"components": 2})
        assert len(history) == 1
        assert history.last_tick == 10

    def test_gauge_source_merged_dropping_none(self):
        history = ModelHistory(
            gauge_source=lambda: {"margin": 0.25, "pass_rate": None}
        )
        history.observe(1, {"gauges": {"components": 2}})
        (snapshot,) = history.snapshots()
        assert snapshot.payload["gauges"] == {"components": 2, "margin": 0.25}

    def test_max_bytes_validated_naming_value(self):
        with pytest.raises(ValueError, match="got 0"):
            ModelHistory(max_bytes=0)

    def test_byte_budget_evicts_oldest_and_counts_separately(self):
        unbounded = filled_history(64)
        budget = unbounded.bytes // 4
        history = filled_history(64, max_bytes=budget)
        assert history.bytes <= budget
        assert len(history) >= 1
        assert history.evicted_memory > 0
        summary = history.summary()
        assert summary["evictions"]["memory"] == history.evicted_memory
        assert summary["evictions"]["pyramid"] >= 0
        # The two streams partition the store's total eviction count.
        assert (
            summary["evictions"]["pyramid"] + summary["evictions"]["memory"]
            == history.evicted
        )
        # Memory eviction drops the globally oldest snapshots first.
        assert min(history.ticks()) > min(unbounded.ticks())

    def test_budget_never_empties_the_store(self):
        history = ModelHistory(max_bytes=1)
        history.observe(1, payload_at(1))
        history.observe(2, payload_at(2))
        assert len(history) == 1

    def test_bytes_tracks_compact_json_size(self):
        history = ModelHistory()
        history.observe(1, payload_at(1))
        expected = len(
            json.dumps(payload_at(1), separators=(",", ":"), default=float)
        )
        assert history.bytes == expected

    def test_snapshots_mirrored_as_trace_events(self):
        sink = RingBufferSink()
        history = ModelHistory(scope="site:3")
        history.observer = Observer(sink=sink)
        history.observe(5, payload_at(5))
        history.observe(5, payload_at(5))  # ignored: no event either
        events = [e for e in sink.events if e.type == "history.snapshot"]
        assert len(events) == 1
        fields = events[0].fields
        assert fields["scope"] == "site:3"
        assert fields["tick"] == 5
        assert fields["alpha"] == history.alpha
        assert fields["capacity"] == history.capacity
        assert fields["payload"]["components"] == payload_at(5)["components"]


class TestModelAt:
    def test_exact_tick_answers_itself(self):
        history = filled_history(40)
        answer = history.model_at(32)
        assert answer["t"] == 32
        assert answer["tick"] == 32
        assert answer["model"]["model"] == payload_at(32)["model"]

    def test_answers_newest_retained_at_or_before(self):
        history = ModelHistory()
        for tick in (10, 20, 30):
            history.observe(tick, payload_at(tick))
        assert history.model_at(25)["tick"] == 20
        assert history.model_at(1000)["tick"] == 30

    def test_degrades_to_oldest_landmark(self):
        # Everything retained is newer than t: answer with the oldest
        # snapshot rather than refusing (documented degradation).
        history = ModelHistory()
        history.observe(10, payload_at(10))
        history.observe(20, payload_at(20))
        assert history.model_at(5)["tick"] == 10

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
        assert report["tick0"] <= 5 and report["tick1"] <= 35
        assert report["components"]["from"] == payload_at(report["tick0"])[
            "components"
        ]
        assert (
            report["components"]["delta"]
            == report["components"]["to"] - report["components"]["from"]
        )
        assert report["weight_transport"] is not None
        assert report["churn_total"] == sum(report["churn"].values())

    def test_churn_clamps_negative_deltas(self):
        from repro.obs.history import Snapshot

        s0 = Snapshot(tick=1, order=0, payload={"counters": {"merges": 5}})
        s1 = Snapshot(tick=2, order=0, payload={"counters": {"merges": 2}})
        report = drift_report(1, 2, s0, s1)
        assert report["churn"]["merges"] == 0
        assert report["churn_total"] == 0

    def test_negative_start_raises_naming_value(self):
        with pytest.raises(ValueError, match="got -1"):
            filled_history(10).drift_between(-1, 5)

    def test_reversed_window_raises_naming_both_values(self):
        with pytest.raises(ValueError, match=r"\[30, 5\)"):
            filled_history(40).drift_between(30, 5)


class TestGaugeSeries:
    def test_series_is_tick_value_pairs_in_range(self):
        history = filled_history(40)
        points = history.gauge_series("components", 10, 20)
        assert points
        for tick, value in points:
            assert 10 <= tick <= 20
            assert value == payload_at(tick)["gauges"]["components"]

    def test_endpoints_default_to_full_range(self):
        history = filled_history(40)
        assert history.gauge_series("components") == history.gauge_series(
            "components", 0, 40
        )

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
        assert history.gauge_names() == ["a", "b"]


class TestRetentionBound:
    def test_fifty_thousand_ticks_stay_logarithmic(self):
        # The acceptance bound: a 50k-tick stream retains O(α·l·log t)
        # snapshots -- at most (α^l + 1) per order, one order per power
        # of α up to the horizon.
        alpha, capacity, n = 2, 2, 50_000
        history = ModelHistory(alpha=alpha, capacity=capacity)
        for tick in range(1, n + 1):
            history.observe(tick, {"components": 1})
        orders = math.floor(math.log(n, alpha)) + 1
        assert len(history) <= (alpha**capacity + 1) * orders
        # It still spans the stream: landmarks survive near the origin.
        ticks = history.ticks()
        assert ticks[-1] == n
        assert ticks[0] <= alpha**orders
        summary = history.summary()
        assert summary["offered"] == n
        assert summary["retained"] == len(history)
        assert (
            summary["stored_total"]
            == summary["retained"] + history.evicted
        )


class TestSummaries:
    def test_summary_shape(self):
        history = filled_history(40, scope="coordinator")
        summary = history.summary()
        assert set(summary) == {
            "retained", "offered", "stored_total", "evictions", "bytes",
            "max_bytes", "alpha", "capacity", "scope", "horizon", "ticks",
            "gauges",
        }
        assert summary["scope"] == "coordinator"
        assert summary["horizon"] == 40
        assert summary["ticks"] == history.ticks()
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
        history = filled_history(40, scope="site:1")
        registry = Observer().registry
        history.publish(registry)
        assert registry.gauge(
            "history.retained", scope="site:1"
        ).value == len(history)
        assert (
            registry.gauge("history.bytes", scope="site:1").value
            == history.bytes
        )
        pyramid = registry.gauge(
            "history.evictions", kind="pyramid", scope="site:1"
        ).value
        memory = registry.gauge(
            "history.evictions", kind="memory", scope="site:1"
        ).value
        assert pyramid + memory == history.evicted


class TestCheckpoint:
    def test_round_trip_preserves_answers(self):
        history = filled_history(64, scope="coordinator", max_bytes=4096)
        clone = ModelHistory.from_dict(history.to_dict())
        assert clone.summary() == history.summary()
        for t in (1, 17, 40, 64):
            assert clone.model_at(t) == history.model_at(t)
        assert clone.drift_between(4, 60) == history.drift_between(4, 60)
        assert clone.bytes == history.bytes

    def test_round_trip_survives_json(self):
        history = filled_history(32)
        wire = json.loads(json.dumps(history.to_dict()))
        clone = ModelHistory.from_dict(wire)
        assert clone.ticks() == history.ticks()

    def test_process_state_is_not_checkpointed(self):
        history = filled_history(8, gauge_source=lambda: {"margin": 1.0})
        history.observer = Observer()
        clone = ModelHistory.from_dict(history.to_dict())
        assert clone.observer is None
        assert clone.gauge_source is None

    def test_restored_store_continues_retention(self):
        history = filled_history(40)
        clone = ModelHistory.from_dict(history.to_dict())
        for tick in range(41, 201):
            clone.observe(tick, payload_at(tick))
        reference = filled_history(200)
        assert clone.ticks() == reference.ticks()


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
        assert offline.ticks() == live.ticks()
        assert offline.drift_between(10, 90) == live.drift_between(10, 90)
        assert offline.gauge_series("components") == live.gauge_series(
            "components"
        )

    def test_scope_selects_one_history_from_a_shared_trace(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        coord = ModelHistory(scope="coordinator")
        site = ModelHistory(scope="site:0")
        coord.observer = observer
        site.observer = observer
        for tick in range(1, 21):
            site.observe(tick, payload_at(tick))
            coord.observe(tick, payload_at(tick + 100))
        replayed = HealthMonitor.replay(sink.events).history("site:0")
        assert replayed.ticks() == site.ticks()
        (first,) = replayed.snapshots()[:1]
        assert first.payload["model"] == payload_at(first.tick)["model"]

    def test_unscoped_replay_locks_to_the_first_scope_seen(self):
        sink = RingBufferSink()
        observer = Observer(sink=sink)
        first = ModelHistory(scope="site:1")
        second = ModelHistory(scope="site:2")
        first.observer = observer
        second.observer = observer
        first.observe(1, payload_at(1))
        second.observe(1, payload_at(1))
        first.observe(2, payload_at(2))
        replayed = HealthMonitor.replay(sink.events).history()
        assert replayed.scope == "site:1"
        assert replayed.ticks() == [1, 2]

    def test_no_matching_events_answers_none(self):
        assert HealthMonitor.replay([]).history() is None
        sink = RingBufferSink()
        history = ModelHistory(scope="site:0")
        history.observer = Observer(sink=sink)
        history.observe(1, payload_at(1))
        assert HealthMonitor.replay(sink.events).history("site:9") is None


def make_mixture(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def make_history_site() -> RemoteSite:
    config = RemoteSiteConfig(
        dim=2,
        epsilon=0.3,
        delta=0.05,
        c_max=4,
        em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
        chunk_override=200,
    )
    return RemoteSite(
        0,
        config,
        rng=np.random.default_rng(5),
        history=ModelHistory(alpha=2, capacity=2),
    )


def feed(site: RemoteSite, center: float, n: int, seed: int) -> None:
    points, _ = make_mixture(center).sample(n, np.random.default_rng(seed))
    site.process_stream(points)


class TestSiteIntegration:
    def test_site_records_one_snapshot_per_chunk(self):
        site = make_history_site()
        feed(site, 0.0, site.chunk * 3, 1)
        assert site.history.scope == "site:0"
        assert site.history.last_tick == site.position
        assert site.history.offered == 3

    def test_model_at_agrees_with_the_event_table(self):
        # The acceptance contract: the recorded model id at each
        # retained snapshot matches the exact (eventually closed)
        # event-table entry covering that tick.
        site = make_history_site()
        for center, seed in [(0.0, 1), (40.0, 2), (0.0, 3), (80.0, 4)]:
            feed(site, center, site.chunk * 2, seed)
        assert len(site.events) >= 2
        checked = 0
        for snapshot in site.history.snapshots():
            exact = site.events.model_at(snapshot.tick - 1)
            if exact is None:
                continue  # the reigning model has no closed entry yet
            assert snapshot.payload["model"] == exact
            checked += 1
        assert checked > 0

    def test_answers_are_within_one_snapshot_granularity(self):
        site = make_history_site()
        feed(site, 0.0, site.chunk * 6, 1)
        history = site.history
        ticks = history.ticks()
        for t in range(site.chunk, site.position + 1, site.chunk):
            answer = history.model_at(t)
            gap = t - answer["tick"]
            assert 0 <= gap
            # The next retained snapshot after the answer is past t:
            # the answer is the tightest retained bound on t.
            later = [x for x in ticks if answer["tick"] < x <= t]
            assert later == []
