"""Unit tests for the metrics registry and its instruments."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.inc(-3.0)
        assert gauge.value == 4.0

    def test_max_keeps_high_water_mark(self):
        gauge = Gauge()
        gauge.max(3.0)
        gauge.max(1.0)
        assert gauge.value == 3.0
        gauge.max(7.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_bucket_assignment(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # <=1, <=10 and the +Inf overflow bucket.
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(106.5)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 100.0

    def test_mean_and_quantile(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(6.6 / 4)
        # Interpolated within buckets, clamped to the observed range:
        # the (<=1] bucket spans [min=0.5, 1.0] and holds 1/4 of the
        # mass, so q=0.25 lands exactly on its upper edge.
        assert histogram.quantile(0.25) == pytest.approx(1.0)
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(0.75) == pytest.approx(2.0)
        assert histogram.quantile(0.0) == 0.5
        assert histogram.quantile(1.0) == 3.0

    def test_empty_histogram_is_safe(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        assert math.isinf(histogram.minimum)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestRegistry:
    def test_same_name_and_labels_share_an_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("site.chunks", site=0)
        b = registry.counter("site.chunks", site=0)
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_distinct_labels_get_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("site.chunks", site=0).inc()
        registry.counter("site.chunks", site=1).inc(2)
        values = {
            labels: metric.value
            for _, _, labels, metric in registry.collect()
        }
        assert values[(("site", "0"),)] == 1.0
        assert values[(("site", "1"),)] == 2.0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x=1, y=2)
        b = registry.counter("m", y=2, x=1)
        assert a is b

    def test_collect_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.histogram("z")
        registry.gauge("a")
        registry.counter("b")
        kinds = [kind for kind, *_ in registry.collect()]
        assert kinds == ["counter", "gauge", "histogram"]
        assert len(registry) == 3

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", site=3).inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"][0]["value"] == 4.0
        assert snapshot["histograms"][0]["count"] == 1
        assert snapshot["histograms"][0]["buckets"][-1]["le"] == "+Inf"

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestDisabledRegistry:
    def test_hands_out_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("anything", label="x")
        counter.inc(100)
        assert counter.value == 0.0
        assert registry.counter("other") is counter
        registry.gauge("g").set(9)
        registry.histogram("h").observe(1.0)
        assert len(registry) == 0
        assert list(registry.collect()) == []

    def test_null_registry_singleton_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("x").inc()
        assert len(NULL_REGISTRY) == 0
