"""Unit tests for the Prometheus and JSON exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("site.chunk_tests", site=0, result="pass").inc(3)
    registry.gauge("transport.outbox_depth", site=1).set(4)
    histogram = registry.histogram("profile.em_fit", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    return registry


class TestPrometheus:
    def test_counter_rendering(self):
        text = to_prometheus(populated_registry())
        assert "# TYPE site_chunk_tests_total counter" in text
        assert 'site_chunk_tests_total{result="pass",site="0"} 3.0' in text

    def test_gauge_rendering(self):
        text = to_prometheus(populated_registry())
        assert "# TYPE transport_outbox_depth gauge" in text
        assert 'transport_outbox_depth{site="1"} 4.0' in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus(populated_registry())
        assert 'profile_em_fit_bucket{le="0.1"} 1' in text
        assert 'profile_em_fit_bucket{le="1.0"} 2' in text
        assert 'profile_em_fit_bucket{le="+Inf"} 3' in text
        assert "profile_em_fit_count 3" in text
        assert "profile_em_fit_sum 5.55" in text

    def test_dotted_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c/d").inc()
        text = to_prometheus(registry)
        assert "a_b_c_d_total 1.0" in text

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestJson:
    def test_round_trips_through_json(self):
        text = json.dumps(populated_registry().snapshot())
        snapshot = json.loads(text)
        assert snapshot["counters"][0]["name"] == "site.chunk_tests"
        assert snapshot["counters"][0]["labels"] == {
            "result": "pass",
            "site": "0",
        }
        assert snapshot["histograms"][0]["count"] == 3


class TestLabelEscaping:
    def test_backslash_quote_and_newline(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird", path='C:\\tmp\\"x"\nnext'
        ).inc()
        text = to_prometheus(registry)
        assert (
            'weird_total{path="C:\\\\tmp\\\\\\"x\\"\\nnext"} 1.0' in text
        )
        # The rendered sample must stay on one physical line.
        [sample_line] = [
            line for line in text.splitlines() if line.startswith("weird")
        ]
        assert sample_line.endswith("1.0")

    def test_escaped_values_round_trip_through_parser(self):
        registry = MetricsRegistry()
        nasty = 'back\\slash "quote"\nnewline'
        registry.counter("nasty", label=nasty).inc(2)
        samples = parse_prometheus(to_prometheus(registry))
        assert samples == [("nasty_total", {"label": nasty}, 2.0)]

    def test_escaped_backslash_before_n_is_not_a_newline(self):
        # The literal two characters backslash-n must survive; sequential
        # naive unescaping would corrupt them into a newline.
        registry = MetricsRegistry()
        registry.gauge("g", label="a\\nb").set(1)
        samples = parse_prometheus(to_prometheus(registry))
        assert samples == [("g", {"label": "a\\nb"}, 1.0)]


class TestParsePrometheus:
    def test_parses_counters_gauges_and_histograms(self):
        samples = parse_prometheus(to_prometheus(populated_registry()))
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["site_chunk_tests_total"] == [
            ({"result": "pass", "site": "0"}, 3.0)
        ]
        assert ({"le": "+Inf"}, 3.0) in by_name["profile_em_fit_bucket"]
        assert by_name["profile_em_fit_count"] == [({}, 3.0)]

    def test_special_values(self):
        samples = parse_prometheus("a +Inf\nb -Inf\nc NaN\n")
        assert samples[0][2] == float("inf")
        assert samples[1][2] == float("-inf")
        assert samples[2][2] != samples[2][2]  # NaN

    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("ok 1.0\n???\n")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus('bad{key=unquoted} 1.0\n')

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("bad notanumber\n")

    def test_skips_comments_and_blanks(self):
        assert parse_prometheus("# HELP x\n\n# TYPE x counter\nx 1\n") == [
            ("x", {}, 1.0)
        ]
