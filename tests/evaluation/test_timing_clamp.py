"""Finite throughput figures.

``records_per_second`` used to divide by a raw ``time.time`` delta,
which collapses to zero on fast machines and poisons benchmark JSON
with ``inf``.  The result now clamps to ``MIN_MEASURABLE_SECONDS`` and
flags the clamp.
"""

from __future__ import annotations

import json
import math

from repro.evaluation.timing import (
    MIN_MEASURABLE_SECONDS,
    ThroughputResult,
    measure_throughput,
)
from repro.obs import Observer


class TestThroughputClamp:
    def test_zero_elapsed_stays_finite(self):
        result = ThroughputResult(records=1000, seconds=0.0)
        assert math.isfinite(result.records_per_second)
        assert result.records_per_second == 1000 / MIN_MEASURABLE_SECONDS

    def test_sub_resolution_timing_is_flagged(self, monkeypatch):
        monkeypatch.setattr(
            "repro.evaluation.timing.time.perf_counter", lambda: 5.0
        )
        result = measure_throughput(
            lambda r: None, iter(range(50)), max_records=50
        )
        assert result.clamped
        assert result.seconds == MIN_MEASURABLE_SECONDS
        assert math.isfinite(result.records_per_second)

    def test_normal_timing_is_not_flagged(self):
        result = measure_throughput(
            lambda r: sum(range(200)), iter(range(100)), max_records=100
        )
        assert not result.clamped
        assert result.seconds >= MIN_MEASURABLE_SECONDS

    def test_benchmark_json_never_non_finite(self, monkeypatch):
        monkeypatch.setattr(
            "repro.evaluation.timing.time.perf_counter", lambda: 5.0
        )
        observer = Observer(time_source=lambda: 0.0)
        result = measure_throughput(
            lambda r: None,
            iter(range(20)),
            max_records=20,
            observer=observer,
        )
        (event,) = [
            e for e in observer.sink.events if e.type == "bench.throughput"
        ]
        # allow_nan=False raises on inf/nan: the payload must be finite.
        encoded = json.dumps(event.fields, allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["clamped"] is True
        assert decoded["records_per_second"] == result.records_per_second

