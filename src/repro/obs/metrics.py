"""A zero-dependency metrics registry: counters, gauges, histograms.

CluDistream's behaviour is event driven -- chunk tests pass or fail,
models get archived, synopses ship only on change, the coordinator
merges and splits -- and every performance claim of the paper is a
count of exactly these events.  The registry makes those counts first
class: any layer grabs a labelled :class:`Counter`, :class:`Gauge` or
streaming :class:`Histogram` by name and bumps it; exporters
(:mod:`repro.obs.export`) turn the whole registry into a
Prometheus-style text dump or a JSON snapshot.

Instruments never read clocks or randomness, so a run's registry
contents are a pure function of the run.  With observability off
nothing reaches a registry at all: the disabled observer
(:data:`~repro.obs.observer.NULL_OBSERVER`) answers every mutator
itself.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets: exponential coverage from microseconds to
#: tens of seconds, suiting both wall-clock timers and small counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, object]) -> LabelsKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, outbox sizes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """A streaming histogram: bucket counts plus sum/min/max.

    Observations are assigned to the first bucket whose upper bound is
    ``>= value``; values beyond the last bound land in the implicit
    ``+Inf`` overflow bucket.  Memory is ``O(len(buckets))`` regardless
    of how many values stream through.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ValueError("bucket bounds must be sorted ascending")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        # The first bound >= value; NaN compares false everywhere and
        # lands in the overflow bucket.
        index = bisect_left(self.buckets, value) if value == value else -1
        self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        The target rank ``q * count`` is located in the cumulative
        bucket counts and the value is interpolated linearly between
        the bucket's lower and upper edges (clamped to the tracked
        min/max, which also makes ``q=0``/``q=1`` exact).  The error is
        therefore bounded by the width of the bucket containing the
        true quantile -- the standard ``histogram_quantile`` estimate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        bounds = self.buckets
        for index, in_bucket in enumerate(self.bucket_counts):
            if not in_bucket:
                continue
            if cumulative + in_bucket >= target:
                upper = bounds[index] if index < len(bounds) else self.maximum
                lower = bounds[index - 1] if index else self.minimum
                lower = max(lower, self.minimum)
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return upper
                fraction = (target - cumulative) / in_bucket
                value = lower + fraction * (upper - lower)
                # Degenerate edges (an infinite bound or min/max from a
                # rebuilt scrape) can push the interpolation out of the
                # bucket or to NaN; clamp to the bucket bound so a tile
                # renders a number instead of silently going blank.
                if not math.isfinite(value):
                    return upper if math.isfinite(upper) else lower
                return min(max(value, lower), upper)
            cumulative += in_bucket
        return self.maximum


class MetricsRegistry:
    """Named, labelled instruments with lazy creation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(buckets)
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def collect(
        self,
    ) -> Iterator[tuple[str, str, LabelsKey, Counter | Gauge | Histogram]]:
        """Yield ``(kind, name, labels, instrument)`` in sorted order."""
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            for (name, labels), metric in sorted(table.items()):
                yield kind, name, labels, metric

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument's current state."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for kind, name, labels, metric in self.collect():
            entry: dict = {"name": name, "labels": dict(labels)}
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.count,
                    sum=metric.total,
                    min=metric.minimum if metric.count else None,
                    max=metric.maximum if metric.count else None,
                    buckets=[
                        {"le": bound, "count": count}
                        for bound, count in zip(
                            metric.buckets, metric.bucket_counts
                        )
                    ]
                    + [{"le": "+Inf", "count": metric.bucket_counts[-1]}],
                )
            else:
                entry["value"] = metric.value
            out[kind + "s"].append(entry)
        return out
