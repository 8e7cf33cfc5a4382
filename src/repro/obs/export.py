"""Registry exporter: the Prometheus text exposition format.

No third-party client library is needed -- the text dump follows the
exposition format closely enough for a scrape endpoint or a
``textfile`` collector.  The JSON twin is
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["parse_prometheus", "to_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitise a dotted metric name for the exposition format."""
    sanitised = _NAME_RE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format.

    Backslash must go first (it is the escape character itself), then
    the quote delimiter, then newlines -- a raw newline inside a label
    value would otherwise tear the sample across two lines.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str] | tuple) -> str:
    pairs = dict(labels)
    if not pairs:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters get a ``_total`` suffix; histograms expand into
    ``_bucket{le=...}``, ``_sum`` and ``_count`` series.
    """
    lines: list[str] = []
    for kind, name, labels, metric in registry.collect():
        prom = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(
                f"{prom}_total{_prom_labels(labels)} {_prom_value(metric.value)}"
            )
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{_prom_labels(labels)} {_prom_value(metric.value)}")
        else:
            assert isinstance(metric, Histogram)
            lines.append(f"# TYPE {prom} histogram")
            base_labels = dict(labels)
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.bucket_counts):
                cumulative += count
                bucket_labels = dict(base_labels)
                bucket_labels["le"] = _prom_value(bound)
                lines.append(
                    f"{prom}_bucket{_prom_labels(bucket_labels)} {cumulative}"
                )
            bucket_labels = dict(base_labels)
            bucket_labels["le"] = "+Inf"
            lines.append(
                f"{prom}_bucket{_prom_labels(bucket_labels)} {metric.count}"
            )
            lines.append(
                f"{prom}_sum{_prom_labels(labels)} {_prom_value(metric.total)}"
            )
            lines.append(f"{prom}_count{_prom_labels(labels)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"'
)
_UNESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label_value(value: str) -> str:
    """Single-pass inverse of :func:`_escape_label_value`."""
    return _UNESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # "NaN" parses natively


def parse_prometheus(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Parse exposition text back into ``(name, labels, value)`` samples.

    A strict-enough validator for round-trip tests and CI smoke checks:
    unparsable sample lines, malformed label sets and non-numeric
    values raise ``ValueError`` with the offending line number.  Not a
    full scraper -- exactly the subset :func:`to_prometheus` emits.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample on line {number}: {line!r}")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for label in _LABEL_RE.finditer(raw_labels):
                labels[label.group("key")] = _unescape_label_value(
                    label.group("value")
                )
                consumed = label.end()
            leftover = raw_labels[consumed:].strip(", ")
            if leftover:
                raise ValueError(
                    f"malformed labels on line {number}: {leftover!r}"
                )
        try:
            value = _parse_value(match.group("value"))
        except ValueError as error:
            raise ValueError(
                f"non-numeric value on line {number}: {line!r}"
            ) from error
        samples.append((match.group("name"), labels, value))
    return samples
