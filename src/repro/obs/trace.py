"""Structured tracing: typed event records and pluggable sinks.

A trace is an ordered sequence of :class:`TraceEvent` records, each a
``(seq, time, type, fields)`` tuple.  Event types are dotted names
(``site.chunk_test``, ``coord.merge``, ``transport.retransmit``; see
DESIGN.md for the full mapping to paper mechanisms); fields are
JSON-safe scalars/lists, so a trace serialises losslessly to JSONL and
can be replayed by :mod:`repro.obs.stats` long after the run.

Sinks:

* :class:`JsonlTraceSink` -- one JSON object per line, append-mode file;
* :class:`RingBufferSink` -- bounded in-memory buffer for tests;
* :class:`LoggingTraceSink` -- forwards events to :mod:`logging` at
  DEBUG (the ``--log-level debug`` CLI path);
* :class:`MultiSink` -- fan-out to several sinks;
* :class:`NullTraceSink` -- drops everything (the disabled default).
"""

from __future__ import annotations

import json
import logging
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

__all__ = [
    "JsonlTraceSink",
    "LoggingTraceSink",
    "MultiSink",
    "NullTraceSink",
    "RingBufferSink",
    "TraceEvent",
    "TraceSink",
    "TruncatedTraceWarning",
    "read_trace",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    seq:
        Monotone per-observer sequence number (1-based); gives a total
        order even when the time source is coarse or frozen.
    time:
        Timestamp from the observer's time source (wall clock, manual
        clock, or 0.0 for deterministic traces).
    type:
        Dotted event type, e.g. ``site.chunk_test``.
    fields:
        JSON-safe payload.
    """

    seq: int
    time: float
    type: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        record = {"seq": self.seq, "t": self.time, "type": self.type}
        record.update(self.fields)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        record = json.loads(line)
        seq = record.pop("seq")
        time = record.pop("t")
        type_ = record.pop("type")
        return TraceEvent(seq=seq, time=time, type=type_, fields=record)


class TraceSink:
    """Interface every sink implements; the base class drops events."""

    def write(self, event: TraceEvent) -> None:  # noqa: ARG002
        """Record one event."""

    def flush(self) -> None:
        """Push buffered events to durable storage (if any)."""

    def close(self) -> None:
        """Flush and release resources; the sink is unusable after."""


class NullTraceSink(TraceSink):
    """Shared do-nothing sink."""


#: Module-level singleton used by the null observer.
NULL_SINK = NullTraceSink()


class JsonlTraceSink(TraceSink):
    """Append events as JSON lines to a file (or an open text stream).

    Parameters
    ----------
    target:
        A path (opened in append mode, parent directories created) or
        an already-open text stream (not closed by :meth:`close`).
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: IO[str] = path.open("a", encoding="utf-8")
            self._owns_stream = True
            self.path: Path | None = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self.events_written = 0

    def write(self, event: TraceEvent) -> None:
        self._stream.write(event.to_json())
        self._stream.write("\n")
        self.events_written += 1

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_stream:
            self._stream.close()


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (tests, debugging)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def write(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()


class LoggingTraceSink(TraceSink):
    """Forward each event to a :mod:`logging` logger at DEBUG."""

    def __init__(self) -> None:
        self._logger = logging.getLogger("repro.obs")

    def write(self, event: TraceEvent) -> None:
        if self._logger.isEnabledFor(logging.DEBUG):
            self._logger.debug("%s %s", event.type, dict(event.fields))


class MultiSink(TraceSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, sinks: Iterable[TraceSink]) -> None:
        self.sinks = tuple(sinks)

    def write(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.write(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_trace(source: str | Path | IO[str]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` records.

    Blank lines are skipped.  A malformed *final* line -- the signature
    of a writer killed mid-record -- is skipped with a
    :class:`TruncatedTraceWarning` so a crashed run's trace stays
    readable; a malformed line followed by further records still raises
    ``ValueError`` (that is corruption, not truncation) with the
    offending line number.
    """
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8") as stream:
            yield from _read_stream(stream)
    else:
        yield from _read_stream(source)


class TruncatedTraceWarning(UserWarning):
    """A trace file ended with a torn (partially written) line."""


def _read_stream(stream: IO[str]) -> Iterator[TraceEvent]:
    pending_error: tuple[int, str, Exception] | None = None
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        if pending_error is not None:
            bad_number, _, error = pending_error
            raise ValueError(
                f"malformed trace line {bad_number}: {error}"
            ) from error
        try:
            yield TraceEvent.from_json(line)
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            # Hold the error: only fatal if more content follows.
            pending_error = (number, line, error)
    if pending_error is not None:
        bad_number, bad_line, _ = pending_error
        warnings.warn(
            f"skipping torn trailing trace line {bad_number} "
            f"({bad_line[:60]!r}...): writer likely crashed mid-record",
            TruncatedTraceWarning,
            stacklevel=3,
        )
