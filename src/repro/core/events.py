"""The event table recording the evolving behaviour of a stream.

Each remote site keeps a table of ``<start time, end time, model ID>``
triplets (section 5.1): whenever the test-and-cluster strategy decides a
new distribution has emerged, the span of chunks the outgoing model
covered is closed off as one event entry.

Section 7 builds *evolving analysis* on top of this table: a user asks
for a start time and a window, and the table answers with the sequence
of models active inside it.  Because entries are chunk-aligned, answers
carry an absolute error of half a chunk
(:func:`repro.core.chunking.window_error_bound`).

Times here are measured in *records* (update counts), matching the
paper's x-axes; the simulation layer maps record counts to virtual
seconds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["EventRecord", "EventTable"]


@dataclass(frozen=True)
class EventRecord:
    """One event-table entry: a model's reign over part of the stream.

    Attributes
    ----------
    start:
        Index (in records) of the first record the model covered,
        inclusive.
    end:
        Index one past the last covered record (exclusive), so
        ``end - start`` is the number of records explained.
    model_id:
        Identifier of the archived model in the site's model list.
    """

    start: int
    end: int
    model_id: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("event start must be non-negative")
        if self.end <= self.start:
            raise ValueError("event end must exceed its start")

    @property
    def length(self) -> int:
        """Number of records covered by this event."""
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        """Whether this event intersects the half-open window ``[start, end)``."""
        return self.start < end and start < self.end


class EventTable:
    """Append-only, time-ordered list of :class:`EventRecord` entries.

    The table enforces the invariant that events are contiguous and
    non-overlapping: each appended event must start exactly where the
    previous one ended.  That property is what makes window queries
    exact up to chunk granularity.

    Parameters
    ----------
    max_events:
        Optional retention bound: beyond it the *oldest* entries are
        discarded (``evictions`` counts them).  The surviving records
        still tile ``[retained_start, horizon)``; queries before
        ``retained_start`` answer ``None`` / empty, exactly as they do
        past the horizon.  ``None`` (the default) keeps every entry --
        the pre-retention behaviour.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(
                f"max_events must be at least 1, got {max_events}"
            )
        self._records: list[EventRecord] = []
        self.max_events = max_events
        #: Entries discarded by the retention bound.
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> EventRecord:
        return self._records[index]

    @property
    def records(self) -> Sequence[EventRecord]:
        """Immutable view of the stored events."""
        return tuple(self._records)

    @property
    def horizon(self) -> int:
        """Index one past the last recorded record (0 when empty)."""
        return self._records[-1].end if self._records else 0

    @property
    def retained_start(self) -> int:
        """First record index still covered (> 0 after evictions)."""
        return self._records[0].start if self._records else 0

    def append(self, start: int, end: int, model_id: int) -> EventRecord:
        """Close off a model's span and store it.

        An empty table accepts any valid starting index (a site resumed
        from a retention-trimmed checkpoint starts mid-stream); once
        non-empty, events must tile the stream.

        Raises
        ------
        ValueError
            If the new event does not start exactly at the current
            horizon (events must tile the stream).
        """
        record = EventRecord(start=start, end=end, model_id=model_id)
        if self._records and record.start != self.horizon:
            raise ValueError(
                f"event must start at horizon {self.horizon}, got {record.start}"
            )
        self._records.append(record)
        if self.max_events is not None and len(self._records) > self.max_events:
            excess = len(self._records) - self.max_events
            del self._records[:excess]
            self.evictions += excess
        return record

    def model_at(self, time: int) -> int | None:
        """Model ID active at record index ``time`` (``None`` if unknown).

        Only *closed* events are visible; the model currently in force
        has no entry yet, mirroring Algorithm 1 where an entry is
        appended only when the model is superseded.
        """
        if time < 0 or time >= self.horizon:
            return None
        starts = [record.start for record in self._records]
        index = bisect_right(starts, time) - 1
        if index < 0:
            # Before the retained range (older entries were evicted).
            return None
        record = self._records[index]
        return record.model_id if record.start <= time < record.end else None

    def window(self, start: int, length: int) -> list[EventRecord]:
        """Evolving-analysis query (section 7).

        Parameters
        ----------
        start:
            Window start, in records.
        length:
            Window size, in records.

        Returns
        -------
        list[EventRecord]
            The events intersecting ``[start, start + length)``, in
            time order -- the "series of Gaussian mixture models" the
            paper returns to reflect the evolution inside the window.
        """
        if length <= 0:
            raise ValueError(
                f"window length must be positive, got {length}"
            )
        return self.between(start, start + length)

    def between(self, t0: int, t1: int) -> list[EventRecord]:
        """The events intersecting the half-open range ``[t0, t1)``.

        The range form of :meth:`window`; the endpoints are validated
        the same way -- a reversed or negative range raises instead of
        silently answering with an empty view.

        Raises
        ------
        ValueError
            If ``t0`` is negative or the range is reversed
            (``t1 < t0``); the message names the offending values.
        """
        if t0 < 0:
            raise ValueError(
                f"window start must be non-negative, got {t0}"
            )
        if t1 < t0:
            raise ValueError(
                f"reversed window [{t0}, {t1}): end precedes start"
            )
        return [record for record in self._records if record.overlaps(t0, t1)]

    def change_points(self) -> list[int]:
        """Record indices at which the underlying distribution changed.

        An entry closes exactly where the test-and-cluster strategy
        declared a new distribution (the first record of the chunk that
        failed its fit tests), so every entry's ``end`` is a change
        point -- the change-detection signal of section 7.  The next
        entry's model (the current one after the last entry) took over.
        """
        return [record.end for record in self._records]

    def __repr__(self) -> str:
        return f"EventTable(n_events={len(self._records)}, horizon={self.horizon})"
