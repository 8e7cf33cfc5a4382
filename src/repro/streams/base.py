"""Shared stream plumbing.

A *stream* in this library is simply an iterator of ``(d,)`` numpy
record vectors -- cheap to compose, trivially consumable by
:class:`~repro.core.remote.RemoteSite` and the baselines.  This module
adds the small vocabulary everything else shares: segment descriptors
(which ground-truth distribution generated which span), labelled
streams for quality evaluation, and gather/scatter helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.mixture import GaussianMixture

__all__ = [
    "LabeledStream",
    "StreamSegment",
    "interleave",
    "take",
]


@dataclass(frozen=True)
class StreamSegment:
    """Ground truth for one span of a generated stream.

    Attributes
    ----------
    start / end:
        Record indices (half-open) the segment covers.
    mixture:
        The generating mixture for the span.
    segment_id:
        Index of the *distinct* distribution (consecutive segments that
        re-used the previous distribution share an id).
    """

    start: int
    end: int
    mixture: GaussianMixture
    segment_id: int

    @property
    def length(self) -> int:
        return self.end - self.start


class LabeledStream:
    """A record iterator that remembers its ground-truth segments.

    Generators yield records through this wrapper so evaluation code can
    later ask "which distribution was active at record ``t``?" without
    the algorithms under test ever seeing the labels.
    """

    def __init__(self, records: Iterator[np.ndarray]) -> None:
        self._records = records
        self._segments: list[StreamSegment] = []

    def __iter__(self) -> Iterator[np.ndarray]:
        return self._records

    def __next__(self) -> np.ndarray:
        return next(self._records)

    def _note_segment(self, segment: StreamSegment) -> None:
        self._segments.append(segment)

    @property
    def segments(self) -> Sequence[StreamSegment]:
        """Segments generated *so far* (grows as the stream is consumed)."""
        return tuple(self._segments)

    def segment_at(self, index: int) -> StreamSegment | None:
        """Ground-truth segment covering record ``index``, if generated."""
        for segment in self._segments:
            if segment.start <= index < segment.end:
                return segment
        return None


def take(stream: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Materialise the next ``n`` records as an ``(n, d)`` array.

    Raises
    ------
    ValueError
        If the stream ends before ``n`` records are drawn.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rows = []
    iterator = iter(stream)
    for _ in range(n):
        record = next(iterator, None)
        if record is None:
            raise ValueError(
                f"stream exhausted after {len(rows)} of {n} records"
            )
        rows.append(np.asarray(record, dtype=float))
    return np.stack(rows)


def interleave(
    streams: Sequence[Iterable[np.ndarray]],
) -> Iterator[np.ndarray]:
    """Round-robin merge of several streams (stops at the shortest).

    Models a centralised observer seeing the union stream
    ``S = S_1 ∪ ... ∪ S_r`` in arrival order -- what the centralised SEM
    comparison of Figure 7 consumes.
    """
    iterators = [iter(stream) for stream in streams]
    if not iterators:
        raise ValueError("need at least one stream")
    while True:
        for iterator in iterators:
            record = next(iterator, None)
            if record is None:
                return
            yield record
