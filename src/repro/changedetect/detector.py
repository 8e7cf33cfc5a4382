"""Model-fit change detection (paper section 7).

The test-and-cluster machinery doubles as a change detector: a chunk
that fails the ``J_fit`` test against every known model *is* a
distribution change.  :class:`ChangeDetector` wraps a
:class:`~repro.core.remote.RemoteSite` and converts its model
transitions into timestamped :class:`ChangeEvent` records, suitable for
alerting and for the change-detection accuracy benchmarks.

Detection latency is bounded by the chunk size: a change happening
mid-chunk is noticed at the chunk boundary, so the detection position is
within ``M`` records of the true change point (and the reported
position within ``M/2`` on average, matching the event-table error the
paper quotes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.protocol import Message, ModelUpdateMessage, WeightUpdateMessage
from repro.core.remote import RemoteSite

__all__ = ["ChangeDetector", "ChangeEvent"]


@dataclass(frozen=True)
class ChangeEvent:
    """One detected distribution change.

    Attributes
    ----------
    position:
        Stream index (records) at which the change was detected (the
        boundary of the chunk that failed its fit tests).
    old_model_id / new_model_id:
        The superseded and the newly active model.
    reactivation:
        ``True`` when the "new" model is an archived one matched by the
        multi-test strategy (the stream returned to a distribution it
        had visited before) rather than a freshly clustered model.
    """

    position: int
    old_model_id: int | None
    new_model_id: int
    reactivation: bool


class ChangeDetector:
    """Detect distribution changes in a stream via model transitions.

    Parameters
    ----------
    site:
        The remote site doing the actual test-and-cluster work.  The
        detector observes its messages; feed records through
        :meth:`process_record`.
    """

    def __init__(self, site: RemoteSite) -> None:
        self.site = site
        self.changes: list[ChangeEvent] = []
        self._last_model_id: int | None = None

    def process_record(self, record: np.ndarray) -> list[ChangeEvent]:
        """Feed one record; returns changes detected at this record."""
        messages = self.site.process_record(record)
        return self._observe(messages)

    def _observe(self, messages: list[Message]) -> list[ChangeEvent]:
        detected: list[ChangeEvent] = []
        for message in messages:
            if isinstance(message, ModelUpdateMessage):
                if self._last_model_id is not None:
                    detected.append(
                        ChangeEvent(
                            position=self.site.position - self.site.chunk,
                            old_model_id=self._last_model_id,
                            new_model_id=message.model_id,
                            reactivation=False,
                        )
                    )
                self._last_model_id = message.model_id
            elif isinstance(message, WeightUpdateMessage):
                detected.append(
                    ChangeEvent(
                        position=self.site.position - self.site.chunk,
                        old_model_id=self._last_model_id,
                        new_model_id=message.model_id,
                        reactivation=True,
                    )
                )
                self._last_model_id = message.model_id
        self.changes.extend(detected)
        return detected

    def detected_positions(self) -> list[int]:
        """Stream indices of all detected changes, in order."""
        return [event.position for event in self.changes]

    def matches(self, true_positions: list[int]) -> tuple[int, int, int]:
        """Score detections against ground truth change points.

        Parameters
        ----------
        true_positions:
            Record indices where the generating distribution actually
            changed.  A detection within one chunk (the detector's
            resolution) of a true position is a hit.

        Returns
        -------
        tuple[int, int, int]
            ``(hits, misses, false_alarms)`` -- each true change point
            matches at most one detection and vice versa.
        """
        tolerance = self.site.chunk
        detections = self.detected_positions()
        unmatched = set(range(len(detections)))
        hits = 0
        for true_pos in true_positions:
            best = None
            best_gap = tolerance + 1
            for index in unmatched:
                gap = abs(detections[index] - true_pos)
                if gap <= tolerance and gap < best_gap:
                    best, best_gap = index, gap
            if best is not None:
                unmatched.discard(best)
                hits += 1
        misses = len(true_positions) - hits
        false_alarms = len(unmatched)
        return hits, misses, false_alarms
