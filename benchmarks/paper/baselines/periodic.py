"""Periodic model reporting -- the Figure 2 communication baseline.

"We compare the CluDistream with a simple strategy of periodically
reporting current models generated by SEM on each remote site.  This
strategy is adopted by many distributed clustering methods, such as
DBDC."

A :class:`PeriodicReporter` wraps one remote site's
:class:`~.sem.ScalableEM` instance and ships its current
model synopsis to the coordinator every ``period`` records, *whether or
not anything changed* -- the contrast to CluDistream's event-driven
stability property.  Messages reuse the
:class:`~repro.core.protocol.ModelUpdateMessage` format so byte
accounting is identical on both sides of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from repro.core.protocol import Message, ModelUpdateMessage

__all__ = ["PeriodicReporter", "PeriodicReporterConfig"]


@dataclass(frozen=True, kw_only=True)
class PeriodicReporterConfig:
    """Periodic-reporting parameters.

    Parameters
    ----------
    period:
        Records between reports.  The paper's plots report per model
        refresh; we default to the SEM buffer size so each refit is
        shipped once.
    sem:
        Local SEM clusterer settings.
    """

    period: int = 2000
    sem: SEMConfig = field(default_factory=SEMConfig)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be at least 1")


class PeriodicReporter:
    """One remote site of the periodic-reporting strategy.

    Parameters
    ----------
    site_id:
        Identifier used in outgoing messages.
    dim:
        Record dimensionality.
    config:
        Reporter parameters.
    rng:
        Randomness for the local SEM.
    emit:
        Optional message sink (a channel's emit hook).
    """

    def __init__(
        self,
        site_id: int,
        dim: int,
        config: PeriodicReporterConfig | None = None,
        rng: np.random.Generator | None = None,
        emit: Callable[[Message], None] | None = None,
    ) -> None:
        self.site_id = site_id
        self.config = config or PeriodicReporterConfig()
        self.sem = ScalableEM(dim, self.config.sem, rng=rng)
        self._emit = emit
        self._since_report = 0
        self._next_model_id = 0
        self.messages_sent = 0
        self.bytes_sent = 0

    @property
    def records_seen(self) -> int:
        return self.sem.records_seen

    def process_record(self, record: np.ndarray) -> list[Message]:
        """Feed the local SEM; report on the fixed period."""
        self.sem.process_record(record)
        self._since_report += 1
        if self._since_report < self.config.period:
            return []
        self._since_report = 0
        return [self._report()]

    def process_stream(self, records: Iterable[np.ndarray]) -> list[Message]:
        """Ingest many records; returns all messages emitted."""
        messages: list[Message] = []
        for record in records:
            messages.extend(self.process_record(record))
        return messages

    def _report(self) -> Message:
        """Ship the current local model, refitting if needed."""
        mixture = self.sem.current_model()
        message = ModelUpdateMessage(
            site_id=self.site_id,
            model_id=self._allocate_model_id(),
            time=self.sem.records_seen,
            mixture=mixture,
            count=self.sem.records_seen,
            reference_likelihood=0.0,
        )
        self.messages_sent += 1
        self.bytes_sent += message.payload_bytes()
        if self._emit is not None:
            self._emit(message)
        return message

    def _allocate_model_id(self) -> int:
        model_id = self._next_model_id
        self._next_model_id += 1
        return model_id
