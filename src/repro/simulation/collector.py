"""Time-series collectors for simulation metrics.

Section 6 of the paper states "the total communication cost is collected
every second"; :class:`TimeSeriesCollector` implements exactly that: a
monotone counter sampled on a fixed virtual-time grid, yielding the
cumulative-cost curves of Figure 2 (and reusable for memory and
throughput series).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Sample", "TimeSeriesCollector"]


@dataclass(frozen=True)
class Sample:
    """One ``(time, value)`` observation."""

    time: float
    value: float


class TimeSeriesCollector:
    """Accumulate a counter and sample it on a regular virtual-time grid.

    Parameters
    ----------
    interval:
        Sampling period in virtual seconds (the paper samples at 1 s).

    Notes
    -----
    The collector is *event driven*: :meth:`add` both bumps the counter
    and back-fills any grid points that elapsed since the previous
    event, so the sampled series is exactly what a per-second poller
    would have seen without the engine having to schedule a polling
    process.  Call :meth:`finalize` at the end of a run to flush grid
    points up to the final clock value.
    """

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self._total = 0.0
        self._samples: list[Sample] = []
        self._next_tick = interval

    @property
    def total(self) -> float:
        """Current cumulative value."""
        return self._total

    @property
    def samples(self) -> tuple[Sample, ...]:
        """Grid samples emitted so far."""
        return tuple(self._samples)

    def add(self, time: float, amount: float) -> None:
        """Register ``amount`` at virtual ``time`` (monotone in time)."""
        if self._samples and time < self._samples[-1].time:
            raise ValueError("collector observations must be time-ordered")
        self._flush(time)
        self._total += amount

    def finalize(self, time: float) -> None:
        """Emit all remaining grid samples up to ``time``."""
        self._flush(time)

    def series(self) -> tuple[list[float], list[float]]:
        """The sampled series as parallel ``(times, values)`` lists."""
        return (
            [sample.time for sample in self._samples],
            [sample.value for sample in self._samples],
        )

    def _flush(self, time: float) -> None:
        while self._next_tick <= time:
            self._samples.append(Sample(time=self._next_tick, value=self._total))
            self._next_tick += self.interval
