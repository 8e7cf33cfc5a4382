"""A minimal, deterministic discrete-event simulation engine.

The engine keeps a priority queue of ``(time, sequence, callback)``
events and a virtual clock.  Two properties matter for reproducing the
paper's experiments:

* **Determinism.**  Ties in event time break by insertion order (the
  monotone sequence number), so a run is a pure function of its inputs.
* **Virtual time.**  The clock only moves when events fire; a million
  simulated seconds cost whatever the callbacks cost, nothing more.

Processes are just callbacks that reschedule themselves.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.observer import Observer, ensure_observer

__all__ = ["ScheduledEvent", "SimulationEngine"]

Callback = Callable[[], None]


@dataclass(order=True, frozen=True)
class ScheduledEvent:
    """One queued event; ordering is ``(time, sequence)``."""

    time: float
    sequence: int
    callback: Callback = field(compare=False)


class SimulationEngine:
    """Virtual clock plus event queue.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(2.0, lambda: fired.append(engine.now))
    >>> _ = engine.schedule_at(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    2
    >>> fired
    [1.0, 2.0]

    An optional :class:`~repro.obs.observer.Observer` records each
    :meth:`run` as a ``sim.run`` trace event (events fired, final
    virtual time) and times it into the ``profile.sim_run`` histogram.
    """

    def __init__(self, observer: Observer | None = None) -> None:
        self._queue: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._obs = ensure_observer(observer)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callback) -> ScheduledEvent:
        """Queue ``callback`` to fire at absolute virtual ``time``.

        Raises
        ------
        ValueError
            If ``time`` lies in the past (virtual time never rewinds).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}; clock is already at {self._now}"
            )
        event = ScheduledEvent(
            time=float(time), sequence=next(self._sequence), callback=callback
        )
        heapq.heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def advance(self, until: float) -> int:
        """Fire all events due at or before ``until`` and move the clock
        there.

        The incremental sibling of :meth:`run`: it neither emits a
        ``sim.run`` trace event nor touches the profiling histogram, so
        a driver advancing the clock once per record (the
        :mod:`repro.runtime` simulated channel) does not flood the
        trace.  A target at or before the current clock is a no-op.

        Returns
        -------
        int
            Number of events fired.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant advance)")
        if until <= self._now:
            return 0
        self._running = True
        fired = 0
        try:
            while self._queue and self._queue[0].time <= until:
                self.step()
                fired += 1
            if self._now < until:
                self._now = until
        finally:
            self._running = False
        return fired

    def step(self) -> bool:
        """Fire the next event; returns ``False`` when the queue is empty."""
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self._now = event.time
        event.callback()
        return True

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> int:
        """Drain the queue (optionally only up to virtual time ``until``).

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time; the
            clock is advanced to ``until`` on a timed stop.
        max_events:
            Safety valve against runaway self-rescheduling processes.

        Returns
        -------
        int
            Number of events fired.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run call)")
        self._running = True
        fired = 0
        try:
            with self._obs.timer("profile.sim_run"):
                while self._queue and fired < max_events:
                    if until is not None and self._queue[0].time > until:
                        break
                    self.step()
                    fired += 1
                if fired >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}"
                    )
                if until is not None and self._now < until:
                    self._now = until
        finally:
            self._running = False
        if self._obs.enabled:
            self._obs.inc("sim.events_fired", fired)
            self._obs.gauge_set("sim.virtual_time", self._now)
            self._obs.event("sim.run", fired=fired, now=self._now)
        return fired
