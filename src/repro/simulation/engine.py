"""The virtual clock of :class:`~repro.runtime.SimulatedChannel`.

Delivery is synchronous, so nothing is ever scheduled: the clock only
moves forward, to the time of the record a site is about to read
(record ``k`` of a site at ``k / rate`` virtual seconds).  A run is a
pure function of its inputs, and a million simulated seconds cost
nothing.
"""

from __future__ import annotations

from repro.obs.observer import Observer, ensure_observer

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """A monotone virtual clock.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> engine.advance(2.0)
    >>> engine.advance(1.0)  # the clock never rewinds
    >>> engine.now
    2.0
    >>> engine.run()
    0

    An optional :class:`~repro.obs.observer.Observer` records each
    :meth:`run` as a ``sim.run`` trace event (events fired, final
    virtual time) and times it into the ``profile.sim_run`` histogram.
    """

    def __init__(self, observer: Observer | None = None) -> None:
        self._now = 0.0
        self._obs = ensure_observer(observer)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, until: float) -> None:
        """Move the clock forward to ``until``; an earlier time is a
        no-op.  Called once per record, so it emits nothing."""
        if until > self._now:
            self._now = until

    def step(self) -> bool:
        """Fire the next event: there never is one, so ``False``.

        Kept by name for the end-to-end benchmark's ``simulation.step``
        span (ROADMAP item 13).
        """
        return False

    def run(self) -> int:
        """Settle the clock at a quiesce point; returns the events
        fired, always 0.  Emits the ``sim.run`` event and metrics."""
        with self._obs.timer("profile.sim_run"):
            pass
        if self._obs.enabled:
            self._obs.inc("sim.events_fired", 0)
            self._obs.gauge_set("sim.virtual_time", self._now)
            self._obs.event("sim.run", fired=0, now=self._now)
        return 0
