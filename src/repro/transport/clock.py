"""Clock abstraction for the transport stack.

Retransmission, heartbeats and fault-injected delays all need timers,
but the transport must run in two very different environments: in one
process on a virtual clock the driver advances (deterministic; every
test, the runtime channel and the in-process tree) and on an asyncio
event loop.  :class:`Clock` is the small protocol both satisfy; the
reliability layer only ever calls ``now`` and ``call_later``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Protocol, runtime_checkable

__all__ = ["AsyncioClock", "Clock", "ManualClock", "TimerHandle"]


@runtime_checkable
class TimerHandle(Protocol):
    """Cancellation handle returned by :meth:`Clock.call_later`."""

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Minimal timer service: a monotone clock plus one-shot timers."""

    @property
    def now(self) -> float: ...

    def call_later(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle: ...


class _ManualTimer:
    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ManualClock:
    """A virtual clock advanced explicitly by the caller.

    Timers fire during :meth:`advance` / :meth:`advance_to`, in
    ``(time, insertion order)`` order, with ``now`` set to each timer's
    due time while its callback runs -- so a callback rescheduling
    itself behaves exactly like a discrete-event process.  This is the
    deterministic clock used by the loopback/lossy transports and all
    transport tests.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = itertools.count()
        self._heap: list[tuple[float, int, _ManualTimer]] = []

    @property
    def now(self) -> float:
        return self._now

    def call_later(
        self, delay: float, callback: Callable[[], None]
    ) -> _ManualTimer:
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        timer = _ManualTimer(self._now + delay, callback)
        heapq.heappush(self._heap, (timer.time, next(self._sequence), timer))
        return timer

    def advance(self, dt: float) -> int:
        """Move the clock forward by ``dt``; returns timers fired."""
        if dt < 0.0:
            raise ValueError("cannot advance a clock backwards")
        return self.advance_to(self._now + dt)

    def advance_to(self, time: float) -> int:
        """Move the clock to absolute ``time``, firing due timers."""
        if time < self._now:
            raise ValueError("cannot advance a clock backwards")
        fired = 0
        while self._heap and self._heap[0][0] <= time:
            _, _, timer = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._now = timer.time
            timer.callback()
            fired += 1
        self._now = time
        return fired


class AsyncioClock:
    """Adapter over a running asyncio event loop (real wall-clock time)."""

    def __init__(self, loop) -> None:
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[[], None]):
        return self._loop.call_later(delay, callback)
