"""Adversarial fault injection over any datagram backend.

:class:`LossyTransport` wraps another :class:`DatagramTransport` and,
per datagram and per direction, independently drops, duplicates, delays
or reorders it -- plus whole-link partition windows during which nothing
gets through in either direction.  All randomness comes from one seeded
generator, so a fault pattern is exactly reproducible.

Reordering is implemented as an extra hold-back delay on the selected
datagram: later datagrams with smaller delays overtake it once the clock
advances, which is how reordering arises on real networks too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.observer import Observer, ensure_observer
from repro.transport.base import DatagramTransport
from repro.transport.clock import Clock

__all__ = ["FaultConfig", "FaultStats", "LossyTransport"]


@dataclass(frozen=True, kw_only=True)
class FaultConfig:
    """Per-datagram fault probabilities and delay model.

    Parameters
    ----------
    drop_rate / duplicate_rate / reorder_rate:
        Independent per-datagram probabilities.  A duplicated datagram
        is offered twice (each copy delayed independently); a reordered
        one is held back by ``reorder_delay`` on top of its base delay.
    delay:
        Base propagation delay, in clock seconds.  ``delay == 0``
        delivers synchronously (loopback semantics).
    reorder_delay:
        Hold-back applied to reordered datagrams.
    partitions:
        ``(start, end)`` clock windows during which *every* datagram is
        dropped -- the link is partitioned.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    delay: float = 0.0
    reorder_delay: float = 0.5
    partitions: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.delay < 0.0 or self.reorder_delay < 0.0:
            raise ValueError("delays must be non-negative")
        for start, end in self.partitions:
            if end <= start:
                raise ValueError("partition windows must have end > start")

    def partitioned_at(self, time: float) -> bool:
        """``True`` while ``time`` falls inside a partition window."""
        return any(start <= time < end for start, end in self.partitions)


@dataclass
class FaultStats:
    """What the adversary actually did."""

    offered: int = 0
    dropped: int = 0
    partition_drops: int = 0
    duplicated: int = 0
    reordered: int = 0
    delayed: int = 0


class LossyTransport(DatagramTransport):
    """Wrap ``inner`` with seeded fault injection on both directions.

    Parameters
    ----------
    inner:
        The backend actually carrying surviving datagrams.  Bindings
        registered on this wrapper are installed on ``inner``.
    clock:
        Timer service used for delayed deliveries.
    faults:
        Fault model of both directions (a symmetric bad link).
    seed:
        Seed of the generator every fault draw comes from.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; every injected
        fault emits a ``fault.drop`` / ``fault.partition`` /
        ``fault.duplicate`` / ``fault.reorder`` trace event labelled
        with the link direction.  Fault decisions never consult the
        observer, so the injected schedule for a given seed is identical
        with tracing on or off.
    """

    def __init__(
        self,
        inner: DatagramTransport,
        clock: Clock,
        faults: FaultConfig,
        seed: int = 0,
        observer: Observer | None = None,
    ) -> None:
        super().__init__()
        self._inner = inner
        self._clock = clock
        self._config = faults
        self._rng = np.random.default_rng(seed)
        self._obs = ensure_observer(observer)
        self.faults = FaultStats()

    # Bindings go straight to the inner backend, which performs the
    # actual deliveries.
    def bind_coordinator(self, callback) -> None:
        self._inner.bind_coordinator(callback)

    def bind_site(self, site_id: int, callback) -> None:
        self._inner.bind_site(site_id, callback)

    def _transmit_to_coordinator(self, site_id: int, data: bytes) -> None:
        self._inject(
            lambda: self._inner.send_to_coordinator(site_id, data),
            direction="uplink",
        )

    def _transmit_to_site(self, site_id: int, data: bytes) -> None:
        self._inject(
            lambda: self._inner.send_to_site(site_id, data),
            direction="downlink",
        )

    def _inject(self, forward, direction: str) -> None:
        faults = self._config
        obs = self._obs
        self.faults.offered += 1
        if faults.partitioned_at(self._clock.now):
            self.faults.partition_drops += 1
            if obs.enabled:
                obs.inc("fault.partition_drops", direction=direction)
                obs.event("fault.partition", direction=direction)
            return
        if faults.drop_rate > 0.0 and self._rng.random() < faults.drop_rate:
            self.faults.dropped += 1
            if obs.enabled:
                obs.inc("fault.drops", direction=direction)
                obs.event("fault.drop", direction=direction)
            return
        copies = 1
        if (
            faults.duplicate_rate > 0.0
            and self._rng.random() < faults.duplicate_rate
        ):
            copies = 2
            self.faults.duplicated += 1
            if obs.enabled:
                obs.inc("fault.duplicates", direction=direction)
                obs.event("fault.duplicate", direction=direction)
        for _ in range(copies):
            delay = faults.delay
            if (
                faults.reorder_rate > 0.0
                and self._rng.random() < faults.reorder_rate
            ):
                delay += faults.reorder_delay
                self.faults.reordered += 1
                if obs.enabled:
                    obs.inc("fault.reorders", direction=direction)
                    obs.event(
                        "fault.reorder", delay=delay, direction=direction
                    )
            if delay > 0.0:
                self.faults.delayed += 1
                self._clock.call_later(delay, forward)
            else:
                forward()

    def close(self) -> None:
        self._inner.close()
