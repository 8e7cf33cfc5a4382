"""Star-topology network between remote sites and the coordinator.

The distributed architecture of the paper (after [5, 7, 10, 21]) has no
site-to-site links: every remote site talks to the coordinator only.
:class:`StarNetwork` models exactly that -- one :class:`NetworkChannel`
per site, each with configurable propagation latency and bandwidth, all
metering their traffic into a shared
:class:`~repro.simulation.collector.TimeSeriesCollector` so the Figure 2
communication-cost curves fall straight out of a run.
"""

from __future__ import annotations

from typing import Callable

from repro.core.protocol import Message
from repro.obs.observer import Observer, ensure_observer
from repro.runtime.accounting import DeliveryAccounting
from repro.simulation.collector import TimeSeriesCollector
from repro.simulation.engine import SimulationEngine

__all__ = ["NetworkChannel", "StarNetwork"]


class NetworkChannel:
    """A one-way site-to-coordinator link.

    The link is reliable; an adversary, where one is wanted, is the
    :class:`~repro.runtime.faults.MessageFaultInjector` the caller puts
    behind ``deliver``.  ``stats`` counts *attempted* sends in the
    unified :class:`~repro.runtime.accounting.DeliveryAccounting` model;
    messages travel unframed, so ``wire_bytes`` equals ``payload_bytes``.

    Parameters
    ----------
    engine:
        The simulation engine providing the clock.
    deliver:
        Callback receiving each message on arrival (the coordinator's
        ``handle_message``).
    latency:
        Propagation delay in virtual seconds.
    bandwidth:
        Bytes per virtual second; transmission time is
        ``payload / bandwidth``.  ``None`` models an unconstrained link
        (latency only).
    collector:
        Optional shared byte-cost collector (metered at send time,
        matching "total communication cost collected every second").
    """

    def __init__(
        self,
        engine: SimulationEngine,
        deliver: Callable[[Message], None],
        latency: float = 0.01,
        bandwidth: float | None = None,
        collector: TimeSeriesCollector | None = None,
        observer: Observer | None = None,
    ) -> None:
        if latency < 0.0:
            raise ValueError("latency must be non-negative")
        if bandwidth is not None and bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        self._engine = engine
        self._deliver = deliver
        self.latency = latency
        self.bandwidth = bandwidth
        self._collector = collector
        self._obs = ensure_observer(observer)
        self.stats = DeliveryAccounting()
        #: Time the link becomes free; serialises transmissions.
        self._busy_until = 0.0

    def send(self, message: Message) -> float:
        """Transmit ``message``; returns its (scheduled) arrival time.

        Transmissions on one channel are serialised: a message must wait
        for the previous one to finish before occupying the link.
        """
        payload = message.payload_bytes()
        now = self._engine.now
        start = max(now, self._busy_until)
        transmit = payload / self.bandwidth if self.bandwidth else 0.0
        arrival = start + transmit + self.latency
        self._busy_until = start + transmit
        self.stats.attempted += 1
        self.stats.payload_bytes += payload
        self.stats.wire_bytes += payload
        if self._collector is not None:
            self._collector.add(now, payload)
        # Capture the sender's span context now (the site's chunk-test
        # span is active during send) and re-activate it at delivery
        # time, when the event fires outside that span's lifetime.
        trace = self._obs.span_context()
        self._engine.schedule_at(
            arrival, lambda: self._deliver_traced(message, trace)
        )
        return arrival

    def _deliver_traced(self, message: Message, trace) -> None:
        with self._obs.remote_parent(trace):
            self._deliver(message)


class StarNetwork:
    """All site-to-coordinator channels plus the shared cost meter.

    Parameters
    ----------
    engine:
        Simulation engine.
    deliver:
        Coordinator-side message sink.
    latency / bandwidth:
        Defaults applied to every channel created by
        :meth:`channel_for`.
    sample_interval:
        Grid period of the shared communication-cost collector.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        deliver: Callable[[Message], None],
        latency: float = 0.01,
        bandwidth: float | None = None,
        sample_interval: float = 1.0,
        observer: Observer | None = None,
    ) -> None:
        self._engine = engine
        self._deliver = deliver
        self._latency = latency
        self._bandwidth = bandwidth
        self._obs = ensure_observer(observer)
        self.cost = TimeSeriesCollector(interval=sample_interval)
        self._channels: dict[int, NetworkChannel] = {}
        self._finalized_at: float | None = None

    def channel_for(self, site_id: int) -> NetworkChannel:
        """The (lazily created) uplink channel of ``site_id``."""
        if site_id not in self._channels:
            self._channels[site_id] = NetworkChannel(
                engine=self._engine,
                deliver=self._deliver,
                latency=self._latency,
                bandwidth=self._bandwidth,
                collector=self.cost,
                observer=self._obs,
            )
        return self._channels[site_id]

    def accounting(self) -> DeliveryAccounting:
        """Aggregate per-channel counters into one unified accounting."""
        total = DeliveryAccounting()
        for channel in self._channels.values():
            total.merge(channel.stats)
        return total

    def finalize(self) -> None:
        """Flush the cost collector up to the current clock.

        Idempotent: calling it again (at the same or an earlier clock
        value) changes nothing, so report code may finalize defensively
        without corrupting the series.
        """
        now = self._engine.now
        if self._finalized_at is not None and now <= self._finalized_at:
            return
        self.cost.finalize(now)
        self._finalized_at = now
