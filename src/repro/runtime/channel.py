"""The pluggable ``Channel`` interface: one contract, three backends.

A :class:`Channel` owns everything between a
:class:`~repro.core.remote.RemoteSite`'s emitted messages and the
:class:`~repro.core.coordinator.Coordinator`: wiring, delivery timing,
fault injection and accounting.  The :class:`~repro.runtime.runtime.Runtime`
drives all three implementations through the same five calls --
``open``, ``submit`` (once per record), ``quiesce`` (force everything
in flight to land, e.g. before a checkpoint), ``finish`` and ``close``
-- so the delivery semantics live entirely behind this interface:

* :class:`DirectChannel` -- synchronous in-process delivery; messages
  reach the coordinator before ``submit`` returns;
* :class:`SimulatedChannel` -- direct delivery on a virtual clock,
  with the Figure 2 cost collector; ``submit`` advances the clock to
  each record's time;
* :class:`TransportChannel` -- the full ARQ transport stack
  (:mod:`repro.transport`) into the root of a one-level tree; ``submit``
  drains the reliable outboxes whenever a message entered one since
  the last drain, so delivery order equals emission order even under
  seeded faults.

Each backend honours the same :class:`~repro.runtime.faults.ChannelFaults`
spec and reports the same :class:`~repro.runtime.accounting.DeliveryAccounting`
model, which is what lets an experiment swap backends without touching
its driver or its metering.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.coordinator import Coordinator
from repro.core.protocol import Message
from repro.core.remote import RemoteSite
from repro.obs.observer import Observer, ensure_observer
from repro.runtime.accounting import DeliveryAccounting
from repro.runtime.faults import ChannelFaults, MessageFaultInjector

__all__ = [
    "Channel",
    "DirectChannel",
    "DrainMark",
    "SimulatedChannel",
    "TransportChannel",
]

#: Clock step and safety bound of each :class:`TransportChannel` drain.
DRAIN_STEP = 0.25
DRAIN_LIMIT = 600.0
#: The :class:`TransportChannel` coordinator's node id: a label no site uses.
ROOT_ID = -1


class Channel(ABC):
    """What the runtime needs from a delivery backend.

    Lifecycle: ``open`` wires sites to the coordinator, ``submit`` is
    called once per record, ``quiesce`` forces every in-flight message
    to be applied (the runtime calls it before taking a checkpoint),
    ``finish`` flushes end-of-run state (cost series, DONE markers) and
    ``close`` releases all wiring.  ``close`` must be safe after a
    partial run -- it is the channel's crash path.
    """

    #: Human-readable backend name (used in traces and reports).
    name: str = "channel"
    #: The sites ``open`` wired; ``close`` unhooks them.
    _sites: Sequence[RemoteSite] = ()

    @abstractmethod
    def open(
        self,
        sites: Sequence[RemoteSite],
        coordinator: Coordinator,
        observer: Observer | None = None,
    ) -> None:
        """Wire ``sites`` and ``coordinator`` to this backend."""

    @abstractmethod
    def submit(self, site: RemoteSite, record) -> list[Message]:
        """Feed one record to ``site``; returns the messages it emitted."""

    def quiesce(self) -> None:
        """Force every in-flight message to reach the coordinator."""

    def finish(self) -> None:
        """Flush end-of-run state (after the last record)."""

    def close(self) -> None:
        """Unwire sites and release backend resources."""
        for site in self._sites:
            site._emit = None

    @abstractmethod
    def accounting(self) -> DeliveryAccounting:
        """Current delivery accounting in the unified model."""

    @property
    def duration(self) -> float:
        """Elapsed channel time in seconds (virtual where applicable)."""
        return 0.0


class DirectChannel(Channel):
    """Synchronous delivery: the paper's idealised lossless uplink.

    Messages produced by ``submit`` are applied at the coordinator
    immediately (through the fault injector), so there is never
    anything in flight and ``quiesce`` is trivial.

    Parameters
    ----------
    faults:
        Optional seeded :class:`~repro.runtime.faults.ChannelFaults`;
        drops actually lose messages (pair with
        ``CoordinatorConfig(tolerate_loss=True)``).
    """

    name = "direct"

    def __init__(self, faults: ChannelFaults | None = None) -> None:
        self._faults = faults
        self._accounting = DeliveryAccounting()
        self._injector: MessageFaultInjector | None = None

    def open(self, sites, coordinator, observer=None):
        self._injector = MessageFaultInjector(
            self._faults,
            coordinator.handle_message,
            self._accounting,
            observer=observer,
        )
        # Delivery happens at emission time, while the site's chunk-test
        # span is still active -- which is exactly what makes
        # coordinator-side spans children of the originating site span
        # on the synchronous backend.
        self._sites = list(sites)
        for site in sites:
            site._emit = self._on_emit

    def _on_emit(self, message: Message) -> None:
        accounting = self._accounting
        payload = message.payload_bytes()
        accounting.attempted += 1
        accounting.payload_bytes += payload
        accounting.wire_bytes += payload
        self._injector.offer(message)

    def submit(self, site, record):
        return site.process_record(record)

    def quiesce(self):
        if self._injector is not None:
            self._injector.flush()

    def finish(self):
        self.quiesce()

    def accounting(self):
        return replace(self._accounting)


class SimulatedChannel(DirectChannel):
    """:class:`DirectChannel` on a virtual clock, with the Figure 2 meter.

    Record ``k`` of every site is at ``k / rate`` virtual seconds:
    ``submit`` advances the clock there before feeding the site, so each
    message is metered at the second it is emitted, then delivered as
    on the direct channel.  ``duration`` is the last record's time and
    ``sample_interval`` the grid of :meth:`cost_series`.  ``latency``
    is deprecated since 1.8.0 and changes nothing.
    """

    name = "simulated"

    def __init__(
        self,
        rate: float = 1000.0,
        latency: float = 0.01,
        sample_interval: float = 1.0,
        faults: ChannelFaults | None = None,
    ) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        if latency != 0.01:
            warnings.warn(
                "SimulatedChannel latency is deprecated and changes "
                "nothing: messages are delivered as they are emitted",
                DeprecationWarning,
                stacklevel=2,
            )
        super().__init__(faults)
        self._rate = rate
        self._sample_interval = sample_interval
        self._cost = None
        self.engine = None

    def open(self, sites, coordinator, observer=None):
        from repro.simulation.collector import TimeSeriesCollector
        from repro.simulation.engine import SimulationEngine

        super().open(sites, coordinator, observer)
        self.engine = SimulationEngine(observer=observer)
        self._cost = TimeSeriesCollector(interval=self._sample_interval)
        self._counts = {site.site_id: 0 for site in sites}

    def _on_emit(self, message: Message) -> None:
        self._cost.add(self.engine.now, message.payload_bytes())
        super()._on_emit(message)

    def submit(self, site, record):
        count = self._counts[site.site_id]
        self._counts[site.site_id] = count + 1
        self.engine.advance(count / self._rate)
        return site.process_record(record)

    def quiesce(self):
        self.engine.run()
        super().quiesce()

    def finish(self):
        super().finish()
        self._cost.finalize(self.engine.now)

    @property
    def duration(self):
        return self.engine.now if self.engine is not None else 0.0

    def cost_series(self) -> tuple[list[float], list[float]]:
        """The per-second cumulative communication cost (Figure 2)."""
        return self._cost.series() if self._cost is not None else ([], [])


class DrainMark:
    """The *unsettled* mark of an in-process driver of ARQ edges.

    :class:`TransportChannel` and :class:`repro.cluster.tree.TransportTree`
    settle their :class:`~repro.transport.endpoint.SiteEndpoint` edges
    before the next record, so delivery order equals emission order.
    With every outbox empty a drain advances nothing, so their
    per-record paths skip it while the mark is clear.  The contract
    (DESIGN.md section 17.4):

    * *every* message entering an edge sets the mark, because each one
      goes through a :meth:`_marking` hook -- a ``site.expire`` outside
      the per-record call and an aggregator's re-upload from inside a
      drain included;
    * only a drain that *returns* clears it: one that raises (a dead
      link) leaves it set, and the next record raises again;
    * an explicit :meth:`_settle` always scans.

    A mixin, not a helper object: the per-record path reads the mark as
    the driver's own attribute, once per record.
    """

    def __init__(self) -> None:
        #: A message entered an edge since a drain last returned.  While
        #: clear, every outbox is known to be empty.
        self._unsettled = False

    def _marking(self, send):
        """``send`` as an emit hook that notes there is something to drain."""

        def emit(message: Message) -> None:
            self._unsettled = True
            send(message)

        return emit

    def _settle(self, clock, endpoints, step: float, limit: float) -> float:
        """Advance ``clock`` until every endpoint's outbox is empty."""
        # Resolved on its module per call, where the e2e benchmark's
        # recorder patches it.
        from repro.transport.endpoint import drain

        spent = drain(clock, endpoints, step=step, limit=limit)
        self._unsettled = False
        return spent


class TransportChannel(DrainMark, Channel):
    """The fault-tolerant ARQ transport stack as a runtime backend.

    ``submit`` feeds the site and then, if a message entered an endpoint
    since the last drain returned (:class:`DrainMark`), drains the
    reliable outboxes (the manual clock is advanced until every payload
    is acknowledged), so delivery order equals emission order and the
    coordinator converges to the loss-free state whatever the fault
    pattern -- the property the transport convergence suite pins down.
    ``quiesce`` always drains.  ``endpoints`` are the sites' uplinks;
    ``hop`` is the coordinator's :class:`~repro.cluster.hop.AggregatorHop`,
    under :data:`ROOT_ID`, that receives and applies every payload.

    Parameters
    ----------
    transport:
        Any :class:`~repro.transport.base.DatagramTransport`.
    clock:
        The :class:`~repro.transport.clock.ManualClock` shared with the
        transport's timers.
    reliability:
        Optional :class:`~repro.transport.reliability.ReliabilityConfig`.
    seed:
        Base seed for per-site retransmission jitter.
    faults:
        Optional :class:`~repro.runtime.faults.ChannelFaults`; the spec
        is mapped onto a datagram-level
        :class:`~repro.transport.lossy.LossyTransport` wrapping
        ``transport``, and the ARQ layer heals every injected fault.
    wire_codec / codec_config:
        Wire codec every site sends in (see
        :func:`repro.core.serde.get_codec`); the default keeps the CDS1
        byte accounting of previous releases.
    """

    name = "transport"

    def __init__(
        self,
        transport,
        clock,
        reliability=None,
        seed: int = 0,
        faults: ChannelFaults | None = None,
        wire_codec: str = "cds1",
        codec_config=None,
    ) -> None:
        super().__init__()
        self._transport = transport
        self._clock = clock
        self._reliability = reliability
        self._seed = seed
        self._faults = faults
        self._wire_codec = wire_codec
        self._codec_config = codec_config
        self._lossy = None
        self.endpoints = []
        self.hop = None

    def open(self, sites, coordinator, observer=None):
        from repro.cluster.hop import AggregatorHop, InternalNode
        from repro.transport.endpoint import SiteEndpoint
        from repro.transport.lossy import FaultConfig, LossyTransport

        observer = ensure_observer(observer)
        transport = self._transport
        if self._faults is not None and self._faults.any_enabled:
            self._lossy = LossyTransport(
                transport,
                self._clock,
                FaultConfig(
                    drop_rate=self._faults.drop_rate,
                    duplicate_rate=self._faults.duplicate_rate,
                    reorder_rate=self._faults.reorder_rate,
                ),
                seed=self._faults.seed,
                observer=observer,
            )
            transport = self._lossy
        self._sites = list(sites)
        self.hop = AggregatorHop(
            InternalNode(ROOT_ID, coordinator), level=0, observer=observer
        )
        receiver = self.hop.listen(
            transport.send_to_site, self._clock, self._reliability
        )
        transport.bind_coordinator(receiver.handle_datagram)
        self.endpoints = []
        for site in sites:
            endpoint = SiteEndpoint(
                site.site_id,
                transport,
                self._clock,
                self._reliability,
                rng=np.random.default_rng(self._seed + 70_000 + site.site_id),
                observer=observer,
                wire_codec=self._wire_codec,
                codec_config=self._codec_config,
            )
            site._emit = self._marking(endpoint.send)
            self.endpoints.append(endpoint)

    def submit(self, site, record):
        messages = site.process_record(record)
        if self._unsettled:
            self._drain()
        return messages

    def quiesce(self):
        self._drain()

    def _drain(self) -> None:
        self._settle(self._clock, self.endpoints, DRAIN_STEP, DRAIN_LIMIT)

    def finish(self):
        for endpoint in self.endpoints:
            endpoint.finish()

    def close(self):
        super().close()
        for endpoint in self.endpoints:
            endpoint.close()

    def accounting(self):
        accounting = DeliveryAccounting.from_endpoints(self.endpoints, self.hop)
        if self._lossy is not None:
            faults = self._lossy.faults
            accounting.dropped = faults.dropped + faults.partition_drops
            accounting.duplicated = faults.duplicated
            accounting.reordered = faults.reordered
        return accounting

    @property
    def duration(self):
        return self._clock.now
