"""Endpoints: plugging the transport stack into sites and coordinator.

A :class:`SiteEndpoint` is *the* in-process uplink edge -- of a
:class:`~repro.core.remote.RemoteSite` behind a
:class:`~repro.runtime.channel.TransportChannel`, and of every leaf and
aggregator of a :class:`~repro.cluster.tree.TransportTree`: its
:meth:`send` is shaped exactly like the site's ``emit`` hook, serialises
the message through :mod:`repro.core.serde` and hands the bytes to a
:class:`~repro.transport.reliability.ReliableSender`.  :func:`drain` is
the one loop that settles such edges on a manual clock.

A :class:`CoordinatorEndpoint` is the receiving half: datagrams come in
from the transport, the
:class:`~repro.transport.reliability.ReliableReceiver` dedupes/orders
them, and surviving payloads are decoded back into protocol messages
and applied via ``Coordinator.handle_message``.  It also turns the
heartbeat stream into staleness information.
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator import Coordinator
from repro.core.protocol import Message
from repro.core.serde import CDS2Codec, CodecConfig, get_codec
from repro.obs.observer import Observer, ensure_observer
from repro.transport.base import DatagramTransport
from repro.transport.clock import Clock, ManualClock
from repro.transport.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.wire import CodecSender

__all__ = [
    "CoordinatorEndpoint",
    "SiteEndpoint",
    "connect_system",
    "drain",
]


class SiteEndpoint:
    """Site-side endpoint: serde + reliable sender over a transport.

    Use ``site._emit = endpoint.send`` (or pass ``emit=endpoint.send``
    at construction) to route a :class:`~repro.core.remote.RemoteSite`'s
    messages through the transport.

    Parameters
    ----------
    site_id:
        The site this endpoint speaks for.
    transport:
        Any :class:`~repro.transport.base.DatagramTransport`.
    clock:
        Timer service shared with the transport.
    config:
        Reliability tuning.
    rng:
        Randomness for retransmission jitter.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; serialisation is
        timed into the ``profile.serde_encode`` histogram and forwarded
        to the :class:`~repro.transport.reliability.ReliableSender`.
    wire_codec / codec_config:
        The edge's serialisation (see :func:`repro.core.serde.get_codec`).
    first_seq:
        Sequence number of the first payload; a restored aggregator
        continues its uplink where the checkpoint left it.
    """

    def __init__(
        self,
        site_id: int,
        transport: DatagramTransport,
        clock: Clock,
        config: ReliabilityConfig | None = None,
        rng: np.random.Generator | None = None,
        observer: Observer | None = None,
        *,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
        first_seq: int = 1,
    ) -> None:
        self.site_id = site_id
        self._transport = transport
        self._obs = ensure_observer(observer)
        self.sender = ReliableSender(
            site_id=site_id,
            transmit=lambda data: transport.send_to_coordinator(site_id, data),
            clock=clock,
            config=config,
            rng=rng,
            observer=self._obs,
            first_seq=first_seq,
        )
        self.codec_sender = CodecSender(
            self.sender, get_codec(wire_codec, codec_config)
        )
        transport.bind_site(site_id, self.sender.handle_datagram)

    def send(self, message: Message) -> None:
        if message.site_id != self.site_id:
            raise ValueError(
                f"endpoint of site {self.site_id} cannot send a message "
                f"from site {message.site_id}"
            )
        # Propagate the active span context (the chunk-test/EM span that
        # produced this synopsis) inside the envelope header.  Encoding
        # happens inside the codec sender, at transmission time.
        with self._obs.timer("profile.serde_encode"):
            self.codec_sender.send(message, trace=self._obs.span_context())

    def outstanding(self) -> int:
        """Messages sent but not yet acknowledged."""
        return self.sender.outstanding()

    def finish(self) -> None:
        """Announce end of stream (best-effort DONE)."""
        self.sender.send_done()

    def close(self) -> None:
        self.sender.close()
        self._transport.unbind_site(self.site_id)


class CoordinatorEndpoint:
    """Coordinator-side endpoint: reliable receiver + serde + staleness.

    Parameters
    ----------
    coordinator:
        The coordinator consuming delivered messages.
    transport:
        The datagram backend to bind to.
    clock:
        Clock used for liveness timestamps.
    config:
        Reliability tuning (``stale_after`` in particular).
    observer:
        Optional :class:`~repro.obs.observer.Observer`; deserialisation
        is timed into ``profile.serde_decode`` and forwarded to the
        :class:`~repro.transport.reliability.ReliableReceiver`.

    Payloads decode with one :class:`~repro.core.serde.CDS2Codec`, which
    reads CDS1 and CDS2 alike: the sender picks the wire format.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        transport: DatagramTransport,
        clock: Clock,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.coordinator = coordinator
        self._transport = transport
        self._obs = ensure_observer(observer)
        self.codec = CDS2Codec()
        self.receiver = ReliableReceiver(
            deliver=self._deliver,
            send_ack=transport.send_to_site,
            clock=clock,
            config=config,
            observer=self._obs,
        )
        transport.bind_coordinator(self.receiver.handle_datagram)

    def _deliver(self, site_id: int, payload: bytes, trace=None) -> None:
        with self._obs.timer("profile.serde_decode"):
            message = self.codec.decode(payload)
        # Adopt the propagated context so coordinator-side spans
        # (coord.update / coord.merge / coord.split) causally link back
        # to the originating site's chunk-test span.
        with self._obs.remote_parent(trace):
            self.coordinator.handle_message(message)

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def stale_sites(self, stale_after: float | None = None) -> tuple[int, ...]:
        """Sites silent beyond the staleness timeout (and not DONE)."""
        return self.receiver.stale_sites(stale_after)

    def close(self) -> None:
        self._transport.bind_coordinator(lambda data: None)


# ----------------------------------------------------------------------
# Convenience wiring
# ----------------------------------------------------------------------
def connect_system(
    sites,
    coordinator: Coordinator,
    transport: DatagramTransport,
    clock: Clock,
    config: ReliabilityConfig | None = None,
    seed: int = 0,
    observer: Observer | None = None,
    *,
    wire_codec: str = "cds1",
    codec_config: CodecConfig | None = None,
) -> tuple[list[SiteEndpoint], CoordinatorEndpoint]:
    """Wire ``sites`` and ``coordinator`` over one transport.

    Installs a :class:`SiteEndpoint` as each site's ``emit`` hook and
    binds a :class:`CoordinatorEndpoint`; returns both so callers can
    inspect stats, drain outboxes and close everything down.  The
    optional ``observer`` is shared by every endpoint, and the optional
    ``wire_codec``/``codec_config`` select every site's serialisation
    (see :func:`repro.core.serde.get_codec`).
    """
    observer = ensure_observer(observer)
    coordinator_endpoint = CoordinatorEndpoint(
        coordinator,
        transport,
        clock,
        config,
        observer=observer,
    )
    endpoints: list[SiteEndpoint] = []
    for site in sites:
        endpoint = SiteEndpoint(
            site.site_id,
            transport,
            clock,
            config,
            rng=np.random.default_rng(seed + 70_000 + site.site_id),
            observer=observer,
            wire_codec=wire_codec,
            codec_config=codec_config,
        )
        site._emit = endpoint.send
        endpoints.append(endpoint)
    return endpoints, coordinator_endpoint


def drain(
    clock: ManualClock,
    endpoints,
    step: float = 0.25,
    limit: float = 600.0,
) -> float:
    """Advance ``clock`` until every endpoint's outbox is empty.

    Retransmission timers and delayed deliveries fire as the clock
    moves; with unlimited retry attempts this terminates for any fault
    pattern short of a permanent partition.  Returns the clock time
    spent; raises ``RuntimeError`` if ``limit`` seconds pass without the
    outboxes draining (a genuinely dead link).
    """
    spent = 0.0
    while any(endpoint.outstanding() for endpoint in endpoints):
        if spent >= limit:
            raise RuntimeError(
                f"transport failed to drain within {limit} clock seconds"
            )
        clock.advance(step)
        spent += step
    return spent
