"""The uplink edge and the loop that settles it.

A :class:`SiteEndpoint` is *the* uplink edge of a site or aggregator,
whatever carries its bytes: each edge of a
:class:`~repro.cluster.tree.TransportTree` (so also of a
:class:`~repro.runtime.channel.TransportChannel`, a depth-1 tree) over
its parent's subnet, and each TCP :class:`~repro.transport.tcp.Uplink`
over its socket.  Its :meth:`send` is shaped exactly like the site's
``emit`` hook, serialises the message through the edge's codec and
hands the bytes to a :class:`~repro.transport.reliability.ReliableSender`.
:func:`drain` is the one loop that settles such edges on a manual clock.

The receiving half is the parent's
:class:`~repro.cluster.hop.AggregatorHop`: its ``listen`` builds the
:class:`~repro.transport.reliability.ReliableReceiver`, and every
surviving payload is decoded and applied in its ``deliver``; whoever
builds an edge routes the acks into ``edge.sender.handle_datagram``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.protocol import Message
from repro.core.serde import CodecConfig, get_codec
from repro.obs.observer import Observer, ensure_observer
from repro.transport.clock import Clock, ManualClock
from repro.transport.reliability import ReliabilityConfig, ReliableSender
from repro.transport.wire import CodecSender

__all__ = ["SiteEndpoint", "drain"]


class SiteEndpoint:
    """One uplink edge: serde + reliable sender over ``transmit``.

    Use ``site._emit = endpoint.send`` (or pass ``emit=endpoint.send``
    at construction) to route a :class:`~repro.core.remote.RemoteSite`'s
    messages through the edge.

    Parameters
    ----------
    site_id:
        The site (or aggregator) this edge speaks for.
    transmit:
        Puts one envelope on the wire toward the parent.
    clock:
        Timer service of the retransmission and heartbeat timers.
    config:
        Reliability tuning.
    seed:
        The deployment seed; the edge seeds its retransmission jitter
        from it and ``site_id``, the same way on every carrier.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; serialisation is
        timed into the ``profile.serde_encode`` histogram and forwarded
        to the :class:`~repro.transport.reliability.ReliableSender`.
    wire_codec / codec_config:
        The edge's serialisation (see :func:`repro.core.serde.get_codec`).
    first_seq:
        Sequence number of the first payload; a restored node continues
        its uplink where the checkpoint left it.
    """

    def __init__(
        self,
        site_id: int,
        transmit: Callable[[bytes], None],
        clock: Clock,
        config: ReliabilityConfig | None = None,
        *,
        seed: int = 0,
        observer: Observer | None = None,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
        first_seq: int = 1,
    ) -> None:
        self.site_id = site_id
        self._obs = ensure_observer(observer)
        self.sender = ReliableSender(
            site_id=site_id,
            transmit=transmit,
            clock=clock,
            config=config,
            rng=np.random.default_rng(seed + 70_000 + site_id),
            observer=self._obs,
            first_seq=first_seq,
        )
        self.codec_sender = CodecSender(
            self.sender, get_codec(wire_codec, codec_config)
        )

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
