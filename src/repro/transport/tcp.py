"""Asyncio TCP transport: the sending side of the same envelopes.

Each site process runs :func:`run_site_client`; a site and an interior
aggregator reach their parent through one :class:`Uplink`: the TCP
connection around the same :class:`~repro.transport.endpoint.SiteEndpoint`
every in-process edge is, so the send path, the seeds and the byte
account are the in-process ones.  The parent
is an :class:`~repro.cluster.aggregator.AggregatorServer` -- for a flat
deployment, the root of a one-level tree.  On the wire the byte stream
is simply a concatenation of ``TPT1`` envelopes (the envelope's length
field is the length prefix), each DATA payload being a serde-encoded
synopsis message -- identical bytes to what the in-process backends
carry, so a site neither knows nor cares whether it is talking through
loopback, a fault injector or a socket.

TCP already gives loss-free ordered delivery, but the reliability layer
stays in the loop: sequence numbers make reconnects and restarts
idempotent, acks give a site a positive "your synopsis is applied"
signal to gate stream completion on, and heartbeats let the parent flag
sites whose process died while holding the socket open.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.obs.federation import FederationPublisher
from repro.obs.observer import Observer
from repro.transport.clock import AsyncioClock
from repro.transport.endpoint import SiteEndpoint
from repro.transport.framing import StreamDecoder
from repro.transport.reliability import ReliabilityConfig

__all__ = ["SiteRunReport", "Uplink", "run_site_client"]

_READ_CHUNK = 1 << 16

#: Records :func:`run_site_client` processes between yields to the
#: event loop (acks absorbed, writer drained, telemetry checked).
_YIELD_EVERY = 64


class Uplink:
    """One node's TCP connection toward its parent, around its edge.

    Connecting builds the :class:`~repro.transport.endpoint.SiteEndpoint`
    over the socket (:attr:`edge`: send through it, read its stats off
    it) and the task pumping the parent's acks into its sender;
    :meth:`finish` is the close sequence.  To its parent a site and an
    interior aggregator are the same thing, so :func:`run_site_client`
    and :class:`~repro.cluster.aggregator.AggregatorServer` both hold
    one of these and both end -- and fail -- the same way.
    """

    def __init__(self, reader, writer, edge: SiteEndpoint) -> None:
        self.edge = edge
        self.writer: asyncio.StreamWriter = writer
        self._ack_task = asyncio.ensure_future(self._pump_acks(reader))

    @classmethod
    async def connect(
        cls,
        site_id: int,
        host: str,
        port: int,
        *,
        config: ReliabilityConfig | None = None,
        seed: int = 0,
        observer: Observer | None = None,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
        first_seq: int = 1,
    ) -> "Uplink":
        """Open the parent connection; ``first_seq`` continues a
        checkpointed sequence (the parent's cursor survived us)."""
        reader, writer = await asyncio.open_connection(host, port)
        edge = SiteEndpoint(
            site_id,
            writer.write,
            AsyncioClock(asyncio.get_running_loop()),
            config,
            seed=seed,
            observer=observer,
            wire_codec=wire_codec,
            codec_config=codec_config,
            first_seq=first_seq,
        )
        return cls(reader, writer, edge)

    async def finish(self, drain_timeout: float = 60.0, final=None) -> None:
        """Drain unacked payloads, send DONE, half-close and linger.

        A parent that closed the connection with payloads unacked is a
        ``ConnectionError`` at once; one that holds it open without
        acking is a ``TimeoutError`` after ``drain_timeout``.  ``final``
        (a zero-arg callable returning a TELEMETRY payload) is sent
        after the drain and before DONE, so the last report covers
        every acknowledged upload.
        """
        sender = self.edge.sender
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        while sender.outstanding() > 0:
            if self._ack_task.done():
                raise ConnectionError(
                    f"node {sender.site_id}: parent connection lost with "
                    f"{sender.outstanding()} payloads unacknowledged"
                )
            if loop.time() > deadline:
                raise TimeoutError(
                    f"node {sender.site_id}: {sender.outstanding()} "
                    "payloads still unacknowledged"
                )
            await asyncio.sleep(0.02)
        if final is not None:
            sender.send_telemetry(final())
        sender.send_done()
        await self.writer.drain()
        # DONE is best-effort on the ARQ layer, so its delivery must be
        # guaranteed by the close sequence: closing while unread acks
        # sit in our receive buffer turns the close into a TCP RST,
        # which can destroy the just-sent DONE in the parent's receive
        # queue.  Half-close instead -- FIN is ordered after the DONE
        # bytes -- and linger until the parent has read everything and
        # closed its side (the ack pump sees EOF).
        sender.close()
        try:
            self.writer.write_eof()
            await asyncio.wait_for(self._ack_task, drain_timeout)
        except (OSError, RuntimeError, asyncio.TimeoutError):
            pass

    async def close(self) -> None:
        """Release the connection (after :meth:`finish`, or instead of
        it when the run is abandoned)."""
        self.edge.close()
        self._ack_task.cancel()
        await asyncio.gather(self._ack_task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass

    async def _pump_acks(self, reader: asyncio.StreamReader) -> None:
        decoder = StreamDecoder()
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                for envelope in decoder.feed(chunk):
                    self.edge.sender.handle_envelope(envelope)
        except OSError:
            # Parent went away; finish() notices the dead pump and
            # reports the loss instead of draining forever.
            return


@dataclass(frozen=True)
class SiteRunReport:
    """Summary of one site-client run."""

    records: int
    messages_sent: int
    retransmissions: int
    payload_bytes: int
    wire_bytes: int
    models: int


async def run_site_client(
    site_id: int,
    records: Iterable[np.ndarray],
    host: str,
    port: int,
    site_config: RemoteSiteConfig | None = None,
    config: ReliabilityConfig | None = None,
    seed: int = 0,
    drain_timeout: float = 60.0,
    observer: Observer | None = None,
    site: RemoteSite | None = None,
    federation: FederationPublisher | None = None,
    telemetry_interval: float = 2.0,
    wire_codec: str = "cds1",
    codec_config: CodecConfig | None = None,
    history=None,
    first_seq: int = 1,
) -> tuple[RemoteSite, SiteRunReport]:
    """Run one remote site against a TCP parent.

    Streams ``records`` through a :class:`~repro.core.remote.RemoteSite`
    whose emitted synopses travel over the socket with full reliability
    semantics; returns once every message is acknowledged and DONE has
    been sent (:meth:`Uplink.finish`).  The optional ``observer``
    instruments both the site and its reliable sender.

    With a ``federation`` publisher, the site piggybacks a telemetry
    report on the uplink every ``telemetry_interval`` seconds (checked
    every :data:`_YIELD_EVERY` records) plus one final report right
    before DONE, so the last snapshot the tree sees covers the whole
    run.  Telemetry rides in unsequenced TELEMETRY envelopes and never
    perturbs the DATA stream or its accounting.

    Pass a prebuilt ``site`` (e.g. restored with
    :func:`repro.io.checkpoint.load_site`) to continue an interrupted
    run; it is rewired onto this connection's sender and
    ``site_config`` / the site rng seed are ignored.

    ``history`` (a :class:`~repro.obs.history.ModelHistory`) attaches a
    reign record to the site it builds; ignored when a
    prebuilt ``site`` is passed (a restored site carries its own).

    ``first_seq`` continues a checkpointed uplink sequence, so a parent
    that kept its cursor for this site (a resumed aggregator) applies
    the restored site's uploads instead of suppressing them.
    """
    loop = asyncio.get_running_loop()
    uplink = await Uplink.connect(
        site_id,
        host,
        port,
        config=config,
        seed=seed,
        observer=observer,
        wire_codec=wire_codec,
        codec_config=codec_config,
        first_seq=first_seq,
    )
    edge = uplink.edge
    sender = edge.sender
    if federation is not None:
        federation.uplink = lambda: edge
    if site is None:
        site = RemoteSite(
            site_id,
            site_config,
            rng=np.random.default_rng(seed + site_id),
            emit=edge.send,
            observer=observer,
            history=history,
        )
    else:
        if site.site_id != site_id:
            raise ValueError(
                f"restored site has id {site.site_id}, expected {site_id}"
            )
        site._emit = edge.send

    processed = 0
    next_flush = loop.time() + telemetry_interval
    try:
        for record in records:
            site.process_record(record)
            processed += 1
            if processed % _YIELD_EVERY == 0:
                # Let the reader task absorb acks and the writer flush.
                if federation is not None and loop.time() >= next_flush:
                    sender.send_telemetry(federation.collect())
                    next_flush = loop.time() + telemetry_interval
                await uplink.writer.drain()
                await asyncio.sleep(0)
        # Final report: every record processed, all uploads acked.
        await uplink.finish(
            drain_timeout,
            final=federation.collect if federation is not None else None,
        )
    finally:
        await uplink.close()
    return site, SiteRunReport(
        records=processed,
        messages_sent=sender.stats.payloads_sent,
        retransmissions=sender.stats.retransmissions,
        payload_bytes=sender.stats.payload_bytes,
        wire_bytes=sender.stats.wire_bytes,
        models=len(site.all_models),
    )
