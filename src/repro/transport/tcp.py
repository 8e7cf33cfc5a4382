"""Asyncio TCP transport: the same envelopes over real sockets.

The coordinator runs a :class:`CoordinatorServer`; each site process
runs :func:`run_site_client`.  On the wire the byte stream is simply a
concatenation of ``TPT1`` envelopes (the envelope's length field is the
length prefix), each DATA payload being a ``CDS1``-encoded synopsis
message -- identical bytes to what the in-process backends carry, so a
site neither knows nor cares whether it is talking through loopback,
a fault injector or a socket.

TCP already gives loss-free ordered delivery, but the reliability layer
stays in the loop: sequence numbers make reconnects and coordinator
restarts idempotent, acks give sites a positive "your synopsis is
applied" signal to gate stream completion on, and heartbeats let the
coordinator flag sites whose process died while holding the socket open.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.coordinator import Coordinator
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig, get_codec
from repro.obs.federation import FederationPublisher
from repro.obs.observer import Observer, ensure_observer
from repro.transport.clock import AsyncioClock
from repro.transport.framing import StreamDecoder
from repro.transport.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.wire import CodecSender

__all__ = ["CoordinatorServer", "SiteRunReport", "Uplink", "run_site_client"]

_READ_CHUNK = 1 << 16


class CoordinatorServer:
    """Accepts site connections and feeds a coordinator.

    Parameters
    ----------
    coordinator:
        The coordinator applying delivered messages.
    expected_sites:
        Number of distinct sites that must report DONE before
        :meth:`wait_done` returns; ``None`` serves forever.
    config:
        Reliability tuning (heartbeat staleness etc.).
    observer:
        Optional :class:`~repro.obs.observer.Observer`, forwarded to the
        :class:`~repro.transport.reliability.ReliableReceiver`.
    on_telemetry:
        Optional ``(site_id, payload)`` callback for TELEMETRY envelopes
        arriving on any connection -- how a federated aggregator's relay
        (or the root's collector) taps the uplink without touching the
        sequenced DATA path.
    on_progress:
        Optional zero-arg callback invoked between envelopes while a
        handler works through a read batch.  One 64 KB read can hold
        dozens of synopses each costing an EM merge, starving asyncio
        timer tasks for many seconds -- anything that must keep a
        cadence while the loop is busy (the federated telemetry flush)
        hooks in here, with its own time gate.  May also be assigned
        after construction.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        expected_sites: int | None = None,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
        on_telemetry=None,
        on_progress=None,
        *,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
    ) -> None:
        self.coordinator = coordinator
        self.expected_sites = expected_sites
        self.config = config or ReliabilityConfig()
        self.on_telemetry = on_telemetry
        self.on_progress = on_progress
        self._obs = ensure_observer(observer)
        self.codec = get_codec(wire_codec, codec_config)
        self.writers: dict[int, asyncio.StreamWriter] = {}
        self._server: asyncio.base_events.Server | None = None
        self._done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        self._closing = False
        self.receiver: ReliableReceiver | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        loop = asyncio.get_running_loop()
        self.receiver = ReliableReceiver(
            deliver_traced=self._deliver,
            send_ack=self._send_ack,
            clock=AsyncioClock(loop),
            config=self.config,
            observer=self._obs,
            on_telemetry=self.on_telemetry,
            accept_codecs={0, self.codec.wire_id},
        )
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        """The actually bound TCP port."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def wait_done(self, timeout: float | None = None) -> bool:
        """Wait until all expected sites completed; ``False`` on timeout."""
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self) -> None:
        assert self._server is not None
        # Handlers poll this between envelopes: an interrupted shutdown
        # must not wait for the backlog of buffered synopses to be
        # absorbed at EM-merge speed before the process can exit.
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        for writer in self.writers.values():
            if not writer.is_closing():
                writer.close()
        # Closed transports feed EOF to the per-connection handlers; let
        # them unwind on their own instead of cancelling mid-read (which
        # asyncio's stream machinery reports noisily at loop shutdown).
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    def stale_sites(self, stale_after: float | None = None) -> tuple[int, ...]:
        """Sites silent beyond the staleness timeout."""
        assert self.receiver is not None
        return self.receiver.stale_sites(stale_after)

    def request_stop(self) -> None:
        """Make handlers stop absorbing envelopes.

        Safe to call from a raw ``signal.signal`` handler: handlers
        check the flag between envelopes, so a stop interrupts even a
        connection whose buffered backlog would take many EM merges to
        absorb (an asyncio signal handler would wait for the current
        chunk's whole batch).  Follow up with :meth:`close`.
        """
        self._closing = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if (
            self.expected_sites is not None
            and self.receiver is not None
            and self.receiver.all_done(self.expected_sites)
        ):
            self._done.set()

    def _deliver(self, site_id: int, payload: bytes, trace=None) -> None:
        message = self.codec.decode(payload)
        with self._obs.remote_parent(trace):
            self.coordinator.handle_message(message)

    def _send_ack(self, site_id: int, data: bytes) -> None:
        writer = self.writers.get(site_id)
        if writer is not None and not writer.is_closing():
            writer.write(data)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self.receiver is not None
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        decoder = StreamDecoder()
        try:
            while not self._closing:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for envelope in decoder.feed(chunk):
                    if self._closing:
                        break
                    self.writers[envelope.site_id] = writer
                    self.receiver.handle_envelope(envelope)
                    if self.on_progress is not None:
                        self.on_progress()
                # Check completion BEFORE draining acks: a site may
                # close its socket right after DONE, making the drain
                # raise -- the DONE is already registered by then and
                # must still release wait_done().
                self._check_done()
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            self._check_done()
        except Exception:  # noqa: BLE001  -- a dead handler stops acks
            # A handler that dies silently strands every site on this
            # connection (their sender retransmits forever against a
            # closed pipe); surface the error instead.
            import traceback

            print(
                "coordinator connection handler failed:", file=sys.stderr
            )
            traceback.print_exc()
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()


class Uplink:
    """One node's TCP edge toward its parent.

    Connecting builds the ARQ sender, the codec sender over it and the
    task pumping the parent's acks back in; :meth:`finish` is the close
    sequence.  To its parent a site and an interior aggregator are the
    same thing, so :func:`run_site_client` and
    :class:`~repro.cluster.aggregator.AggregatorServer` both hold one of
    these and both end -- and fail -- the same way.
    """

    def __init__(self, reader, writer, sender, codec_sender, observer) -> None:
        self.sender: ReliableSender = sender
        self.codec_sender: CodecSender = codec_sender
        self.writer: asyncio.StreamWriter = writer
        self._obs = observer
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
        observer = ensure_observer(observer)
        codec = get_codec(wire_codec, codec_config)
        reader, writer = await asyncio.open_connection(host, port)
        sender = ReliableSender(
            site_id=site_id,
            transmit=writer.write,
            clock=AsyncioClock(asyncio.get_running_loop()),
            config=config,
            rng=np.random.default_rng(seed + 70_000 + site_id),
            observer=observer,
            first_seq=first_seq,
        )
        return cls(reader, writer, sender, CodecSender(sender, codec), observer)

    def send(self, message) -> None:
        """Ship one protocol message under the caller's current span."""
        self.codec_sender.send(message, trace=self._obs.span_context())

    async def finish(self, drain_timeout: float = 60.0, final=None) -> None:
        """Drain unacked payloads, send DONE, half-close and linger.

        A parent that closed the connection with payloads unacked is a
        ``ConnectionError`` at once; one that holds it open without
        acking is a ``TimeoutError`` after ``drain_timeout``.  ``final``
        (a zero-arg callable returning a TELEMETRY payload) is sent
        after the drain and before DONE, so the last report covers
        every acknowledged upload.
        """
        sender = self.sender
        self.codec_sender.flush()
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
        self.sender.close()
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
                    self.sender.handle_envelope(envelope)
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
    yield_every: int = 64,
    drain_timeout: float = 60.0,
    observer: Observer | None = None,
    site: RemoteSite | None = None,
    federation: FederationPublisher | None = None,
    telemetry_interval: float = 2.0,
    wire_codec: str = "cds1",
    codec_config: CodecConfig | None = None,
    history=None,
) -> tuple[RemoteSite, SiteRunReport]:
    """Run one remote site against a TCP coordinator.

    Streams ``records`` through a :class:`~repro.core.remote.RemoteSite`
    whose emitted synopses travel over the socket with full reliability
    semantics; returns once every message is acknowledged and DONE has
    been sent (:meth:`Uplink.finish`).  The optional ``observer``
    instruments both the site and its reliable sender.

    With a ``federation`` publisher, the site piggybacks a telemetry
    report on the uplink every ``telemetry_interval`` seconds (checked
    at the ``yield_every`` drain points) plus one final report right
    before DONE, so the last snapshot the tree sees covers the whole
    run.  Telemetry rides in unsequenced TELEMETRY envelopes and never
    perturbs the DATA stream or its accounting.

    Pass a prebuilt ``site`` (e.g. restored with
    :func:`repro.io.checkpoint.load_site`) to continue an interrupted
    run; it is rewired onto this connection's sender and
    ``site_config`` / the site rng seed are ignored.

    ``history`` (a :class:`~repro.obs.history.ModelHistory`) attaches a
    pyramidal time-travel store to the site it builds; ignored when a
    prebuilt ``site`` is passed (a restored site carries its own).
    """
    observer = ensure_observer(observer)
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
    )
    sender = uplink.sender
    if federation is not None:
        federation.bind_uplink(
            lambda: sender.stats,
            codec_stats=lambda: uplink.codec_sender.stats,
        )
        federation.uplink_codec = wire_codec
    if site is None:
        site = RemoteSite(
            site_id,
            site_config,
            rng=np.random.default_rng(seed + site_id),
            emit=uplink.send,
            observer=observer,
            history=history,
        )
    else:
        if site.site_id != site_id:
            raise ValueError(
                f"restored site has id {site.site_id}, expected {site_id}"
            )
        site._emit = uplink.send

    processed = 0
    next_flush = loop.time() + telemetry_interval
    try:
        for record in records:
            site.process_record(record)
            processed += 1
            if processed % yield_every == 0:
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
