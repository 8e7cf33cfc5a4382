"""One aggregator process of a deployed §7 tree, over TCP.

:class:`AggregatorServer` accepts its children's connections -- sites
running :func:`~repro.transport.tcp.run_site_client`, or lower
aggregators -- and hands every payload to an
:class:`~repro.cluster.hop.AggregatorHop`, which absorbs it into the
node's coordinator.  When the node is not the root, the resulting
uploads (gated on :func:`~repro.cluster.hop.mixture_change`) are
forwarded to the parent aggregator over an *uplink*: a second TCP
connection carrying the same ``TPT1`` envelopes through the
:class:`~repro.transport.tcp.Uplink` a site process uses.  To its parent
an aggregator is indistinguishable from a site.

The flat coordinator is the root of a one-level tree: ``cludistream
serve`` runs this class around a root :class:`~repro.cluster.hop.InternalNode`,
so trees of any depth -- depth one included -- compose out of it.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Mapping

from repro.cluster.hop import AggregatorHop, InternalNode
from repro.core.serde import CodecConfig
from repro.obs.observer import Observer, ensure_observer
from repro.transport.clock import AsyncioClock
from repro.transport.framing import StreamDecoder
from repro.transport.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.tcp import _READ_CHUNK, Uplink

__all__ = ["AggregatorServer"]


class AggregatorServer:
    """Serves one §7 node over TCP, uplinking on change.

    Parameters
    ----------
    node:
        The :class:`~repro.cluster.hop.InternalNode` holding this
        aggregator's coordinator, upload gate and accounting.
    expected_children:
        Children that must report DONE before :meth:`wait_done`
        releases; ``None`` serves forever.
    level:
        This node's depth in the tree (root = 0); stamped on spans so
        per-level accounting survives aggregation.
    config:
        Reliability tuning (heartbeat staleness etc.).
    observer:
        Optional :class:`~repro.obs.observer.Observer` for the node, its
        receiver and its uplink.
    arq:
        Optional ARQ continuation state from
        :func:`repro.io.checkpoint.load_aggregator` -- restores the
        uplink's next sequence number and the children's receive
        cursors so a restarted aggregator keeps talking to peers that
        never went down.
    on_progress:
        Optional zero-arg callback invoked between envelopes while a
        handler works through a read batch.  One 64 KB read can hold
        dozens of synopses each costing an EM merge, starving asyncio
        timer tasks for many seconds -- anything that must keep a
        cadence while the loop is busy (the federated telemetry flush)
        hooks in here, with its own time gate.  May also be assigned
        after construction.
    uplink_wire_codec / uplink_codec_config:
        Codec spoken on the uplink edge to the parent.  The sender owns
        each edge's format: the node decodes whatever its children send
        (CDS1 or CDS2), so a mixed-codec tree just passes each node's
        spec values here.

    Telemetry from children reaches the hop's tap
    (:meth:`~repro.cluster.hop.AggregatorHop.on_telemetry`); route it
    with ``server.hop.federate(...)``.
    """

    def __init__(
        self,
        node: InternalNode,
        expected_children: int | None = None,
        level: int = 0,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
        arq: Mapping | None = None,
        on_progress=None,
        *,
        uplink_wire_codec: str = "cds1",
        uplink_codec_config: CodecConfig | None = None,
    ) -> None:
        self.node = node
        self.expected_children = expected_children
        self.config = config or ReliabilityConfig()
        self.on_progress = on_progress
        self._obs = ensure_observer(observer)
        self.hop = AggregatorHop(node, level, self._obs)
        self._arq = dict(arq) if arq is not None else None
        self._uplink_wire_codec = uplink_wire_codec
        self._uplink_codec_config = uplink_codec_config
        self.writers: dict[int, asyncio.StreamWriter] = {}
        self._server: asyncio.base_events.Server | None = None
        self._done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        self._closing = False

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        hop = self.hop
        hop.receiver = ReliableReceiver(
            deliver=hop.deliver,
            send_ack=self._send_ack,
            clock=AsyncioClock(asyncio.get_running_loop()),
            config=self.config,
            observer=self._obs,
            on_telemetry=hop.on_telemetry,
        )
        hop.restore_cursors(self._arq)
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        """The actually bound TCP port."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    @property
    def receiver(self) -> ReliableReceiver | None:
        """The children's ARQ receiver, once :meth:`start` built it."""
        return self.hop.receiver

    @property
    def uplink(self) -> ReliableSender | None:
        return self.hop.uplink

    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return self.hop.arq_state()

    async def wait_done(self, timeout: float | None = None) -> bool:
        """Wait until all expected children completed; ``False`` on timeout."""
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def stale_sites(self, stale_after: float | None = None) -> tuple[int, ...]:
        """Children silent beyond the staleness timeout."""
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
        if self.hop.edge is not None:
            await self.hop.edge.close()

    # ------------------------------------------------------------------
    # Uplink to the parent aggregator
    # ------------------------------------------------------------------
    async def connect_uplink(self, host: str, port: int, seed: int = 0) -> None:
        """Open the parent connection; uploads flow once connected."""
        if self.node.parent_id is None:
            raise ValueError("root aggregator has no parent to connect to")
        first_seq = 1
        if self._arq is not None:
            first_seq = int(self._arq.get("uplink_next_seq", 1))
        self.hop.edge = uplink = await Uplink.connect(
            self.node.node_id,
            host,
            port,
            config=self.config,
            seed=seed,
            observer=self._obs,
            wire_codec=self._uplink_wire_codec,
            codec_config=self._uplink_codec_config,
            first_seq=first_seq,
        )
        self.hop.forward = uplink.send

    async def finish_uplink(self, drain_timeout: float = 60.0) -> None:
        """Drain unacked uploads, send DONE upward, half-close the
        uplink (:meth:`repro.transport.tcp.Uplink.finish`)."""
        if self.hop.edge is not None:
            await self.hop.edge.finish(drain_timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if (
            self.expected_children is not None
            and self.receiver is not None
            and self.receiver.all_done(self.expected_children)
        ):
            self._done.set()

    def _send_ack(self, child_id: int, data: bytes) -> None:
        writer = self.writers.get(child_id)
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
                # Check completion BEFORE draining acks: a child may
                # close its socket right after DONE, making the drain
                # raise -- the DONE is already registered by then and
                # must still release wait_done().
                self._check_done()
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            self._check_done()
        except Exception:  # noqa: BLE001  -- a dead handler stops acks
            # A handler that dies silently strands every child on this
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
