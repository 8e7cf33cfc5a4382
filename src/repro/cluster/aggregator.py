"""One aggregator process of a deployed §7 tree.

:class:`AggregatorServer` is a :class:`~repro.transport.tcp.CoordinatorServer`
whose delivery path is an :class:`~repro.cluster.hop.AggregatorHop`
instead of a bare coordinator: every child payload is absorbed into the
node's local coordinator, and -- when the node is not the root -- the
resulting uploads (gated on :func:`~repro.multilayer.tree.mixture_change`)
are forwarded to the parent aggregator over an *uplink*: a second TCP
connection carrying the same ``TPT1`` envelopes through a
:class:`~repro.transport.reliability.ReliableSender`.  To its parent an
aggregator is indistinguishable from a site; to its children it is
indistinguishable from the flat coordinator.  That symmetry is the whole
deployment story: trees of any depth compose out of this one class.
"""

from __future__ import annotations

import asyncio
from typing import Mapping

import numpy as np

from repro.cluster.hop import AggregatorHop
from repro.core.serde import CodecConfig, get_codec
from repro.multilayer.tree import InternalNode
from repro.obs.observer import Observer
from repro.transport.clock import AsyncioClock
from repro.transport.framing import StreamDecoder
from repro.transport.reliability import ReliabilityConfig, ReliableSender
from repro.transport.tcp import CoordinatorServer, _READ_CHUNK
from repro.transport.wire import CodecSender

__all__ = ["AggregatorServer"]


class AggregatorServer(CoordinatorServer):
    """Serves an internal tree node over TCP, uplinking on change.

    Parameters
    ----------
    node:
        The :class:`~repro.multilayer.tree.InternalNode` holding this
        aggregator's coordinator, upload gate and accounting.
    expected_children:
        Children that must report DONE before :meth:`wait_done`
        releases; ``None`` serves forever.
    level:
        This node's depth in the tree (root = 0); stamped on spans and
        health gauges so per-level accounting survives aggregation.
    config / observer:
        As for :class:`~repro.transport.tcp.CoordinatorServer`.
    arq:
        Optional ARQ continuation state from
        :func:`repro.io.checkpoint.load_aggregator` -- restores the
        uplink's next sequence number and the children's receive
        cursors so a restarted aggregator keeps talking to peers that
        never went down.
    on_telemetry:
        Optional ``(child_id, payload)`` tap for TELEMETRY envelopes
        from children -- feeds the federation relay (interior nodes) or
        collector (root).
    wire_codec / codec_config:
        Codec for *downlink* payloads from children (as for
        :class:`~repro.transport.tcp.CoordinatorServer`).
    uplink_wire_codec / uplink_codec_config:
        Codec spoken on the uplink edge to the parent -- the two ends of
        every edge negotiate independently, so a mixed-codec tree just
        passes each node's spec values here.
    """

    def __init__(
        self,
        node: InternalNode,
        expected_children: int | None = None,
        level: int = 0,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
        arq: Mapping | None = None,
        on_telemetry=None,
        *,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
        uplink_wire_codec: str = "cds1",
        uplink_codec_config: CodecConfig | None = None,
    ) -> None:
        super().__init__(
            node.coordinator,
            expected_sites=expected_children,
            config=config,
            observer=observer,
            on_telemetry=on_telemetry,
            wire_codec=wire_codec,
            codec_config=codec_config,
        )
        self.node = node
        self.level = level
        self._hop = AggregatorHop(node, level, self.codec, self._obs)
        self._arq = dict(arq) if arq is not None else None
        self._uplink_wire_codec = uplink_wire_codec
        self._uplink_codec_config = uplink_codec_config
        self._uplink_codec: CodecSender | None = None
        self._uplink_writer: asyncio.StreamWriter | None = None
        self._ack_task: asyncio.Task | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await super().start(host, port)
        self._hop.receiver = self.receiver
        self._hop.restore_cursors(self._arq)

    # ------------------------------------------------------------------
    # Uplink to the parent aggregator
    # ------------------------------------------------------------------
    async def connect_uplink(self, host: str, port: int, seed: int = 0) -> None:
        """Open the parent connection; uploads flow once connected."""
        if self.node.parent_id is None:
            raise ValueError("root aggregator has no parent to connect to")
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(host, port)
        first_seq = 1
        if self._arq is not None:
            first_seq = int(self._arq.get("uplink_next_seq", 1))
        self._uplink_writer = writer
        uplink = ReliableSender(
            site_id=self.node.node_id,
            transmit=writer.write,
            clock=AsyncioClock(loop),
            config=self.config,
            rng=np.random.default_rng(seed + 70_000 + self.node.node_id),
            observer=self._obs,
            first_seq=first_seq,
        )
        self._uplink_codec = codec_sender = CodecSender(
            uplink,
            get_codec(self._uplink_wire_codec, self._uplink_codec_config),
        )
        self._hop.uplink = uplink
        self._hop.forward = lambda upload: codec_sender.send(
            upload, trace=self._obs.span_context()
        )

        async def pump_acks() -> None:
            decoder = StreamDecoder()
            try:
                while True:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return
                    for envelope in decoder.feed(chunk):
                        uplink.handle_envelope(envelope)
            except (ConnectionResetError, OSError):
                # Parent went away; finish_uplink notices the dead pump
                # and reports the loss instead of draining forever.
                return

        self._ack_task = asyncio.ensure_future(pump_acks())

    @property
    def uplink(self) -> ReliableSender | None:
        return self._hop.uplink

    @property
    def uplink_codec(self) -> CodecSender | None:
        return self._uplink_codec

    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return self._hop.arq_state()

    async def finish_uplink(self, drain_timeout: float = 60.0) -> None:
        """Drain unacked uploads, send DONE upward, close the uplink."""
        uplink = self.uplink
        if uplink is None:
            return
        if self._uplink_codec is not None:
            self._uplink_codec.flush()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        while uplink.outstanding() > 0:
            if self._ack_task is not None and self._ack_task.done():
                raise ConnectionError(
                    f"aggregator {self.node.node_id}: parent connection "
                    f"lost with {uplink.outstanding()} uploads "
                    "unacknowledged"
                )
            if loop.time() > deadline:
                raise TimeoutError(
                    f"aggregator {self.node.node_id}: "
                    f"{uplink.outstanding()} uploads unacknowledged"
                )
            await asyncio.sleep(0.02)
        uplink.send_done()
        assert self._uplink_writer is not None
        await self._uplink_writer.drain()
        # Same reset hazard as the site client: closing with unread
        # acks pending turns into an RST that can destroy the DONE in
        # the parent's receive queue.  Half-close (FIN ordered after
        # DONE) and linger until the parent closes its side.
        uplink.close()
        try:
            self._uplink_writer.write_eof()
            if self._ack_task is not None:
                await asyncio.wait_for(self._ack_task, drain_timeout)
        except (OSError, RuntimeError, asyncio.TimeoutError):
            pass

    async def close(self) -> None:
        await super().close()
        if self.uplink is not None:
            self.uplink.close()
        if self._ack_task is not None:
            self._ack_task.cancel()
            await asyncio.gather(self._ack_task, return_exceptions=True)
        if self._uplink_writer is not None:
            self._uplink_writer.close()
            try:
                await self._uplink_writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    # ------------------------------------------------------------------
    # Delivery: child payload -> node -> (maybe) parent
    # ------------------------------------------------------------------
    def _deliver(self, child_id: int, payload: bytes, trace=None) -> None:
        self._hop.deliver(child_id, payload, trace)
        obs = self._obs
        obs.gauge_set(
            "cluster.node_messages_up",
            float(self.node.messages_up),
            node=self.node.node_id,
            level=self.level,
        )
        obs.gauge_set(
            "cluster.node_bytes_up",
            float(self.node.bytes_up),
            node=self.node.node_id,
            level=self.level,
        )
