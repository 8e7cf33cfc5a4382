"""One aggregator process of a deployed §7 tree.

:class:`AggregatorServer` is a :class:`~repro.transport.tcp.CoordinatorServer`
whose delivery path is an :class:`~repro.cluster.hop.AggregatorHop`
instead of a bare coordinator: every child payload is absorbed into the
node's local coordinator, and -- when the node is not the root -- the
resulting uploads (gated on :func:`~repro.multilayer.tree.mixture_change`)
are forwarded to the parent aggregator over an *uplink*: a second TCP
connection carrying the same ``TPT1`` envelopes through the
:class:`~repro.transport.tcp.Uplink` a site process uses.  To its parent an
aggregator is indistinguishable from a site; to its children it is
indistinguishable from the flat coordinator.  That symmetry is the whole
deployment story: trees of any depth compose out of this one class.
"""

from __future__ import annotations

from typing import Mapping

from repro.cluster.hop import AggregatorHop
from repro.core.serde import CodecConfig
from repro.multilayer.tree import InternalNode
from repro.obs.observer import Observer
from repro.transport.reliability import ReliabilityConfig, ReliableSender
from repro.transport.tcp import CoordinatorServer, Uplink
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
        self._uplink: Uplink | None = None

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
        first_seq = 1
        if self._arq is not None:
            first_seq = int(self._arq.get("uplink_next_seq", 1))
        self._uplink = uplink = await Uplink.connect(
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
        self._hop.uplink = uplink.sender
        self._hop.forward = uplink.send

    @property
    def uplink(self) -> ReliableSender | None:
        return self._hop.uplink

    @property
    def uplink_codec(self) -> CodecSender | None:
        return self._uplink.codec_sender if self._uplink is not None else None

    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return self._hop.arq_state()

    async def finish_uplink(self, drain_timeout: float = 60.0) -> None:
        """Drain unacked uploads, send DONE upward, half-close the
        uplink (:meth:`repro.transport.tcp.Uplink.finish`)."""
        if self._uplink is not None:
            await self._uplink.finish(drain_timeout)

    async def close(self) -> None:
        await super().close()
        if self._uplink is not None:
            await self._uplink.close()

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
