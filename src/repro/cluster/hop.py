"""The §7 node: one internal node between its children and its parent.

"A more complex and general distributed streams scenario is the
tree-structured hierarchy of the communication network.  By running the
CluDistream between each internal node and its children, we can compute
the Gaussian mixture model over the union of streams on the leaf nodes."

The tree is one site -> coordinator hop applied recursively, so the node
exists once.  :class:`InternalNode` is its semantics: what it absorbs,
when it uploads, what the upload is.  :class:`AggregatorHop` is that
node on the wire.  Whichever link carried a child's payload,
:class:`~repro.cluster.tree.TransportTree` (in-process transport edges;
:class:`~repro.runtime.channel.TransportChannel` is its depth-1 case)
and :class:`~repro.cluster.aggregator.AggregatorServer` (one OS process
per node over TCP) build its receiver with :meth:`AggregatorHop.listen`,
so every payload is decoded and applied in :meth:`AggregatorHop.deliver`
-- a flat coordinator being the root of a one-level tree.  Both also
route the node's telemetry through it and checkpoint their edges with
:meth:`AggregatorHop.arq_state`.

Node ids double as message ``site_id`` values on each hop, so the
standard :mod:`repro.core.protocol` vocabulary and byte accounting work
unchanged on every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.coordinator import Coordinator
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message, ModelUpdateMessage
from repro.core.serde import CDS2Codec
from repro.obs.federation import (
    FederationCollector,
    FederationPublisher,
    TelemetryRelay,
)
from repro.obs.observer import Observer
from repro.transport.reliability import ReliableReceiver, ReliableSender

if TYPE_CHECKING:
    from repro.transport.clock import Clock
    from repro.transport.endpoint import SiteEndpoint
    from repro.transport.reliability import ReliabilityConfig

__all__ = ["AggregatorHop", "InternalNode", "mixture_change"]

#: The one ``model_id`` an internal node's summaries travel under.
SUMMARY_MODEL_ID = 0


def _mean_gap(a: Gaussian, b: Gaussian) -> float:
    """``np.linalg.norm(a.mean - b.mean)``: its ``sqrt(v·v)``, undispatched."""
    gap = a.mean - b.mean
    return math.sqrt(gap.dot(gap))


def mixture_change(old: GaussianMixture | None, new: GaussianMixture) -> float:
    """A cheap change score between two mixtures.

    Component counts differing scores ``inf`` (a structural change
    always uploads).  Otherwise components are greedily matched by mean
    distance and the score is the largest matched symmetric Mahalanobis
    distance plus the total weight shift -- zero for identical models.
    """
    if old is None or old.n_components != new.n_components:
        return float("inf")
    remaining = list(range(new.n_components))
    worst = 0.0
    weight_shift = 0.0
    for i, old_component in enumerate(old.components):
        best_j = min(
            remaining,
            key=lambda j: _mean_gap(old_component, new.components[j]),
        )
        remaining.remove(best_j)
        worst = max(
            worst,
            old_component.symmetric_mahalanobis_sq(new.components[best_j]),
        )
        weight_shift += abs(old.weights[i] - new.weights[best_j])
    return worst + weight_shift


@dataclass
class InternalNode:
    """An internal node: coordinator over children, site toward parent.

    Attributes
    ----------
    node_id:
        Used as the ``site_id`` on messages sent up to the parent.
    coordinator:
        Aggregates the children's synopses.
    parent_id:
        ``None`` at the root, which applies its children's messages and
        uploads nothing.
    upload_threshold:
        Minimal :func:`mixture_change` score that triggers an upload;
        ``0.0`` uploads on every observable change.

    An upload is the *cumulative* summary of the node's subtree, so it
    replaces the previous one: every upload goes up under the same
    ``(node_id, SUMMARY_MODEL_ID)`` key and the parent's model-update
    path swaps the old leaves for the new ones.  A parent therefore
    holds one site model per child, and its mass is the sum of its
    children's current masses.
    """

    node_id: int
    coordinator: Coordinator
    parent_id: int | None = None
    upload_threshold: float = 0.05
    _last_uploaded: GaussianMixture | None = field(default=None, repr=False)
    messages_up: int = 0
    bytes_up: int = 0

    def handle_child_message(self, message: Message) -> list[Message]:
        """Absorb a child's message; maybe emit an upload to the parent."""
        self.coordinator.handle_message(message)
        if self.parent_id is None:
            return []
        try:
            summary = self.coordinator.global_mixture()
        except ValueError:
            return []
        if mixture_change(self._last_uploaded, summary) < self.upload_threshold:
            return []
        self._last_uploaded = summary
        upload = ModelUpdateMessage(
            site_id=self.node_id,
            model_id=SUMMARY_MODEL_ID,
            time=message.time,
            mixture=summary,
            count=max(1, round(sum(c.weight for c in self.coordinator.clusters))),
            reference_likelihood=0.0,
        )
        self.messages_up += 1
        self.bytes_up += upload.payload_bytes()
        return [upload]


@dataclass
class AggregatorHop:
    """An :class:`InternalNode` on the wire.

    ``level`` is the node's depth (root = 0), stamped on its spans;
    ``decoder`` reads its children's payloads, CDS1 or CDS2 (each
    child's sender picks), with a per-child baseline cache;
    ``receiver`` is their ARQ receiver, once it exists.  ``edge`` is the
    :class:`~repro.transport.endpoint.SiteEndpoint` toward the parent
    (in process, or inside a TCP :class:`~repro.transport.tcp.Uplink`)
    and ``forward`` the call that ships one upload through it -- both
    ``None`` at the root, and on a deployed aggregator until its parent
    connection is up (uploads made before that are gated and counted,
    not sent).

    A federated node (:meth:`federate`) also holds its telemetry
    routing: its ``publisher``, and a ``relay`` for its children's
    reports -- or, at the root, the ``collector`` they end in.
    """

    node: InternalNode
    level: int
    observer: Observer
    decoder: CDS2Codec = field(default_factory=CDS2Codec, init=False)
    receiver: ReliableReceiver | None = None
    edge: SiteEndpoint | None = None
    forward: Callable[[Message], None] | None = None
    publisher: FederationPublisher | None = None
    relay: TelemetryRelay | None = None
    collector: FederationCollector | None = None

    @property
    def uplink(self) -> ReliableSender | None:
        """The ARQ sender toward the parent (``None`` without an edge)."""
        return self.edge.sender if self.edge is not None else None

    def listen(
        self, send_ack, clock: Clock, config: ReliabilityConfig | None = None
    ) -> ReliableReceiver:
        """Build the children's ARQ :attr:`receiver`, delivering into
        this hop; the caller binds its link to it."""
        self.receiver = ReliableReceiver(
            deliver=self.deliver,
            send_ack=send_ack,
            clock=clock,
            config=config,
            observer=self.observer,
            on_telemetry=self.on_telemetry,
        )
        return self.receiver

    def deliver(self, child_id: int, payload: bytes, trace=None) -> None:
        """Absorb one child payload; forward what the node uploads.

        Decoding is timed into ``profile.serde_decode``.  Aggregation
        runs in a ``cluster.aggregate`` span that adopts the context the
        envelope carried and is re-propagated by ``forward``, so a chunk
        test at a leaf, the aggregation at its gateway and the merge at
        the root land on one causally linked trace.
        """
        obs = self.observer
        with obs.timer("profile.serde_decode"):
            message = self.decoder.decode(payload)
        with obs.remote_parent(trace):
            with obs.span(
                "cluster.aggregate",
                node=self.node.node_id,
                child=child_id,
                level=self.level,
            ):
                uploads = self.node.handle_child_message(message)
                if self.forward is not None:
                    for upload in uploads:
                        self.forward(upload)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def gauges(self) -> dict:
        """The node gauges every report and snapshot carries."""
        node = self.node
        return {
            "messages_up": node.messages_up,
            "bytes_up": node.bytes_up,
            "components": node.coordinator.n_components,
        }

    def federate(
        self, collector: FederationCollector | None = None, **probes
    ) -> FederationPublisher:
        """Give the node its telemetry routing and publisher.

        The root ingests into ``collector``; any other node relays its
        children's reports.  ``probes`` are further
        :class:`~repro.obs.federation.FederationPublisher` arguments
        (``health``, ``endpoints``...); its ``uplink`` is :attr:`edge`.
        """
        if self.node.parent_id is None:
            self.collector = collector
        else:
            self.relay = TelemetryRelay()
        self.publisher = FederationPublisher(
            self.node.node_id,
            "aggregator",
            self.level,
            uplink=lambda: self.edge,
            gauges=self.gauges,
            **probes,
        )
        return self.publisher

    def on_telemetry(self, _child_id: int, payload: bytes) -> None:
        """The receiver's TELEMETRY tap: a child's report goes to the
        collector at the root and to the relay everywhere else."""
        if self.collector is not None:
            self.collector.ingest(payload)
        elif self.relay is not None:
            self.relay.add(payload)

    def flush_telemetry(self) -> int:
        """Ship one round of reports; returns the payloads sent.

        The root ingests its own report.  Any other node forwards its
        relayed payloads first and then its own report -- once its edge
        is up.
        """
        assert self.publisher is not None
        if self.collector is not None:
            self.collector.ingest_report(self.publisher.collect_report())
            return 0
        uplink = self.uplink
        if uplink is None:
            return 0
        relayed = self.relay.drain() if self.relay is not None else []
        for payload in relayed:
            uplink.send_telemetry(payload)
        # Collected after the relay went out: the report's uplink stats
        # count those bytes.
        uplink.send_telemetry(self.publisher.collect())
        return len(relayed) + 1

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return {
            "uplink_next_seq": (
                self.uplink.last_seq + 1 if self.uplink is not None else 1
            ),
            "cursors": (
                self.receiver.cursor_snapshot()
                if self.receiver is not None
                else {}
            ),
        }

    def restore_cursors(self, arq: Mapping | None) -> None:
        """Resume the children's cursors recorded by :meth:`arq_state`,
        so replayed child streams are suppressed as duplicates."""
        assert self.receiver is not None
        if arq is not None:
            for child_id, expected in arq.get("cursors", {}).items():
                self.receiver.restore_cursor(int(child_id), int(expected))
