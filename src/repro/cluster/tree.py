"""The §7 tree over the real transport stack, in one process.

:class:`TransportTree` is the paper's tree-structured network: every
internal node (:class:`~repro.cluster.hop.InternalNode`) runs
coordinator merge/split over its children and uploads to its parent only
on :func:`~repro.cluster.hop.mixture_change`.  Every tree edge is a
real :mod:`repro.transport` link -- a
:class:`~repro.transport.endpoint.SiteEndpoint` per child (the edge a
TCP :class:`~repro.transport.tcp.Uplink` wraps too), a
:class:`~repro.transport.reliability.ReliableReceiver` per aggregator
delivering into the one :class:`~repro.cluster.hop.AggregatorHop`, and
optional seeded fault injection per subnet.  Over loopback (the default)
delivery is synchronous and the tree is simply the in-memory §7 network.
The same object therefore backs four jobs:

* :class:`~repro.runtime.channel.TransportChannel`: a depth-1 tree over
  the caller's link, rooted at the runtime's own coordinator with its
  sites as leaves (``attach_internal`` / ``attach_leaf``);
* the §7 tree suite (loopback and lossy links must produce the same
  results);
* the aggregator crash/resume suite (an internal node is snapshotted
  with its ARQ edge state and rebuilt mid-run);
* the 1000-site soak harness (:mod:`repro.cluster.soak`), which needs
  per-level byte accounting straight off the wire.

Each aggregator owns one *subnet*: the transport instance its children
(sites or lower aggregators) send into and get their acks from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from repro.cluster.hop import AggregatorHop, InternalNode
from repro.cluster.spec import aggregator_rng
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.io.checkpoint import restore_aggregator, snapshot_aggregator
from repro.obs.federation import (
    FederationCollector,
    FederationPublisher,
    level_rollup,
    uplink_report,
)
from repro.obs.observer import Observer, ensure_observer
from repro.transport.base import DatagramTransport
from repro.transport.clock import ManualClock
from repro.transport.endpoint import SiteEndpoint
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig

__all__ = ["LevelStats", "TransportTree"]


@dataclass(frozen=True)
class LevelStats:
    """Wire accounting of all edges whose child sits at one tree level.

    ``bytes_per_record`` divides the level's wire bytes by the total
    records fed into the tree -- the §6 communication gauge, split by
    hop so a deployment can see where its upload budget actually goes.
    ``codecs`` lists the wire codecs spoken on this level's edges;
    ``delta_hit_rate`` is the fraction of model updates that shipped as
    CDS2 deltas and ``bytes_saved`` the payload bytes the codec layer
    avoided versus always-snapshot encoding.  Built by
    :func:`~repro.obs.federation.level_rollup`, the same rollup behind
    ``/cluster/health`` ``levels``.
    """

    level: int
    edges: int
    messages: int
    payload_bytes: int
    wire_bytes: int
    retransmissions: int
    bytes_per_record: float
    codecs: tuple[str, ...] = ()
    delta_hit_rate: float = 0.0
    bytes_saved: int = 0

    def as_dict(self) -> dict:
        return {**asdict(self), "codecs": list(self.codecs)}


@dataclass(kw_only=True)
class _InternalWiring(AggregatorHop):
    """The hop plus what the in-process tree keeps around it."""

    #: The subnet this aggregator's children send into.
    transport: DatagramTransport


@dataclass
class _LeafWiring:
    site: RemoteSite
    level: int
    endpoint: SiteEndpoint
    publisher: FederationPublisher | None = None

    def flush_telemetry(self) -> int:
        self.endpoint.sender.send_telemetry(self.publisher.collect())
        return 1


class TransportTree:
    """A communication tree whose every edge is a transport link.

    Build the topology with :meth:`add_internal` / :meth:`add_leaf`
    (parents must exist before their children), then feed leaf streams
    through :meth:`feed`; :meth:`global_mixture` is the root's view of
    the union of all leaf streams.

    Parameters
    ----------
    site_config / coordinator_config / seed:
        Templates for leaf sites and internal coordinators.
    reliability:
        ARQ tuning shared by every edge; the default disables jitter so
        a seeded lossy run stays deterministic.
    faults:
        Optional :class:`~repro.transport.lossy.FaultConfig` applied to
        every subnet (each aggregator's subnet gets its own
        deterministic fault stream derived from ``seed``).  ``None``
        runs over loopback: synchronous, loss-free, nothing in flight.
    clock:
        Shared :class:`~repro.transport.clock.ManualClock`; owned by the
        tree when omitted.
    observer:
        Optional observer shared by all senders/receivers; aggregation
        emits ``cluster.aggregate`` spans causally linked across hops.
    federate:
        Give every node a :class:`~repro.obs.federation.FederationPublisher`,
        every other aggregator a relay, and the root a
        :class:`~repro.obs.federation.FederationCollector` (exposed as
        :attr:`federation`).  :meth:`flush_telemetry` then ships a round
        of reports up the same transport edges -- in TELEMETRY
        envelopes, outside the ARQ window, so :meth:`level_stats` stays
        identical to a non-federated run.
    """

    def __init__(
        self,
        site_config: RemoteSiteConfig | None = None,
        coordinator_config: CoordinatorConfig | None = None,
        seed: int = 0,
        reliability: ReliabilityConfig | None = None,
        faults: FaultConfig | None = None,
        clock: ManualClock | None = None,
        observer: Observer | None = None,
        federate: bool = False,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
    ) -> None:
        self._site_config = site_config or RemoteSiteConfig()
        self._coordinator_config = coordinator_config or CoordinatorConfig()
        self._seed = seed
        self._wire_codec = wire_codec
        self._codec_config = codec_config
        self._reliability = reliability or ReliabilityConfig(
            jitter=0.0, heartbeat_interval=None
        )
        self._faults = faults
        self.clock = clock or ManualClock()
        self._obs = ensure_observer(observer)
        self._internals: dict[int, _InternalWiring] = {}
        self._leaves: dict[int, _LeafWiring] = {}
        #: Every uplink edge, leaf or aggregator: what a drain scans.
        self._endpoints: list[SiteEndpoint] = []
        self._root_id: int | None = None
        #: A message entered an edge since a drain last returned.  While
        #: clear, every outbox is known to be empty.
        self._unsettled = False
        self.records_fed = 0
        self._federate = federate
        #: Root-side collector (``federate=True`` only); drives the same
        #: rollup the deployed root serves at ``/cluster/health``.
        self.federation: FederationCollector | None = None
        if federate:
            self.federation = FederationCollector(
                clock=lambda: self.clock.now
            )

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec,
        faults: FaultConfig | None = None,
        observer: Observer | None = None,
    ) -> "TransportTree":
        """Instantiate a :class:`~repro.cluster.spec.ClusterSpec` in-process."""
        tree = cls(
            site_config=spec.site_config(),
            coordinator_config=spec.coordinator_config(),
            seed=spec.seed,
            faults=faults,
            observer=observer,
            wire_codec=spec.wire_codec,
            codec_config=spec.codec_config(),
        )
        for agg in spec.aggregators:
            tree.add_internal(
                agg.node_id,
                parent_id=agg.parent_id,
                upload_threshold=spec.upload_threshold,
            )
        for site in spec.site_nodes:
            tree.add_leaf(site.node_id, site.parent_id)
        return tree

    def add_internal(
        self,
        node_id: int,
        parent_id: int | None = None,
        upload_threshold: float = 0.05,
    ) -> InternalNode:
        """Add an aggregator; ``parent_id=None`` makes it the root."""
        node = InternalNode(
            node_id=node_id,
            coordinator=Coordinator(
                self._coordinator_config,
                rng=aggregator_rng(self._seed, node_id),
                observer=self._obs,
            ),
            parent_id=parent_id,
            upload_threshold=upload_threshold,
        )
        self.attach_internal(node, self._make_subnet(node_id))
        return node

    def add_leaf(self, node_id: int, parent_id: int) -> RemoteSite:
        """Add a leaf site under an aggregator; returns the site."""
        site = RemoteSite(
            site_id=node_id,
            config=self._site_config,
            rng=np.random.default_rng(self._seed + node_id),
            observer=self._obs,
        )
        self.attach_leaf(site, parent_id)
        return site

    def attach_internal(
        self, node: InternalNode, transport: DatagramTransport
    ) -> AggregatorHop:
        """Wire a built aggregator whose children send into ``transport``
        (its subnet); returns its hop."""
        node_id, parent_id = node.node_id, node.parent_id
        self._check_new_id(node_id)
        if parent_id is None:
            if self._root_id is not None:
                raise ValueError("tree already has a root")
            level = 0
            self._root_id = node_id
        else:
            level = self._require_internal(parent_id).level + 1
        wiring = _InternalWiring(
            node=node, level=level, observer=self._obs, transport=transport
        )
        if self._federate:
            assert self.federation is not None
            self.federation.add_topology_node(
                node_id, "aggregator", level, parent_id
            )
            wiring.federate(self.federation)
        self._listen(wiring)
        if parent_id is not None:
            self._connect_uplink(wiring)
        self._internals[node_id] = wiring
        return wiring

    def attach_leaf(self, site: RemoteSite, parent_id: int) -> SiteEndpoint:
        """Wire a built site under an aggregator; returns its edge."""
        node_id = site.site_id
        self._check_new_id(node_id)
        parent = self._require_internal(parent_id)
        endpoint = self._make_endpoint(node_id, parent)
        site._emit = self._marking(endpoint.send)
        wiring = _LeafWiring(site, parent.level + 1, endpoint)
        if self._federate:
            assert self.federation is not None
            self.federation.add_topology_node(
                node_id, "site", wiring.level, parent_id
            )
            wiring.publisher = FederationPublisher(
                node_id,
                "site",
                wiring.level,
                uplink=lambda: endpoint,
                records=lambda s=site: s.stats.records_seen,
                gauges=lambda s=site: {"models": len(s.all_models)},
            )
        self._leaves[node_id] = wiring
        return endpoint

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> InternalNode:
        if self._root_id is None:
            raise ValueError("tree has no root")
        return self._internals[self._root_id].node

    @property
    def internals(self) -> tuple[InternalNode, ...]:
        return tuple(w.node for w in self._internals.values())

    @property
    def sites(self) -> tuple[RemoteSite, ...]:
        return tuple(w.site for w in self._leaves.values())

    @property
    def depth(self) -> int:
        """Deepest level in the tree (root = 0)."""
        levels = [w.level for w in self._internals.values()]
        levels += [w.level for w in self._leaves.values()]
        return max(levels, default=0)

    def global_mixture(self) -> GaussianMixture:
        """The root's view of the union of all leaf streams."""
        return self.root.coordinator.global_mixture()

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def feed(self, leaf_id: int, record: np.ndarray) -> None:
        """Deliver one record to a leaf; uploads ride the transport."""
        leaf = self._leaves.get(leaf_id)
        if leaf is None:
            raise KeyError(f"unknown leaf {leaf_id}")
        leaf.site.process_record(record)
        self.records_fed += 1
        # With every outbox empty a drain advances nothing.
        if self._faults is not None and self._unsettled:
            self.drain()

    def drain(self, step: float = 0.25, limit: float = 600.0) -> float:
        """Advance the clock until every edge's outbox is empty."""
        return self._settle(step, limit)

    def close(self) -> None:
        """Cancel timers and close the subnets."""
        for wiring in self._leaves.values():
            wiring.site._emit = None
        for endpoint in self._endpoints:
            endpoint.close()
        for wiring in self._internals.values():
            wiring.transport.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_uplink_bytes(self) -> int:
        """Application bytes crossing all tree edges (leaf + internal)."""
        leaf_bytes = sum(
            w.site.stats.bytes_sent for w in self._leaves.values()
        )
        internal_bytes = sum(
            w.node.bytes_up for w in self._internals.values()
        )
        return leaf_bytes + internal_bytes

    def level_stats(self) -> tuple[LevelStats, ...]:
        """Per-level wire accounting, level 1 (root's children) down."""
        edges = []
        for endpoint in self._endpoints:
            node_id = endpoint.site_id
            wiring = self._leaves.get(node_id) or self._internals[node_id]
            edges.append((wiring.level, uplink_report(endpoint)))
        return tuple(
            LevelStats(
                codecs=tuple(entry.pop("codecs")),
                **{k: v for k, v in entry.items() if k != "telemetry_bytes"},
            )
            for entry in level_rollup(edges, self.records_fed)
        )

    def receiver_stats(self, node_id: int):
        """Delivery counters of one aggregator's subnet receiver."""
        return self._require_internal(node_id).receiver.stats

    # ------------------------------------------------------------------
    # Telemetry federation
    # ------------------------------------------------------------------
    def flush_telemetry(self) -> int:
        """One round of federated reports up the tree; returns sends.

        Deepest level first: every leaf ships its report, then each
        interior aggregator forwards whatever its relay holds plus its
        own report, the root last (ingesting its own report directly).
        On loopback delivery is synchronous, so a single round lands
        every node's report at the root; under fault injection telemetry
        is subject to the same loss/delay as data -- advance the clock
        and flush again until the collector converges (reports are
        idempotent snapshots, so re-sends never double count).
        """
        if not self._federate:
            raise ValueError("tree was not built with federate=True")
        assert self.federation is not None
        nodes = sorted(
            [*self._leaves.values(), *self._internals.values()],
            key=lambda w: (-w.level, isinstance(w, AggregatorHop)),
        )
        return sum(wiring.flush_telemetry() for wiring in nodes)

    # ------------------------------------------------------------------
    # Crash / resume of one aggregator
    # ------------------------------------------------------------------
    def aggregator_snapshot(self, node_id: int) -> dict:
        """Checkpoint one aggregator including its ARQ edge state."""
        wiring = self._require_internal(node_id)
        return snapshot_aggregator(wiring.node, arq=wiring.arq_state())

    def restore_aggregator(self, payload: Mapping) -> InternalNode:
        """Rebuild one aggregator in place from a snapshot (crash path).

        Everything in the node's memory is discarded -- coordinator,
        upload gate, receiver -- and replaced by the checkpointed state;
        the subnet transport and the surviving peers (children's
        senders, the parent's receiver cursor) are left untouched,
        exactly like a process restart on a live deployment.  The
        restored receiver resumes the recorded per-child cursors and
        the restored uplink continues the recorded sequence numbers.
        """
        node_id = payload["node_id"]
        wiring = self._require_internal(node_id)
        node, arq = restore_aggregator(payload, observer=self._obs)
        wiring.node = node
        self._listen(wiring)
        wiring.restore_cursors(arq)
        if wiring.edge is not None:
            wiring.edge.close()
            self._endpoints.remove(wiring.edge)
            # The rebuilt codec sender starts without delta baselines, so
            # its first uploads go out as full snapshots -- exactly the
            # safe behaviour after losing in-memory codec state.
            self._connect_uplink(
                wiring,
                first_seq=arq["uplink_next_seq"] if arq is not None else 1,
            )
        return node

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _marking(self, send):
        """``send`` as an emit hook that notes there is something to drain."""

        def emit(message: Message) -> None:
            self._unsettled = True
            send(message)

        return emit

    def _settle(self, step: float, limit: float) -> float:
        """Advance the clock until every edge's outbox is empty.

        Only a drain that returns clears the mark: one that raises (a
        dead link) leaves it set.  :meth:`drain` and
        :class:`~repro.runtime.channel.TransportChannel` settle here.
        """
        # Resolved on its module per call, where the e2e benchmark's
        # recorder patches it.
        from repro.transport.endpoint import drain

        spent = drain(self.clock, self._endpoints, step=step, limit=limit)
        self._unsettled = False
        return spent

    def _make_subnet(self, node_id: int) -> DatagramTransport:
        transport: DatagramTransport = LoopbackTransport()
        if self._faults is not None:
            transport = LossyTransport(
                transport,
                self.clock,
                self._faults,
                seed=self._seed + 90_000 + node_id,
                observer=self._obs,
            )
        return transport

    def _listen(self, wiring: _InternalWiring) -> None:
        """Give an aggregator its children's receiver on its subnet."""
        receiver = wiring.listen(
            wiring.transport.send_to_site, self.clock, self._reliability
        )
        wiring.transport.bind_coordinator(receiver.handle_datagram)

    def _make_endpoint(
        self,
        node_id: int,
        parent: _InternalWiring,
        first_seq: int = 1,
    ) -> SiteEndpoint:
        """The edge from ``node_id`` up into ``parent``'s subnet."""
        subnet = parent.transport
        endpoint = SiteEndpoint(
            node_id,
            lambda data: subnet.send_to_coordinator(node_id, data),
            self.clock,
            self._reliability,
            seed=self._seed,
            observer=self._obs,
            wire_codec=self._wire_codec,
            codec_config=self._codec_config,
            first_seq=first_seq,
        )
        subnet.bind_site(node_id, endpoint.sender.handle_datagram)
        self._endpoints.append(endpoint)
        return endpoint

    def _connect_uplink(self, wiring: _InternalWiring, first_seq: int = 1) -> None:
        """Give an aggregator its edge to its parent; every upload is a
        message entering an edge, so it goes through the mark."""
        assert wiring.node.parent_id is not None
        endpoint = self._make_endpoint(
            wiring.node.node_id,
            self._require_internal(wiring.node.parent_id),
            first_seq,
        )
        wiring.edge = endpoint
        wiring.forward = self._marking(endpoint.send)

    def _check_new_id(self, node_id: int) -> None:
        if node_id in self._internals or node_id in self._leaves:
            raise ValueError(f"node id {node_id} already used")

    def _require_internal(self, node_id: int) -> _InternalWiring:
        wiring = self._internals.get(node_id)
        if wiring is None:
            raise ValueError(f"parent {node_id} is not an internal node")
        return wiring
