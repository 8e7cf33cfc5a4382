"""Declarative cluster topology: the §7 tree as data.

A :class:`ClusterSpec` pins down everything a deployment needs before a
single process starts: the tree shape (which node reports to which),
per-node roles and bind ports, the stream each site observes, and the
shared site/coordinator parameters.  Specs are plain data -- build one
programmatically with :func:`build_spec`, or load/save the JSON form
with :func:`load_spec` / :func:`save_spec` so a launch is reproducible
from a file checked into a repo.

Levels count from the root: the root aggregator is level 0, its child
aggregators level 1, and so on; sites always sit one level below their
aggregator.  Node ids are globally unique integers (the root is always
``0``), which keeps every hop's ``site_id`` vocabulary unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import CodecConfig, available_codecs, get_codec

__all__ = [
    "ClusterSpec",
    "NodeSpec",
    "aggregator_rng",
    "build_spec",
    "load_spec",
    "save_spec",
]

SPEC_FORMAT = 1

ROLE_AGGREGATOR = "aggregator"
ROLE_SITE = "site"


@dataclass(frozen=True, kw_only=True)
class NodeSpec:
    """One node of the deployment tree.

    Attributes
    ----------
    node_id:
        Globally unique id; doubles as the ``site_id`` on the uplink to
        the parent.
    role:
        ``"aggregator"`` (runs coordinator logic over its children) or
        ``"site"`` (observes a stream at a leaf).  The root is the
        aggregator with ``parent_id is None``.
    parent_id / level:
        Tree position; the root has ``parent_id=None`` and ``level=0``.
    port:
        Requested TCP bind port for aggregators (``0`` = ephemeral; the
        actually bound port is surfaced by the launcher and recorded in
        the node's checkpoint manifest).
    upload_threshold:
        Aggregators only: minimal :func:`repro.cluster.hop.mixture_change`
        score that triggers an upload to the parent.
    stream / records:
        Sites only: per-node overrides of the spec-wide stream kind and
        record budget (``None`` = use the spec default).
    incremental:
        Sites only: per-node override of the spec-wide incremental
        refit-ladder switch (``None`` = use the spec default).  Lets a
        deployment pin hot leaves to the cheap warm path while keeping
        cold-refit leaves as a quality control group.
    wire_codec / quantize:
        Per-node override of the wire codec spoken on this node's
        *uplink* edge (``None`` = use the spec default).  A mixed tree
        is legal: the sender owns each edge's format and every receiver
        decodes both, so one WAN-facing aggregator can run ``cds2`` with
        ``f16`` quantization while LAN leaves stay on ``cds1``.
    """

    node_id: int
    role: str
    parent_id: int | None = None
    level: int = 0
    port: int = 0
    upload_threshold: float | None = None
    stream: str | None = None
    records: int | None = None
    incremental: bool | None = None
    wire_codec: str | None = None
    quantize: str | None = None

    def __post_init__(self) -> None:
        if self.role not in (ROLE_AGGREGATOR, ROLE_SITE):
            raise ValueError(f"unknown node role {self.role!r}")
        if self.role == ROLE_SITE and self.parent_id is None:
            raise ValueError("a site node needs a parent aggregator")
        if self.node_id < 0:
            raise ValueError("node ids must be non-negative")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must lie in [0, 65535]")
        if self.wire_codec is not None and self.wire_codec not in available_codecs():
            raise ValueError(
                f"node {self.node_id}: unknown wire codec "
                f"{self.wire_codec!r} (available: {available_codecs()})"
            )

    @property
    def is_root(self) -> bool:
        return self.role == ROLE_AGGREGATOR and self.parent_id is None


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """A full tree deployment: topology plus shared parameters.

    ``nodes`` must form one tree: exactly one root aggregator, every
    other node's parent an existing aggregator, levels consistent with
    the parent links (validated on construction).
    """

    nodes: tuple[NodeSpec, ...] = field(default=())
    host: str = "127.0.0.1"
    seed: int = 0
    clusters: int = 3
    dim: int = 2
    epsilon: float = 0.05
    delta: float = 0.05
    chunk: int = 500
    stream: str = "synthetic"
    records_per_site: int = 2000
    p_new: float = 0.1
    upload_threshold: float = 0.05
    #: Every aggregator's :attr:`CoordinatorConfig.merge_method`: moment
    #: pools by default; ``"simplex"`` (the paper's L1 fit) warns.
    merge_method: str = "moment"
    telemetry_interval: float = 2.0
    incremental: bool = False
    wire_codec: str = "cds1"
    quantize: str = "f64"
    delta_encoding: bool = False
    #: Attach a pyramidal :class:`~repro.obs.history.ModelHistory` to
    #: every aggregator's coordinator: enables ``/history`` queries on
    #: telemetry-serving nodes, history summaries on federated
    #: telemetry reports (``/cluster/history`` at the root) and
    #: time-travel state that rides checkpoints across ``--resume``.
    history: bool = False

    def __post_init__(self) -> None:
        if self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if self.wire_codec not in available_codecs():
            raise ValueError(
                f"unknown wire codec {self.wire_codec!r} "
                f"(available: {available_codecs()})"
            )
        # Fail at spec build time, not mid-launch: get_codec validates
        # the quantize level and rejects settings the codec cannot
        # honour (e.g. f16 quantization on a cds1 edge).
        get_codec(self.wire_codec, self.codec_config())
        for node in self.nodes:
            get_codec(self.node_wire_codec(node), self.node_codec_config(node))
        if not self.nodes:
            return
        by_id: dict[int, NodeSpec] = {}
        roots = []
        for node in self.nodes:
            if node.node_id in by_id:
                raise ValueError(f"duplicate node id {node.node_id}")
            by_id[node.node_id] = node
            if node.is_root:
                roots.append(node)
        if len(roots) != 1:
            raise ValueError(f"spec needs exactly one root, found {len(roots)}")
        if roots[0].level != 0:
            raise ValueError("the root must sit at level 0")
        for node in self.nodes:
            if node.parent_id is None:
                continue
            parent = by_id.get(node.parent_id)
            if parent is None or parent.role != ROLE_AGGREGATOR:
                raise ValueError(
                    f"node {node.node_id}: parent {node.parent_id} is not "
                    "an aggregator in this spec"
                )
            if node.level != parent.level + 1:
                raise ValueError(
                    f"node {node.node_id}: level {node.level} does not "
                    f"follow parent level {parent.level}"
                )

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> NodeSpec:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(f"unknown node {node_id}")

    @property
    def root(self) -> NodeSpec:
        for node in self.nodes:
            if node.is_root:
                return node
        raise ValueError("spec has no root")

    @property
    def aggregators(self) -> tuple[NodeSpec, ...]:
        """Every aggregator, root first, then by increasing level."""
        return tuple(
            sorted(
                (n for n in self.nodes if n.role == ROLE_AGGREGATOR),
                key=lambda n: (n.level, n.node_id),
            )
        )

    @property
    def site_nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role == ROLE_SITE)

    @property
    def depth(self) -> int:
        """Number of aggregator levels (1 = flat star)."""
        return max(
            (n.level + 1 for n in self.nodes if n.role == ROLE_AGGREGATOR),
            default=0,
        )

    def children(self, node_id: int) -> tuple[NodeSpec, ...]:
        return tuple(
            sorted(
                (n for n in self.nodes if n.parent_id == node_id),
                key=lambda n: n.node_id,
            )
        )

    def node_upload_threshold(self, node: NodeSpec) -> float:
        return (
            node.upload_threshold
            if node.upload_threshold is not None
            else self.upload_threshold
        )

    def node_records(self, node: NodeSpec) -> int:
        return node.records if node.records is not None else self.records_per_site

    def node_stream(self, node: NodeSpec) -> str:
        return node.stream if node.stream is not None else self.stream

    def node_incremental(self, node: NodeSpec) -> bool:
        return (
            node.incremental
            if node.incremental is not None
            else self.incremental
        )

    def node_wire_codec(self, node: NodeSpec) -> str:
        """Codec spoken on ``node``'s uplink edge (override or default)."""
        return node.wire_codec if node.wire_codec is not None else self.wire_codec

    def node_codec_config(self, node: NodeSpec) -> CodecConfig:
        """Codec tuning for ``node``'s uplink edge."""
        quantize = node.quantize if node.quantize is not None else self.quantize
        delta = self.delta_encoding and self.node_wire_codec(node) == "cds2"
        return CodecConfig(quantize=quantize, delta=delta)

    def codec_config(self) -> CodecConfig:
        """Spec-wide codec tuning (per-edge overrides via
        :meth:`node_codec_config`)."""
        return CodecConfig(
            quantize=self.quantize,
            delta=self.delta_encoding and self.wire_codec == "cds2",
        )

    # ------------------------------------------------------------------
    # Derived configs
    # ------------------------------------------------------------------
    def site_config(self, incremental: bool | None = None) -> RemoteSiteConfig:
        """Spec-wide site parameters (``incremental`` overrides the
        spec default; prefer :meth:`site_config_for` per node)."""
        if incremental is None:
            incremental = self.incremental
        return RemoteSiteConfig(
            dim=self.dim,
            epsilon=self.epsilon,
            delta=self.delta,
            em=EMConfig(
                n_components=self.clusters,
                n_init=1,
                max_iter=40,
                incremental=incremental,
            ),
            chunk_override=self.chunk,
        )

    def site_config_for(self, node: NodeSpec) -> RemoteSiteConfig:
        """Site parameters for one leaf, per-node overrides applied."""
        return self.site_config(incremental=self.node_incremental(node))

    def coordinator_config(self) -> CoordinatorConfig:
        return CoordinatorConfig(
            max_components=2 * self.clusters,
            merge_method=self.merge_method,
        )

    def describe(self) -> str:
        """One-line-per-level summary of the topology."""
        lines = [
            f"cluster: {len(self.site_nodes)} sites, "
            f"{len(self.aggregators)} aggregators, depth {self.depth}, "
            f"host {self.host}"
        ]
        for level in range(self.depth):
            aggs = [a for a in self.aggregators if a.level == level]
            fanins = [len(self.children(a.node_id)) for a in aggs]
            lines.append(
                f"  level {level}: {len(aggs)} aggregator(s), "
                f"fan-in {min(fanins)}..{max(fanins)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form: header, scalar fields in declaration order, nodes."""
        payload = {"format": SPEC_FORMAT, "kind": "cluster_spec"}
        for spec in fields(self):
            if spec.name not in ("nodes", "history"):
                payload[spec.name] = getattr(self, spec.name)
        payload["nodes"] = [
            {spec.name: getattr(node, spec.name) for spec in fields(node)}
            for node in self.nodes
        ]
        # Emitted only when enabled so specs written by a pre-history
        # build and by this one compare byte-identical when it is off.
        if self.history:
            payload["history"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ClusterSpec":
        if payload.get("kind") != "cluster_spec":
            raise ValueError("payload is not a cluster spec")
        if payload.get("format") != SPEC_FORMAT:
            raise ValueError(
                f"unsupported cluster spec format {payload.get('format')}"
            )
        nodes = tuple(
            NodeSpec(**_known_fields(NodeSpec, raw)) for raw in payload["nodes"]
        )
        return cls(**{**_known_fields(cls, payload), "nodes": nodes})


def aggregator_rng(seed: int, node_id: int) -> np.random.Generator:
    """The merge-fit sample stream of aggregator ``node_id``'s
    coordinator: one rule for the in-process tree, every deployed
    aggregator (``serve``'s root included) and the soak's flat
    reference, which stands in for the root."""
    return np.random.default_rng(seed + 50_000 + node_id)


def _known_fields(cls: type, raw: Mapping) -> dict:
    """The entries of ``raw`` that are fields of ``cls``: a key an older
    spec lacks takes the dataclass default, a key this build does not
    know is ignored."""
    return {spec.name: raw[spec.name] for spec in fields(cls) if spec.name in raw}


def build_spec(
    sites: int,
    fanin: int,
    depth: int | None = None,
    base_port: int = 0,
    **params: object,
) -> ClusterSpec:
    """Build a balanced tree spec for ``sites`` leaves.

    Aggregation levels are stacked bottom-up: sites are grouped
    ``fanin`` at a time under level-``d`` aggregators, those aggregators
    ``fanin`` at a time under the next level, until at most ``fanin``
    nodes remain -- they report to the root.  ``depth`` forces an exact
    number of aggregator levels instead (``1`` = the flat star: every
    site reports straight to the root, whatever ``fanin`` says).

    ``base_port`` assigns consecutive TCP ports to aggregators starting
    there (``0`` keeps every port ephemeral).  Remaining keyword
    arguments go to :class:`ClusterSpec` (seed, stream parameters, ...).
    """
    if sites < 1:
        raise ValueError("sites must be at least 1")
    if fanin < 2:
        raise ValueError("fanin must be at least 2")
    if depth is not None and depth < 1:
        raise ValueError("depth must be at least 1")

    # Number of aggregators per level, bottom (just above the sites)
    # to top (the root's children), excluding the root itself.
    group_counts: list[int] = []
    width = sites
    if depth is None:
        while width > fanin:
            width = math.ceil(width / fanin)
            group_counts.append(width)
    else:
        for _ in range(depth - 1):
            width = math.ceil(width / fanin)
            group_counts.append(width)
    # Collapse degenerate levels: a level with a single aggregator IS
    # the root; anything above it would be a chain of 1-child nodes.
    while group_counts and group_counts[-1] <= 1:
        group_counts.pop()

    nodes: list[NodeSpec] = []
    next_id = 0

    def make_aggregator(parent_id: int | None, level: int) -> int:
        nonlocal next_id
        node_id = next_id
        next_id += 1
        port = 0 if base_port == 0 else base_port + node_id
        nodes.append(
            NodeSpec(
                node_id=node_id,
                role=ROLE_AGGREGATOR,
                parent_id=parent_id,
                level=level,
                port=port,
            )
        )
        return node_id

    root_id = make_aggregator(None, 0)
    # Top-down: each level's aggregators are distributed evenly over
    # the previous level's.
    parent_ids = [root_id]
    level = 1
    for count in reversed(group_counts):
        current = [
            make_aggregator(parent_ids[i * len(parent_ids) // count], level)
            for i in range(count)
        ]
        parent_ids = current
        level += 1
    site_ids = []
    for i in range(sites):
        node_id = next_id
        next_id += 1
        site_ids.append(node_id)
        nodes.append(
            NodeSpec(
                node_id=node_id,
                role=ROLE_SITE,
                parent_id=parent_ids[i * len(parent_ids) // sites],
                level=level,
            )
        )
    return ClusterSpec(nodes=tuple(nodes), **params)  # type: ignore[arg-type]


def save_spec(spec: ClusterSpec, path: str | Path) -> Path:
    """Write ``spec`` as JSON to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(spec.to_dict(), indent=2))
    return path


def load_spec(path: str | Path) -> ClusterSpec:
    """Read a spec written by :func:`save_spec`."""
    return ClusterSpec.from_dict(json.loads(Path(path).read_text()))
