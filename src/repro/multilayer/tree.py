"""Tree-structured hierarchical CluDistream (paper section 7).

The flat star topology generalises to a communication tree: stream
sources sit at the leaves, every internal node runs the coordinator
logic over its children, and an internal node uploads its summary to
*its* parent only when its locally-observed global mixture changes --
the same stability property that keeps the flat protocol quiet, applied
recursively.

Node ids double as message ``site_id`` values on each hop, so the
standard :mod:`repro.core.protocol` vocabulary and byte accounting work
unchanged on every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message, ModelUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig

__all__ = ["InternalNode", "LeafNode", "TreeNetwork", "mixture_change"]

#: The one ``model_id`` an internal node's summaries travel under.
SUMMARY_MODEL_ID = 0


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
            key=lambda j: float(
                np.linalg.norm(old_component.mean - new.components[j].mean)
            ),
        )
        remaining.remove(best_j)
        worst = max(
            worst,
            old_component.symmetric_mahalanobis_sq(new.components[best_j]),
        )
        weight_shift += abs(old.weights[i] - new.weights[best_j])
    return worst + weight_shift


@dataclass
class LeafNode:
    """A leaf of the tree: one remote site observing a stream."""

    node_id: int
    site: RemoteSite
    parent_id: int | None = None

    def process_record(self, record: np.ndarray) -> list[Message]:
        return self.site.process_record(record)


@dataclass
class InternalNode:
    """An internal node: coordinator over children, site toward parent.

    Attributes
    ----------
    node_id:
        Used as the ``site_id`` on messages sent up to the parent.
    coordinator:
        Aggregates the children's synopses.
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


class TreeNetwork:
    """A communication tree running CluDistream on every level.

    Build the topology with :meth:`add_internal` / :meth:`add_leaf`
    (parents must exist before their children), then feed leaf streams
    through :meth:`feed`.  Messages propagate synchronously up the tree.

    Parameters
    ----------
    site_config / coordinator_config:
        Templates applied to every leaf site and internal coordinator.
    seed:
        Base seed for per-node randomness.
    """

    def __init__(
        self,
        site_config: RemoteSiteConfig | None = None,
        coordinator_config: CoordinatorConfig | None = None,
        seed: int = 0,
    ) -> None:
        self._site_config = site_config or RemoteSiteConfig()
        self._coordinator_config = coordinator_config or CoordinatorConfig()
        self._seed = seed
        self._internals: dict[int, InternalNode] = {}
        self._leaves: dict[int, LeafNode] = {}
        self._root_id: int | None = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_internal(
        self,
        node_id: int,
        parent_id: int | None = None,
        upload_threshold: float = 0.05,
    ) -> InternalNode:
        """Add an internal (coordinator) node; ``parent_id=None`` = root.

        ``upload_threshold`` sets how much the node's global mixture must
        change (per :func:`mixture_change`) before it uploads to its
        parent -- larger values trade upward freshness for bandwidth.
        """
        self._check_new_id(node_id)
        if parent_id is None:
            if self._root_id is not None:
                raise ValueError("tree already has a root")
            self._root_id = node_id
        else:
            self._require_internal(parent_id)
        node = InternalNode(
            node_id=node_id,
            coordinator=Coordinator(
                self._coordinator_config,
                rng=np.random.default_rng(self._seed + 50_000 + node_id),
            ),
            parent_id=parent_id,
            upload_threshold=upload_threshold,
        )
        self._internals[node_id] = node
        return node

    def add_leaf(self, node_id: int, parent_id: int) -> LeafNode:
        """Add a leaf (stream-observing) node under an internal node."""
        self._check_new_id(node_id)
        self._require_internal(parent_id)
        node = LeafNode(
            node_id=node_id,
            site=RemoteSite(
                site_id=node_id,
                config=self._site_config,
                rng=np.random.default_rng(self._seed + node_id),
            ),
            parent_id=parent_id,
        )
        self._leaves[node_id] = node
        return node

    @property
    def root(self) -> InternalNode:
        if self._root_id is None:
            raise ValueError("tree has no root")
        return self._internals[self._root_id]

    @property
    def leaves(self) -> tuple[LeafNode, ...]:
        return tuple(self._leaves.values())

    @property
    def internals(self) -> tuple[InternalNode, ...]:
        return tuple(self._internals.values())

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def feed(self, leaf_id: int, record: np.ndarray) -> None:
        """Deliver one record to a leaf; propagate messages to the root."""
        if leaf_id not in self._leaves:
            raise KeyError(f"unknown leaf {leaf_id}")
        leaf = self._leaves[leaf_id]
        messages = leaf.process_record(record)
        self._propagate(leaf.parent_id, messages)

    def _propagate(
        self, node_id: int | None, messages: list[Message]
    ) -> None:
        while node_id is not None and messages:
            node = self._internals[node_id]
            uploads: list[Message] = []
            for message in messages:
                uploads.extend(node.handle_child_message(message))
            messages = uploads
            node_id = node.parent_id

    def global_mixture(self) -> GaussianMixture:
        """The root's view of the union of all leaf streams."""
        return self.root.coordinator.global_mixture()

    def total_uplink_bytes(self) -> int:
        """Bytes crossing all tree edges (leaf uplinks + internal uplinks)."""
        leaf_bytes = sum(
            leaf.site.stats.bytes_sent for leaf in self._leaves.values()
        )
        internal_bytes = sum(
            node.bytes_up for node in self._internals.values()
        )
        return leaf_bytes + internal_bytes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_new_id(self, node_id: int) -> None:
        if node_id in self._internals or node_id in self._leaves:
            raise ValueError(f"node id {node_id} already used")

    def _require_internal(self, node_id: int) -> None:
        if node_id not in self._internals:
            raise ValueError(f"parent {node_id} is not an internal node")
