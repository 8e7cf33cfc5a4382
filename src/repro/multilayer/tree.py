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

This module is the *semantics* of one node -- what it absorbs, when it
uploads, what the upload is.  The tree itself (topology, edges,
delivery) is :class:`repro.cluster.tree.TransportTree`; over its default
loopback links it is the synchronous in-memory network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.coordinator import Coordinator
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message, ModelUpdateMessage

__all__ = ["InternalNode", "mixture_change"]

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
