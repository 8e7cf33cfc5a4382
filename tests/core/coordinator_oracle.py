"""Reference coordinator bookkeeping: every derived value rebuilt on use.

This is ``repro.core.coordinator.Coordinator``'s Algorithm 2 bookkeeping
as it stood before clusters cached their weight and pooled Gaussian and
before moment merges stopped going through ``fit_merged_component``:

* ``OracleCluster.weight`` is a Python ``sum`` per access and
  ``leaf_mixture()`` builds a fresh ``GaussianMixture`` -- and hence a
  fresh pooled ``Gaussian`` -- per call, including once per scored leaf
  in ``on_updates``;
* ``_remove_leaves`` / ``_refresh_fathers`` rebuild every father,
  touched or not;
* every merge, moment or simplex, calls ``fit_merged_component`` and so
  draws its Monte-Carlo sample set from the coordinator's rng;
* every merge computes its leaves' ``M_remerge`` distance at once,
  against a fresh pool of the merged leaves (the Gaussian ``M_split`` is
  measured against), moment merges included.

It is kept here, out of ``src/``, as the oracle of
``tests/core/test_coordinator_identity.py``: the pooled Gaussian is a
pure function of the leaves, so the cached implementation must agree
with this one bit for bit after every message.  Configuration, leaves
and counters are the real classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.coordinator import CoordinatorConfig, CoordinatorStats, Leaf
from repro.core.gaussian import Gaussian
from repro.core.merging import fit_merged_component, m_merge, m_split
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.obs.observer import Observer, ensure_observer

__all__ = ["OracleCluster", "OracleCoordinator"]


@dataclass
class OracleCluster:
    """A father node: a set of leaves plus its fitted representative."""

    cluster_id: int
    leaves: list[Leaf] = field(default_factory=list)
    father: Gaussian | None = None

    @property
    def weight(self) -> float:
        return float(sum(leaf.weight for leaf in self.leaves))

    def leaf_mixture(self) -> GaussianMixture:
        """Exact sub-mixture of this cluster's leaves."""
        if not self.leaves:
            raise ValueError("cluster has no leaves")
        weights = np.array([leaf.weight for leaf in self.leaves])
        return GaussianMixture(
            weights, tuple(leaf.gaussian for leaf in self.leaves)
        )

    def refresh_father(self) -> None:
        """Refit the representative as the leaves' moment-matched pool.

        Pairwise simplex fits happen at merge time; between merges the
        father tracks its leaves by exact moment matching, which is the
        best available zero-communication refresh.
        """
        self.father = self.leaf_mixture().pooled_gaussian()


class OracleCoordinator:
    """``Coordinator`` as of the parent commit (see the module docstring)."""

    def __init__(
        self,
        config: CoordinatorConfig | None = None,
        rng: np.random.Generator | None = None,
        observer: Observer | None = None,
        history=None,
    ) -> None:
        self.config = config or CoordinatorConfig()
        self._rng = rng if rng is not None else np.random.default_rng(7)
        self._obs = ensure_observer(observer)
        #: ``(site_id, model_id) -> (mixture, count)`` as last reported.
        self._site_models: dict[tuple[int, int], tuple[GaussianMixture, int]] = {}
        self._clusters: dict[int, OracleCluster] = {}
        self._cluster_ids = itertools.count()
        self.stats = CoordinatorStats()
        self.history = history
        if history is not None:
            if history.scope is None:
                history.scope = "coordinator"
            if history.observer is None:
                history.observer = self._obs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> tuple[OracleCluster, ...]:
        """Current global clusters (fathers with their leaves)."""
        return tuple(self._clusters.values())

    @property
    def n_components(self) -> int:
        """Number of global clusters."""
        return len(self._clusters)

    @property
    def site_models(self) -> dict[tuple[int, int], tuple[GaussianMixture, int]]:
        """Read-only view of the registered site models."""
        return dict(self._site_models)

    def global_mixture(self) -> GaussianMixture:
        """Compact global model: one father component per cluster."""
        if not self._clusters:
            raise ValueError("coordinator has received no models yet")
        pairs = []
        for cluster in self._clusters.values():
            if cluster.father is None:
                cluster.refresh_father()
            pairs.append((cluster.weight, cluster.father))
        return GaussianMixture.from_pairs(pairs)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Dispatch one incoming site message."""
        self.stats.register_message(message)
        # The coord.update span adopts whatever remote parent the
        # transport activated (the originating site's chunk-test span),
        # and parents any merge/split spans the update triggers.
        with self._obs.span(
            "coord.update",
            site=message.site_id,
            kind=type(message).__name__,
        ):
            if isinstance(message, ModelUpdateMessage):
                self._on_model_update(message)
            elif isinstance(message, WeightUpdateMessage):
                self._on_weight_update(message)
            elif isinstance(message, DeletionMessage):
                self._on_deletion(message)
            else:
                raise TypeError(
                    f"unsupported message type {type(message).__name__}"
                )
        if self.history is not None:
            from repro.obs.history import coordinator_history_payload

            self.history.observe(
                message.time, coordinator_history_payload(self)
            )

    def _on_model_update(self, message: ModelUpdateMessage) -> None:
        """Register a new site model and insert its component leaves."""
        self.stats.model_updates += 1
        if self._obs.enabled:
            self._obs.inc("coord.model_updates", site=message.site_id)
            self._obs.event(
                "coord.model_update",
                site=message.site_id,
                model=message.model_id,
                components=message.mixture.n_components,
                count=message.count,
            )
        key = (message.site_id, message.model_id)
        self._remove_leaves(key)
        self._site_models[key] = (message.mixture, message.count)
        for index, (weight, component) in enumerate(message.mixture):
            if weight <= 0.0:
                continue
            leaf = Leaf(
                site_id=message.site_id,
                model_id=message.model_id,
                component_index=index,
                gaussian=component,
                weight=weight * message.count,
            )
            self._attach(leaf)
        self._enforce_component_cap()
        self.on_updates(message.site_id)

    def _on_weight_update(self, message: WeightUpdateMessage) -> None:
        """Scale the leaves of a model whose counter moved."""
        self.stats.weight_updates += 1
        key = (message.site_id, message.model_id)
        if self._obs.enabled:
            self._obs.inc("coord.weight_updates", site=message.site_id)
            self._obs.event(
                "coord.weight_update",
                site=message.site_id,
                model=message.model_id,
                count_delta=message.count_delta,
                orphan=key not in self._site_models,
            )
        if key not in self._site_models:
            if self.config.tolerate_loss:
                self.stats.orphan_updates += 1
                return
            raise KeyError(f"weight update for unknown model {key}")
        mixture, count = self._site_models[key]
        new_count = count + message.count_delta
        if new_count <= 0:
            self._drop_model(key)
            return
        self._site_models[key] = (mixture, new_count)
        for leaf in self._leaves_of(key):
            index = leaf.component_index
            leaf.weight = float(mixture.weights[index]) * new_count
        self._refresh_fathers()
        self.on_updates(message.site_id)

    def _on_deletion(self, message: DeletionMessage) -> None:
        """Sliding-window deletion: negative weight for an expired model."""
        self.stats.deletions += 1
        if self._obs.enabled:
            self._obs.inc("coord.deletions", site=message.site_id)
            self._obs.event(
                "coord.deletion",
                site=message.site_id,
                model=message.model_id,
                count_delta=message.count_delta,
            )
        key = (message.site_id, message.model_id)
        if key not in self._site_models:
            return  # already expired
        mixture, count = self._site_models[key]
        new_count = count - message.count_delta
        if new_count <= 0:
            self._drop_model(key)
            return
        self._site_models[key] = (mixture, new_count)
        for leaf in self._leaves_of(key):
            leaf.weight = float(mixture.weights[leaf.component_index]) * new_count
        self._refresh_fathers()

    # ------------------------------------------------------------------
    # Algorithm 2: split / re-merge on updates
    # ------------------------------------------------------------------
    def on_updates(self, site_id: int) -> int:
        """Algorithm 2 (``OnUpdates``) for one updated remote site.

        For each leaf of the site, compare ``M_split`` against the stored
        ``M_remerge`` distance; leaves that drifted away from their father
        are split out and re-merged into the sibling cluster with the
        largest ``M_remerge``.

        Returns the number of splits performed.
        """
        split_leaves: list[Leaf] = []
        for cluster in list(self._clusters.values()):
            if len(cluster.leaves) < 2:
                continue
            if cluster.father is None:
                cluster.refresh_father()
            for leaf in list(cluster.leaves):
                if leaf.site_id != site_id:
                    continue
                score = m_split(leaf.gaussian, cluster.leaf_mixture())
                if 0.0 < leaf.remerge_distance < np.inf and (
                    score > leaf.remerge_distance
                ):
                    with self._obs.span(
                        "coord.split",
                        site=leaf.site_id,
                        model=leaf.model_id,
                        cluster=cluster.cluster_id,
                    ):
                        cluster.leaves.remove(leaf)
                        split_leaves.append(leaf)
                        self.stats.splits += 1
                        if self._obs.enabled:
                            self._obs.inc("coord.splits")
                            self._obs.event(
                                "coord.split",
                                site=leaf.site_id,
                                model=leaf.model_id,
                                component=leaf.component_index,
                                cluster=cluster.cluster_id,
                                m_split=float(score),
                            )
            if cluster.leaves:
                cluster.refresh_father()
            else:
                del self._clusters[cluster.cluster_id]
        for leaf in split_leaves:
            self._attach(leaf)
        if split_leaves:
            self._enforce_component_cap()
        return len(split_leaves)

    # ------------------------------------------------------------------
    # Tree maintenance
    # ------------------------------------------------------------------
    def _leaves_of(self, key: tuple[int, int]) -> list[Leaf]:
        return [
            leaf
            for cluster in self._clusters.values()
            for leaf in cluster.leaves
            if (leaf.site_id, leaf.model_id) == key
        ]

    def _remove_leaves(self, key: tuple[int, int]) -> None:
        for cluster_id, cluster in list(self._clusters.items()):
            cluster.leaves = [
                leaf
                for leaf in cluster.leaves
                if (leaf.site_id, leaf.model_id) != key
            ]
            if not cluster.leaves:
                del self._clusters[cluster_id]
            else:
                cluster.father = None
        self._refresh_fathers()

    def _drop_model(self, key: tuple[int, int]) -> None:
        self._site_models.pop(key, None)
        self._remove_leaves(key)

    def _attach(self, leaf: Leaf) -> None:
        """Home a leaf: nearest father within threshold, else new cluster."""
        best_cluster: OracleCluster | None = None
        best_distance = np.inf
        for cluster in self._clusters.values():
            if cluster.father is None:
                cluster.refresh_father()
            distance = leaf.gaussian.symmetric_mahalanobis_sq(cluster.father)
            if distance < best_distance:
                best_distance = distance
                best_cluster = cluster
        if best_cluster is not None and best_distance <= self.config.attach_threshold:
            best_cluster.leaves.append(leaf)
            leaf.remerge_distance = best_distance
            best_cluster.refresh_father()
        else:
            cluster = OracleCluster(cluster_id=next(self._cluster_ids))
            cluster.leaves.append(leaf)
            leaf.remerge_distance = np.inf
            cluster.refresh_father()
            self._clusters[cluster.cluster_id] = cluster

    def _refresh_fathers(self) -> None:
        for cluster in self._clusters.values():
            if cluster.leaves:
                cluster.refresh_father()

    def _enforce_component_cap(self) -> None:
        """Greedy merging until at most ``max_components`` clusters remain.

        Each step merges the cluster pair with the largest ``M_merge``
        between fathers, fitting the merged father with the configured
        method (simplex or moment matching).
        """
        cap = self.config.max_components
        if cap is None:
            return
        while len(self._clusters) > cap:
            best_pair = self._best_merge_pair()
            assert best_pair is not None
            self._merge_clusters(*best_pair)

    def _best_merge_pair(self) -> tuple[int, int] | None:
        """The cluster pair with the largest ``M_merge``."""
        ids = list(self._clusters)
        if len(ids) < 2:
            return None
        best_pair: tuple[int, int] | None = None
        best_score = -np.inf
        for a_pos, a_id in enumerate(ids):
            for b_id in ids[a_pos + 1 :]:
                score = m_merge(
                    self._clusters[a_id].father,
                    self._clusters[b_id].father,
                )
                if score > best_score:
                    best_score = score
                    best_pair = (a_id, b_id)
        return best_pair

    def _merge_clusters(self, id_a: int, id_b: int) -> None:
        """Merge two clusters; the father is fitted per §5.2.1."""
        with self._obs.span("coord.merge", a=id_a, b=id_b):
            cluster_a = self._clusters.pop(id_a)
            cluster_b = self._clusters.pop(id_b)
            with self._obs.timer("profile.merge_fit"):
                fit = fit_merged_component(
                    cluster_a.weight,
                    cluster_a.father,
                    cluster_b.weight,
                    cluster_b.father,
                    n_samples=self.config.merge_samples,
                    rng=self._rng,
                    method=self.config.merge_method,
                    observer=self._obs,
                )
            merged = OracleCluster(cluster_id=next(self._cluster_ids))
            merged.leaves = cluster_a.leaves + cluster_b.leaves
            merged.father = fit.component
            reference = merged.leaf_mixture().pooled_gaussian()
            for leaf in merged.leaves:
                leaf.remerge_distance = leaf.gaussian.symmetric_mahalanobis_sq(
                    reference
                )
            self._clusters[merged.cluster_id] = merged
            self.stats.merges += 1
            if self._obs.enabled:
                self._obs.inc("coord.merges")
                self._obs.event(
                    "coord.merge",
                    a=id_a,
                    b=id_b,
                    merged=merged.cluster_id,
                    m_merge=float(m_merge(cluster_a.father, cluster_b.father)),
                    accuracy_loss=float(fit.loss),
                    simplex_iterations=fit.iterations,
                    simplex_evaluations=fit.evaluations,
                    leaves=len(merged.leaves),
                )
