"""Coordinator processing: the global model hierarchy (§5.2, Algorithm 2).

The coordinator receives model synopses from ``r`` remote sites and
maintains a two-level tree:

* **leaves** -- individual Gaussian components shipped by sites, keyed
  by ``(site_id, model_id, component_index)`` and weighted by the site
  mixture weight times the model's record counter;
* **global clusters** (the paper's ``Mix`` nodes) -- groups of leaves,
  each with a *father* component: the moment pool of its leaves, or
  (``merge_method="simplex"``, deprecated) the paper's L1 fit from
  :mod:`repro.core.merging`.

Simply unioning all site components would give an ``r·K``-component
global mixture -- correct but unscalable and prone to local maxima, as
section 5.2 notes.  Instead the coordinator greedily merges the pair of
global clusters with the largest ``M_merge`` until at most
``max_components`` remain, pooling each merged pair's moments (the
paper's §5.2.1 minimises an L1 accuracy loss instead; opt in with
``merge_method="simplex"``).

On every site update Algorithm 2 runs: each updated component checks
``M_split`` against the ``M_remerge`` distance owed when it was merged,
both taken to one pool; components that drifted away from their father
are split out and re-merged into the sibling cluster with the largest
``M_remerge``.

Sliding-window deletions (section 7) subtract weight from a site model
and drop it once the weight is non-positive.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.gaussian import BYTES_PER_FLOAT, Gaussian
from repro.core.merging import (
    MergeFit,
    _draw_merge_samples,
    accuracy_loss,
    fit_merged_component,
    m_merge,
    m_split,
)
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.obs.observer import Observer, ensure_observer

__all__ = [
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorStats",
    "GlobalCluster",
    "Leaf",
]

#: Seed of the sample stream behind a traced moment merge's
#: ``accuracy_loss`` (drawn only when an observer is attached).
_TRACE_LOSS_SEED = 0


class _PendingFit:
    """A simplex merge: samples drawn at merge time, searched on the first
    read of its father (:meth:`fit`, once, via ``fit_merged_component``)."""

    def __init__(self, pair: tuple, n_samples: int, rng) -> None:
        self._pair = pair
        self._samples = _draw_merge_samples(pair, n_samples, rng)
        self._fit: MergeFit | None = None

    def fit(self, observer: Observer | None = None) -> MergeFit:
        if self._fit is None:
            self._fit = fit_merged_component(
                *self._pair, observer=observer, samples=self._samples
            )
            self._samples = None
        return self._fit

    def payload_bytes(self) -> int:
        # A searched father is full; a diagonal pair's may stay diagonal.
        comp_i, comp_j = self._pair[1], self._pair[3]
        if self._fit is None and not (comp_i.diagonal and comp_j.diagonal):
            return BYTES_PER_FLOAT * comp_i.dim * (comp_i.dim + 1)
        return self.fit().component.payload_bytes()


@dataclass(frozen=True, kw_only=True)
class CoordinatorConfig:
    """Coordinator tuning knobs.

    Parameters
    ----------
    max_components:
        Upper bound on global clusters; merging kicks in above it.
        ``None`` disables merging entirely (the naive ``r·K`` union).
    merge_method:
        ``"moment"`` (the default: exact moment matching, the father is
        the pool of its leaves) or ``"simplex"`` (the paper's
        downhill-simplex fit of the L1 accuracy loss, deprecated: it
        leaves the coordinator in 1.18.0).
    merge_samples:
        Monte-Carlo budget per accuracy-loss evaluation (simplex only).
    attach_threshold:
        A new leaf joins an existing cluster outright when its
        symmetrised Mahalanobis distance to the father is below this;
        otherwise it starts a cluster of its own and the global cap
        decides whether merging is needed.
    tolerate_loss:
        Survive unreliable links: a weight update referring to a model
        whose announcement was lost is counted
        (``stats.orphan_updates``) and ignored instead of raising.
        Model updates are idempotent either way (a duplicate replaces
        the same leaves), so duplicated deliveries are always safe.
    """

    max_components: int | None = 5
    merge_method: str = "moment"
    merge_samples: int = 1024
    attach_threshold: float = 4.0
    tolerate_loss: bool = False

    def __post_init__(self) -> None:
        if self.max_components is not None and self.max_components < 1:
            raise ValueError("max_components must be at least 1")
        if self.merge_method not in ("simplex", "moment"):
            raise ValueError(f"unknown merge method {self.merge_method!r}")
        if self.merge_method == "simplex":
            warnings.warn(
                "merge_method='simplex' is deprecated and leaves the "
                "coordinator in 1.18.0; the paper's L1 merge fit moves to "
                "benchmarks/paper/merging.py",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.attach_threshold <= 0.0:
            raise ValueError("attach_threshold must be positive")


@dataclass
class Leaf:
    """A site component living in the coordinator's tree.

    Attributes
    ----------
    site_id / model_id / component_index:
        Origin of the component.
    gaussian:
        The component parameters as shipped.
    weight:
        Absolute mass: site mixture weight × model record counter.
    remerge_distance:
        The distance behind ``M_remerge(i, Mix)`` at the leaf's last
        (re)merge, against the pool ``M_split`` reads.  Algorithm 2 splits
        the leaf when ``M_split`` exceeds it; a distance of ``0`` or ``inf``
        (a cluster of its own) is never tested.  A merge only records that
        pool (:meth:`merged_into`); the distance is computed when first read.
    """

    site_id: int
    model_id: int
    component_index: int
    gaussian: Gaussian
    weight: float
    remerge_distance: float = float("inf")
    _merged_into: Gaussian | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.site_id, self.model_id, self.component_index)

    def merged_into(self, reference: Gaussian) -> None:
        """Owe ``remerge_distance`` against ``reference`` until it is read."""
        self._merged_into = reference


def _read_remerge_distance(leaf: Leaf) -> float:
    if leaf._merged_into is not None:
        leaf.remerge_distance = leaf.gaussian.symmetric_mahalanobis_sq(
            leaf._merged_into
        )
    return leaf._remerge_distance


def _write_remerge_distance(leaf: Leaf, distance: float) -> None:
    leaf._remerge_distance, leaf._merged_into = distance, None


# Set after @dataclass, so its __init__, __eq__ and __repr__ use it too.
Leaf.remerge_distance = property(_read_remerge_distance, _write_remerge_distance)


@dataclass
class GlobalCluster:
    """A father node: a set of leaves plus its fitted representative.

    The cluster owns what it derives from its leaves -- their total
    weight and their sub-mixture, whose moment-matched pool
    :class:`GaussianMixture` caches in turn -- and computes each once per
    membership change: :meth:`add`, :meth:`remove`, :meth:`remove_model`
    and :meth:`reweigh` drop both.  ``leaves`` is for reading; a leaf
    list or leaf weight changed behind the cluster's back leaves the
    cache stale (:meth:`Coordinator.check_invariants` reports it).  A
    pending simplex ``father`` is searched when read (DESIGN §17.6).
    """

    cluster_id: int
    leaves: list[Leaf] = field(default_factory=list)
    father: Gaussian | None = None
    _weight: float | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _mixture: GaussianMixture | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def weight(self) -> float:
        if self._weight is None:
            self._weight = float(sum(leaf.weight for leaf in self.leaves))
        return self._weight

    def leaf_mixture(self) -> GaussianMixture:
        """Exact sub-mixture of this cluster's leaves."""
        if self._mixture is None:
            if not self.leaves:
                raise ValueError("cluster has no leaves")
            weights = np.array([leaf.weight for leaf in self.leaves])
            self._mixture = GaussianMixture(
                weights, tuple(leaf.gaussian for leaf in self.leaves)
            )
        return self._mixture

    def add(self, leaf: Leaf) -> None:
        self.leaves.append(leaf)
        self._weight = self._mixture = None

    def remove(self, leaf: Leaf) -> None:
        # By identity (``==`` would compute re-merge distances); a leaf not
        # in the cluster raises ValueError, as ``list.remove`` does.
        del self.leaves[[id(kept) for kept in self.leaves].index(id(leaf))]
        self._weight = self._mixture = None

    def remove_model(self, key: tuple[int, int]) -> None:
        """Drop every leaf of site model ``key = (site_id, model_id)``."""
        kept = [
            leaf for leaf in self.leaves if (leaf.site_id, leaf.model_id) != key
        ]
        if len(kept) != len(self.leaves):
            self.leaves = kept
            self._weight = self._mixture = None

    def reweigh(
        self, key: tuple[int, int], mixture: GaussianMixture, count: int
    ) -> None:
        """Set the leaves of site model ``key`` to mass ``count``."""
        for leaf in self.leaves:
            if (leaf.site_id, leaf.model_id) == key:
                leaf.weight = float(mixture.weights[leaf.component_index]) * count
                self._weight = self._mixture = None

    def refresh_father(self) -> None:
        """Refit the representative as the leaves' moment-matched pool.

        Between merges the father tracks its leaves by exact moment
        matching, the best available zero-communication refresh; a
        pending simplex father overwritten here is never searched.
        """
        self.father = self.leaf_mixture().pooled_gaussian()


def _read_father(cluster: GlobalCluster) -> Gaussian | None:
    father = cluster._father
    if isinstance(father, _PendingFit):
        father = cluster._father = father.fit().component
    return father


def _write_father(cluster: GlobalCluster, father) -> None:
    cluster._father = father


# As for Leaf.remerge_distance: the dataclass methods read the property.
GlobalCluster.father = property(_read_father, _write_father)


@dataclass
class CoordinatorStats:
    """Counters for the coordinator-side figures."""

    messages_received: int = 0
    bytes_received: int = 0
    model_updates: int = 0
    weight_updates: int = 0
    deletions: int = 0
    merges: int = 0
    splits: int = 0
    orphan_updates: int = 0

    def register_message(self, message: Message) -> None:
        self.messages_received += 1
        self.bytes_received += message.payload_bytes()


def _finite_spd(gaussian: Gaussian) -> bool:
    if not (
        np.all(np.isfinite(gaussian.mean))
        and np.all(np.isfinite(gaussian.covariance))
    ):
        return False
    try:
        np.linalg.cholesky(gaussian.covariance)
    except np.linalg.LinAlgError:
        return False
    return True


class Coordinator:
    """The coordinator site of the CluDistream architecture.

    Parameters
    ----------
    config:
        Tuning knobs; defaults follow the paper (``K = 5`` global
        components, simplex merge fit).
    rng:
        Randomness for the Monte-Carlo accuracy-loss estimates.
    observer:
        Optional :class:`~repro.obs.observer.Observer` receiving
        ``coord.*`` trace events (message handling, Algorithm 2
        merge/split decisions with their ``M_merge`` scores) and the
        ``profile.merge_fit`` simplex timer.

    Assign a :class:`~repro.obs.history.ModelHistory` to :attr:`history`
    to record a pyramidally-retained snapshot of the global model after
    every handled message (tick = ``message.time``, the originating
    site's stream position; interleaved site clocks are safe because
    out-of-order ticks are ignored).  ``None`` (default) records nothing
    and keeps state byte-identical.
    """

    def __init__(
        self,
        config: CoordinatorConfig | None = None,
        rng: np.random.Generator | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.config = config or CoordinatorConfig()
        self._rng = rng if rng is not None else np.random.default_rng(7)
        self._obs = ensure_observer(observer)
        #: ``(site_id, model_id) -> (mixture, count)`` as last reported.
        self._site_models: dict[tuple[int, int], tuple[GaussianMixture, int]] = {}
        self._clusters: dict[int, GlobalCluster] = {}
        self._cluster_ids = itertools.count()
        self.stats = CoordinatorStats()
        self.history = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> tuple[GlobalCluster, ...]:
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

    def landmark_mixture(self) -> GaussianMixture:
        """Global landmark model: all reported site models, ever.

        The union of every registered ``(site, model)`` mixture weighted
        by its record counter -- the coordinator-side analogue of
        :func:`repro.windows.landmark.landmark_mixture`.  Unlike
        :meth:`global_mixture` (which reflects the merged *current*
        tree), this spans everything the sites have reported since the
        landmark, including models whose distribution has long passed.
        """
        combined: GaussianMixture | None = None
        combined_mass = 0.0
        for mixture, count in self._site_models.values():
            if count <= 0:
                continue
            if combined is None:
                combined = mixture
                combined_mass = float(count)
            else:
                combined = combined.union(
                    mixture, combined_mass, float(count)
                )
                combined_mass += float(count)
        if combined is None:
            raise ValueError("coordinator has received no models yet")
        return combined

    def full_mixture(self) -> GaussianMixture:
        """The naive ``r·K`` union of every leaf (section 5.2's baseline)."""
        leaves = [leaf for cluster in self._clusters.values() for leaf in cluster.leaves]
        if not leaves:
            raise ValueError("coordinator has received no models yet")
        weights = np.array([leaf.weight for leaf in leaves])
        return GaussianMixture(weights, tuple(leaf.gaussian for leaf in leaves))

    def memory_bytes(self) -> int:
        """Bytes held in the tree (leaves + fathers + counters)."""
        total = 0
        for cluster in self._clusters.values():
            if cluster._father is not None:  # without running a pending fit
                total += cluster._father.payload_bytes()
            total += sum(leaf.gaussian.payload_bytes() + 8 for leaf in cluster.leaves)
        return total

    def check_invariants(self) -> list[str]:
        """What is wrong with the tree; empty when nothing is.

        Every cluster's cached weight and leaf mixture (whose pooled
        Gaussian is a function of it alone) must equal a recomputation
        from the leaves, every leaf must belong to a registered site
        model and appear once, cluster weights must be positive and
        fathers finite and positive definite.  A check for tests and
        health probes: it costs a full pass over the leaves and is
        never run on the message path.
        """
        problems = []
        seen: set[tuple[int, int, int]] = set()
        for cluster in self._clusters.values():
            name = f"cluster {cluster.cluster_id}"
            if not cluster.leaves:
                problems.append(f"{name} has no leaves")
                continue
            fresh = GlobalCluster(cluster.cluster_id, list(cluster.leaves))
            if cluster.weight != fresh.weight:
                problems.append(f"{name}: cached weight is stale")
            if cluster.leaf_mixture() != fresh.leaf_mixture():
                problems.append(f"{name}: cached leaf mixture is stale")
            if not cluster.weight > 0.0:
                problems.append(f"{name}: weight {cluster.weight} is not positive")
            for leaf in cluster.leaves:
                if (leaf.site_id, leaf.model_id) not in self._site_models:
                    problems.append(f"{name}: leaf {leaf.key} has no site model")
                if leaf.key in seen:
                    problems.append(f"{name}: leaf {leaf.key} appears twice")
                seen.add(leaf.key)
            if cluster.father is not None and not _finite_spd(cluster.father):
                problems.append(f"{name}: father is not finite and SPD")
        return problems

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
        self._reweigh(key, mixture, new_count)
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
        self._reweigh(key, mixture, new_count)

    # ------------------------------------------------------------------
    # Algorithm 2: split / re-merge on updates
    # ------------------------------------------------------------------
    def on_updates(self, site_id: int) -> int:
        """Algorithm 2 (``OnUpdates``) for one updated remote site.

        For each leaf of the site, compare ``M_split`` against the owed
        ``M_remerge`` distance, both to the cluster's pool; leaves that
        drifted away from their father are split out and re-merged into
        the sibling cluster with the largest ``M_remerge``.

        Returns the number of splits performed.
        """
        split_leaves: list[Leaf] = []
        for cluster in list(self._clusters.values()):
            if len(cluster.leaves) < 2:
                continue
            for leaf in list(cluster.leaves):
                # A distance of 0 or inf is never tested: skip M_split for it.
                if leaf.site_id != site_id or not 0.0 < leaf.remerge_distance < np.inf:
                    continue
                score = m_split(leaf.gaussian, cluster.leaf_mixture())
                if score > leaf.remerge_distance:
                    with self._obs.span(
                        "coord.split",
                        site=leaf.site_id,
                        model=leaf.model_id,
                        cluster=cluster.cluster_id,
                    ):
                        cluster.remove(leaf)
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
    def _reweigh(
        self, key: tuple[int, int], mixture: GaussianMixture, count: int
    ) -> None:
        self._site_models[key] = (mixture, count)
        for cluster in self._clusters.values():
            cluster.reweigh(key, mixture, count)
        self._refresh_fathers()

    def _remove_leaves(self, key: tuple[int, int]) -> None:
        for cluster_id, cluster in list(self._clusters.items()):
            cluster.remove_model(key)
            if not cluster.leaves:
                del self._clusters[cluster_id]
        self._refresh_fathers()

    def _drop_model(self, key: tuple[int, int]) -> None:
        self._site_models.pop(key, None)
        self._remove_leaves(key)

    def _attach(self, leaf: Leaf) -> None:
        """Home a leaf: nearest father within threshold, else new cluster."""
        best_cluster: GlobalCluster | None = None
        best_distance = np.inf
        for cluster in self._clusters.values():
            if cluster.father is None:
                cluster.refresh_father()
            distance = leaf.gaussian.symmetric_mahalanobis_sq(cluster.father)
            if distance < best_distance:
                best_distance = distance
                best_cluster = cluster
        if best_cluster is not None and best_distance <= self.config.attach_threshold:
            best_cluster.add(leaf)
            leaf.remerge_distance = best_distance
            best_cluster.refresh_father()
        else:
            cluster = GlobalCluster(next(self._cluster_ids), leaves=[leaf])
            leaf.remerge_distance = np.inf
            cluster.refresh_father()
            self._clusters[cluster.cluster_id] = cluster

    def _refresh_fathers(self) -> None:
        """Every father becomes its leaves' pool -- merge-fitted ones too."""
        for cluster in self._clusters.values():
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
        # One property read per father, not one per pair it is in.
        fathers = [self._clusters[cluster_id].father for cluster_id in ids]
        best_pair: tuple[int, int] | None = None
        best_score = -np.inf
        for a_pos, a_id in enumerate(ids):
            for b_pos in range(a_pos + 1, len(ids)):
                score = m_merge(fathers[a_pos], fathers[b_pos])
                if score > best_score:
                    best_score = score
                    best_pair = (a_id, ids[b_pos])
        return best_pair

    def _merge_clusters(self, id_a: int, id_b: int) -> None:
        """Merge two clusters; the father is fitted per §5.2.1."""
        with self._obs.span("coord.merge", a=id_a, b=id_b):
            cluster_a = self._clusters.pop(id_a)
            cluster_b = self._clusters.pop(id_b)
            pair = (
                cluster_a.weight, cluster_a.father, cluster_b.weight, cluster_b.father
            )
            moment = self.config.merge_method == "moment"
            with self._obs.timer("profile.merge_fit"):
                if moment:
                    # Exact moment matching needs no samples: no loss is
                    # estimated and the rng is left alone.
                    father = cluster_a.father.merge_moments(
                        cluster_b.father, cluster_a.weight, cluster_b.weight
                    )
                else:
                    # Drawn now, searched on first read: at once when the
                    # trace reports the fit (DESIGN §17.6).
                    father = _PendingFit(pair, self.config.merge_samples, self._rng)
                    if self._obs.enabled:
                        fit = father.fit(self._obs)
            merged = GlobalCluster(
                cluster_id=next(self._cluster_ids),
                leaves=cluster_a.leaves + cluster_b.leaves,
                father=father,
            )
            # Owe against the pool M_split reads (DESIGN §17.5).
            reference = merged.leaf_mixture().pooled_gaussian()
            for leaf in merged.leaves:
                leaf.merged_into(reference)
            self._clusters[merged.cluster_id] = merged
            self.stats.merges += 1
            if self._obs.enabled:
                if moment:
                    # Only the trace wants a moment merge's loss.  Its
                    # samples come from a stream of their own, so the
                    # coordinator's state is the same observed or not.
                    loss = accuracy_loss(
                        *pair,
                        father,
                        n_samples=self.config.merge_samples,
                        rng=np.random.default_rng(_TRACE_LOSS_SEED),
                    )
                    iterations = evaluations = 0
                else:
                    loss = fit.loss
                    iterations, evaluations = fit.iterations, fit.evaluations
                self._obs.inc("coord.merges")
                self._obs.event(
                    "coord.merge",
                    a=id_a,
                    b=id_b,
                    merged=merged.cluster_id,
                    m_merge=float(m_merge(cluster_a.father, cluster_b.father)),
                    accuracy_loss=float(loss),
                    simplex_iterations=iterations,
                    simplex_evaluations=evaluations,
                    leaves=len(merged.leaves),
                )

    def __repr__(self) -> str:
        return (
            f"Coordinator(clusters={self.n_components}, "
            f"site_models={len(self._site_models)}, "
            f"messages={self.stats.messages_received})"
        )
