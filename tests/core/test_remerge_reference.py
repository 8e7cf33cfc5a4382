"""Algorithm 2 tests a leaf against one father: ``M_remerge``'s is ``M_split``'s.

A leaf splits out when ``M_split(i, Mix)`` exceeds the distance behind
``M_remerge(i, Mix)``; the leaf keeps that distance, never its
reciprocal.  ``M_split`` is measured against the cluster's moment pool,
so every merge owes its leaves' distance against that same pool -- the
object ``merged.leaf_mixture().pooled_gaussian()`` caches -- and not
against the searched vertex, which the next ``refresh_father`` replaces,
nor against a moment merge's father, which equals the pool only up to
rounding.  An owed distance is to a ``Gaussian``, so reading one never
runs a downhill-simplex search (DESIGN §17.5, §17.6).
"""

from __future__ import annotations

import numpy as np

from repro.core.coordinator import Coordinator, CoordinatorConfig, Leaf
from repro.core.gaussian import Gaussian
from repro.core.merging import m_split
from repro.core.mixture import GaussianMixture
from repro.io.checkpoint import snapshot_coordinator
from tests.core.test_merge_fit_on_read import counting

CAP = 3


def cascade(merge_method: str) -> Coordinator:
    """Twelve one-leaf clusters on a 6-spaced grid (none attaches to
    another) merged down to :data:`CAP`, nested merges included; no
    message, so no ``on_updates`` reads a score or refreshes a father."""
    rng = np.random.default_rng(2040)
    coordinator = Coordinator(
        CoordinatorConfig(
            max_components=CAP, merge_method=merge_method, merge_samples=128
        ),
        rng=np.random.default_rng(3),
    )
    for site in range(12):
        root = rng.standard_normal((2, 2))
        gaussian = Gaussian(
            6.0 * np.array([site % 4, site // 4]) + 0.3 * rng.standard_normal(2),
            root @ root.T / 8 + 0.3 * np.eye(2),
        )
        count = int(rng.integers(100, 1000))
        coordinator._site_models[(site, 0)] = (
            GaussianMixture(np.ones(1), (gaussian,)), count
        )
        coordinator._attach(Leaf(site, 0, 0, gaussian, float(count)))
    assert coordinator.n_components == 12
    coordinator._enforce_component_cap()
    assert coordinator.n_components == CAP
    assert coordinator.stats.merges == 12 - CAP
    return coordinator


def merged_clusters(coordinator: Coordinator) -> list:
    clusters = [c for c in coordinator.clusters if len(c.leaves) > 1]
    assert clusters
    return clusters


def test_a_simplex_cascade_owes_every_score_against_its_clusters_pool(
    monkeypatch,
):
    coordinator = cascade("simplex")
    calls = counting(monkeypatch)
    for cluster in merged_clusters(coordinator):
        pool = cluster.leaf_mixture().pooled_gaussian()
        assert all(leaf._merged_into is pool for leaf in cluster.leaves)
    distances = [
        leaf.remerge_distance
        for cluster in coordinator.clusters
        for leaf in cluster.leaves
    ]
    assert np.isfinite(distances).sum() > CAP
    assert calls == []
    # The fathers are still pending: reading them is what searches.
    for cluster in merged_clusters(coordinator):
        cluster.father
    assert 0 < len(calls) <= CAP


def test_the_owed_distance_is_the_split_distance_bit_for_bit():
    coordinator = cascade("simplex")
    for cluster in merged_clusters(coordinator):
        # A fresh pool of the same leaves, in order: the cache is a
        # function of the membership alone.
        fresh = GaussianMixture(
            np.array([leaf.weight for leaf in cluster.leaves]),
            tuple(leaf.gaussian for leaf in cluster.leaves),
        ).pooled_gaussian()
        for leaf in cluster.leaves:
            distance = m_split(leaf.gaussian, cluster.leaf_mixture())
            assert distance == leaf.gaussian.symmetric_mahalanobis_sq(fresh)
            assert leaf.remerge_distance == distance


def test_a_moment_merge_owes_against_the_merged_pool():
    coordinator = cascade("moment")
    for cluster in merged_clusters(coordinator):
        pool = cluster.leaf_mixture().pooled_gaussian()
        assert cluster.father is not pool
        assert all(leaf._merged_into is pool for leaf in cluster.leaves)


def test_a_checkpoint_with_every_score_owed_runs_at_most_one_search_per_cluster(
    monkeypatch,
):
    coordinator = cascade("simplex")
    calls = counting(monkeypatch)
    leaves = [leaf for c in merged_clusters(coordinator) for leaf in c.leaves]
    assert all(leaf._merged_into is not None for leaf in leaves)
    snapshot_coordinator(coordinator)
    assert 0 < len(calls) <= coordinator.config.max_components


def test_a_checkpoint_after_the_fathers_are_refreshed_runs_no_search(
    monkeypatch,
):
    """The pending fits are overwritten while every score is still owed:
    nothing left to read refers to them."""
    coordinator = cascade("simplex")
    calls = counting(monkeypatch)
    coordinator._refresh_fathers()
    leaves = [leaf for c in merged_clusters(coordinator) for leaf in c.leaves]
    assert all(leaf._merged_into is not None for leaf in leaves)
    snapshot_coordinator(coordinator)
    assert calls == []
