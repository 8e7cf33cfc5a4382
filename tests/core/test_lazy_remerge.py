"""Re-merge distances are computed on read, and nothing else changes.

A merge records the pool each leaf joined (``Leaf.merged_into``); its
``M_remerge`` distance is computed the first time ``remerge_distance``
is read and kept.  These counting pins hold that a merge cascade
computes a distance only for the leaves whose distance is then read,
that a checkpoint taken while distances are owed is byte for byte the
eager coordinator's, and that the owed pool is no part of a leaf's
equality or repr.  That the distances themselves equal the eager ones
after every message is ``tests/core/test_coordinator_identity.py``'s
oracle.

Re-record the fixture (only for a deliberate state change) with
``PYTHONPATH=src python -m tests.core.test_lazy_remerge``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.coordinator import (
    Coordinator,
    CoordinatorConfig,
    GlobalCluster,
    Leaf,
)
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.io.checkpoint import snapshot_coordinator

#: ``snapshot_coordinator`` of :func:`cascade` with every distance still
#: owed, as written by the coordinator that computed each at merge time.
FIXTURE = Path(__file__).parent / "data" / "coordinator_unread_scores.json"

ANCHORS = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])


def cascade() -> Coordinator:
    """Six sites announce three components each under a cap of two:
    every announcement merges, and leaves of the other sites keep the
    distances those merges owe them."""
    rng = np.random.default_rng(2024)
    coordinator = Coordinator(
        CoordinatorConfig(max_components=2, merge_method="moment"),
        rng=np.random.default_rng(1),
    )
    for site in range(6):
        components = []
        for anchor in ANCHORS[rng.choice(len(ANCHORS), size=3, replace=False)]:
            root = rng.standard_normal((2, 2))
            components.append(
                Gaussian(
                    anchor + 0.5 * rng.standard_normal(2),
                    root @ root.T / 4 + 0.2 * np.eye(2),
                )
            )
        coordinator.handle_message(
            ModelUpdateMessage(
                site_id=site, model_id=0, time=site,
                mixture=GaussianMixture(
                    rng.dirichlet(np.ones(3)), tuple(components)
                ),
                count=int(rng.integers(200, 800)),
                reference_likelihood=-2.0,
            )
        )
    return coordinator


def owed(coordinator: Coordinator) -> list[Leaf]:
    return [
        leaf
        for cluster in coordinator.clusters
        for leaf in cluster.leaves
        if leaf._merged_into is not None
    ]


def test_a_merge_cascade_computes_only_the_scores_it_reads(monkeypatch):
    calls: Counter = Counter()
    reads = {"owed": 0}
    score_of = Gaussian.symmetric_mahalanobis_sq
    read, write = Leaf.remerge_distance.fget, Leaf.remerge_distance.fset

    def counted(self, other):
        calls[sys._getframe(1).f_code.co_name] += 1
        return score_of(self, other)

    def counted_read(leaf):
        reads["owed"] += leaf._merged_into is not None
        return read(leaf)

    merged = []
    merge_clusters = Coordinator._merge_clusters

    def merge(self, id_a, id_b):
        merged.append(
            len(self._clusters[id_a].leaves) + len(self._clusters[id_b].leaves)
        )
        return merge_clusters(self, id_a, id_b)

    monkeypatch.setattr(Gaussian, "symmetric_mahalanobis_sq", counted)
    monkeypatch.setattr(Leaf, "remerge_distance", property(counted_read, write))
    monkeypatch.setattr(Coordinator, "_merge_clusters", merge)
    coordinator = cascade()

    assert coordinator.stats.merges == len(merged) > 5
    assert calls["_merge_clusters"] == 0
    # One evaluation per read of an owed distance: 17, where computing one
    # per merged leaf at merge time cost 92.
    assert calls["_read_remerge_distance"] == reads["owed"] == 17
    assert sum(merged) == 92

    unread = owed(coordinator)
    assert unread
    before = calls["_read_remerge_distance"]
    first = [leaf.remerge_distance for leaf in unread]
    assert calls["_read_remerge_distance"] == before + len(unread)
    assert [leaf.remerge_distance for leaf in unread] == first  # kept
    assert calls["_read_remerge_distance"] == before + len(unread)
    assert not owed(coordinator)


def test_a_checkpoint_with_unread_scores_is_the_eager_one():
    coordinator = cascade()
    assert owed(coordinator)
    text = json.dumps(snapshot_coordinator(coordinator), sort_keys=True)
    assert text == FIXTURE.read_text().rstrip("\n")


def test_the_owed_father_is_no_part_of_a_leaf():
    rng = np.random.default_rng(4)
    gaussian = Gaussian(rng.standard_normal(3), np.eye(3))
    father = Gaussian(rng.standard_normal(3), 2.0 * np.eye(3))
    distance = gaussian.symmetric_mahalanobis_sq(father)
    owing = Leaf(1, 2, 0, gaussian, 3.5)
    owing.merged_into(father)
    eager = Leaf(1, 2, 0, gaussian, 3.5, remerge_distance=distance)
    assert "_merged_into" not in repr(owing)
    assert repr(owing) == repr(eager)
    assert owing == eager
    spec = {f.name: f for f in dataclasses.fields(Leaf)}["_merged_into"]
    assert not (spec.init or spec.repr or spec.compare)
    # A distance set outright drops whatever was owed.
    owing.merged_into(father)
    owing.remerge_distance = 0.25
    assert owing._merged_into is None and owing.remerge_distance == 0.25


def test_removing_a_leaf_goes_by_identity_and_rejects_a_non_member():
    gaussian = Gaussian(np.zeros(2), np.eye(2))
    member = Leaf(0, 0, 0, gaussian, 1.0)
    twin = Leaf(0, 0, 0, gaussian, 1.0)  # equal, but not the member
    cluster = GlobalCluster(0, [member])
    with pytest.raises(ValueError, match="not in list"):
        cluster.remove(twin)
    assert cluster.leaves == [member]
    cluster.remove(member)
    assert cluster.leaves == []


def _record() -> None:
    """Write the fixture from a coordinator that computes every owed
    distance at merge time."""

    def eager(leaf, reference):
        leaf.remerge_distance = leaf.gaussian.symmetric_mahalanobis_sq(reference)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Leaf, "merged_into", eager)
        coordinator = cascade()
        assert not owed(coordinator)
        text = json.dumps(snapshot_coordinator(coordinator), sort_keys=True)
    FIXTURE.write_text(text + "\n")
    print(f"recorded {FIXTURE}")


if __name__ == "__main__":
    _record()
