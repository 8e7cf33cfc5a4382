"""Algorithm 2 splits a leaf for a real reason, and the leaf re-homes.

A leaf is split out when ``M_split`` -- its distance to the cluster's
pool -- exceeds the distance it was owed at its last (re)merge.  Since
only the updating site's leaves are scored (DESIGN §17.3), a real split
needs a weight update that moves a pool away from one of that site's
leaves.  :func:`~tests.core.test_merge_fit_identity._recurring_run` has
one: each site leaves regime 0 for regime 1 and comes back, and the cap
of three puts site 1's regime-1 model into the regime-0 cluster.  When
site 1's regime-0 model regains weight, that cluster's pool moves away
from the regime-1 leaves.  They split out, are too far from every father
to attach, and the cap cascade merges them with site 2's regime-1 model.
"""

from __future__ import annotations

from repro.core.coordinator import Coordinator
from repro.core.merging import fit_merged_component
from tests.core.test_merge_fit_identity import _recurring_run

REGIME_0 = frozenset(
    (site, model, component)
    for site, model in ((0, 0), (0, 1), (1, 0), (2, 0), (3, 0))
    for component in (0, 1)
)


def groups(coordinator: Coordinator) -> set[frozenset]:
    return {
        frozenset(leaf.key for leaf in cluster.leaves)
        for cluster in coordinator.clusters
    }


def splitting_messages(monkeypatch) -> list[tuple]:
    """``(kind, site, model, split, groups before, groups after)`` of
    every message of the recurring run that split a leaf."""
    splits = []
    handle = Coordinator.handle_message

    def recording(self, message):
        before, count = groups(self), self.stats.splits
        handle(self, message)
        if self.stats.splits != count:
            splits.append(
                (
                    type(message).__name__,
                    message.site_id,
                    message.model_id,
                    self.stats.splits - count,
                    before,
                    groups(self),
                )
            )

    monkeypatch.setattr(Coordinator, "handle_message", recording)
    _recurring_run(monkeypatch, fit_merged_component)
    return splits


def test_only_weight_updates_split(monkeypatch):
    splits = splitting_messages(monkeypatch)
    assert [split[:4] for split in splits] == [
        ("WeightUpdateMessage", 0, 0, 2),
        ("WeightUpdateMessage", 1, 0, 2),
        ("WeightUpdateMessage", 2, 0, 2),
    ]
    # Sites 0 and 2's split leaves merge back into the cluster they left.
    for _, _, _, _, before, after in (splits[0], splits[2]):
        assert before == after


def test_a_split_model_re_homes_with_its_regime(monkeypatch):
    _, _, _, _, before, after = splitting_messages(monkeypatch)[1]
    moved = {(1, 1, 0), (1, 1, 1)}
    site_2_regime_1 = {(2, 1, 0), (2, 1, 1)}
    site_3_regime_1 = frozenset({(3, 1, 0), (3, 1, 1)})
    assert before == {
        REGIME_0 | moved,
        frozenset(site_2_regime_1),
        site_3_regime_1,
    }
    assert after == {
        REGIME_0,
        frozenset(moved | site_2_regime_1),
        site_3_regime_1,
    }
