"""Tests for the tree-structured network extension (paper section 7).

The node semantics (:class:`repro.cluster.hop.InternalNode`) on the
synchronous in-memory network: a :class:`~repro.cluster.tree.TransportTree`
over its default loopback links, where delivery is synchronous -- nothing
here ever calls ``drain()``.  ``tests/cluster/test_transport_tree.py``
runs the same properties over seeded lossy links as well, with a drain
after every feed; ``tests/cluster/test_hop.py`` holds the
``mixture_change`` tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tree import TransportTree
from tests.cluster.trees import (
    assert_one_summary_per_child,
    build_two_level,
    fast_tree,
    mixture_at,
)


class TestTopology:
    def test_single_root_enforced(self):
        tree = fast_tree()
        tree.add_internal(0)
        with pytest.raises(ValueError, match="root"):
            tree.add_internal(1)

    def test_duplicate_ids_rejected(self):
        tree = fast_tree()
        tree.add_internal(0)
        with pytest.raises(ValueError, match="already used"):
            tree.add_leaf(0, parent_id=0)

    def test_leaf_requires_internal_parent(self):
        tree = fast_tree()
        tree.add_internal(0)
        tree.add_leaf(1, parent_id=0)
        with pytest.raises(ValueError, match="not an internal node"):
            tree.add_leaf(2, parent_id=1)

    def test_root_property(self):
        tree = fast_tree()
        with pytest.raises(ValueError, match="no root"):
            _ = tree.root
        root = tree.add_internal(0)
        assert tree.root is root


class TestStreamProcessing:
    def feed_leaf(self, tree: TransportTree, leaf_id: int, center: float,
                  n: int, seed: int) -> None:
        """No ``drain()``: in memory, ``feed`` alone propagates."""
        points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
        for row in points:
            tree.feed(leaf_id, row)

    def test_summaries_propagate_to_the_root(self):
        tree = build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        self.feed_leaf(tree, 20, 40.0, 250, 2)
        mixture = tree.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].min() < 10.0
        assert means[:, 0].max() > 30.0

    def test_internal_nodes_upload_only_on_change(self):
        tree = build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        internal = tree.internals[1]  # node 1
        uploads_after_first = internal.messages_up
        assert uploads_after_first >= 1
        # A stable continuation generates no new leaf messages, hence no
        # new uploads.
        self.feed_leaf(tree, 10, 0.0, 500, 3)
        assert internal.messages_up == uploads_after_first

    def test_uplink_bytes_accounted_per_level(self):
        tree = build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        assert tree.total_uplink_bytes() > 0
        leaf_bytes = sum(site.stats.bytes_sent for site in tree.sites)
        assert tree.total_uplink_bytes() >= leaf_bytes

    def test_unknown_leaf_rejected(self):
        tree = build_two_level()
        with pytest.raises(KeyError, match="unknown leaf"):
            tree.feed(99, np.zeros(2))


class TestUploadThreshold:
    def test_high_threshold_suppresses_uploads(self):
        tree = fast_tree()
        tree.add_internal(0)
        # An effectively infinite threshold: the gateway absorbs child
        # updates but never bothers the root after its first upload.
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=1e12)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        points_a, _ = mixture_at(0.0).sample(250, np.random.default_rng(1))
        for row in points_a:
            tree.feed(10, row)
        first_uploads = gateway.messages_up
        points_b, _ = mixture_at(60.0).sample(250, np.random.default_rng(2))
        for row in points_b:
            tree.feed(11, row)
        # The structural change (component count) always uploads; after
        # that, the huge threshold suppresses parameter-level changes.
        assert gateway.messages_up <= first_uploads + 1

    def test_zero_threshold_uploads_every_change(self):
        tree = fast_tree()
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10, parent_id=1)
        points, _ = mixture_at(0.0).sample(250, np.random.default_rng(3))
        for row in points:
            tree.feed(10, row)
        assert gateway.messages_up >= 1


class TestSummaryReplacesItsPredecessor:
    def test_parent_holds_one_model_per_child(self):
        tree = fast_tree()
        root = tree.add_internal(0)
        children = [
            tree.add_internal(node_id, parent_id=0, upload_threshold=0.0)
            for node_id in (1, 2, 3)
        ]
        for child in children:
            for leaf in (0, 1):
                tree.add_leaf(10 * child.node_id + leaf, parent_id=child.node_id)
        rng = np.random.default_rng(4)
        for round_index, center in enumerate((0.0, 30.0, 60.0)):
            for child in children:
                for leaf in (0, 1):
                    points, _ = mixture_at(center + 7.0 * child.node_id).sample(
                        250, rng
                    )
                    for row in points:
                        tree.feed(10 * child.node_id + leaf, row)
            assert all(child.messages_up >= round_index + 1 for child in children)
            assert_one_summary_per_child(root, children)
        assert all(child.messages_up >= 3 for child in children)
