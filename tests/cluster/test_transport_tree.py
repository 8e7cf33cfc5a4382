"""The §7 tree suite over the transport stack.

Every edge is a transport link with ARQ.  The tests run twice -- over
synchronous loopback (the in-memory tree) and over a seeded lossy link
-- and the §7 properties (summaries reach the root, stability
suppresses uploads, a root uploads nothing, per-hop byte accounting)
must hold identically: the reliability layer's whole job is to make
faults invisible above it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.io.checkpoint import snapshot_coordinator
from repro.transport.lossy import FaultConfig
from tests.cluster.trees import (
    LOSSY,
    MILD,
    assert_one_summary_per_child,
    build_three_gateways,
    build_two_level,
    fast_tree,
    feed_leaf,
    simplex_root_run,
)
from tests.transport import drain_mark_contract as drain_mark

#: :func:`simplex_root_run` opts in to the paper's L1 simplex merge fit,
#: which 1.17.0 deprecates.
pytestmark = pytest.mark.filterwarnings(
    "ignore:merge_method='simplex':DeprecationWarning"
)

#: The root's ``snapshot_coordinator`` after :func:`simplex_root_run`.
#: Re-record it (only for a deliberate state change) with
#: ``PYTHONPATH=src python -m tests.cluster.test_transport_tree``.
SIMPLEX_ROOT = Path(__file__).parent / "data" / "simplex_root.coordinator.json"


@pytest.fixture(params=["loopback", "lossy"])
def faults(request) -> FaultConfig | None:
    return LOSSY if request.param == "lossy" else None


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

    def test_unknown_leaf_rejected(self):
        tree = build_two_level()
        with pytest.raises(KeyError, match="unknown leaf"):
            tree.feed(99, np.zeros(2))


class TestStreamProcessing:
    def test_summaries_propagate_to_the_root(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 20, 40.0, 250, 2)
        mixture = tree.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].min() < 10.0
        assert means[:, 0].max() > 30.0
        tree.close()

    def test_internal_nodes_upload_only_on_change(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        internal = tree._internals[1].node
        uploads_after_first = internal.messages_up
        assert uploads_after_first >= 1
        # A stable continuation generates no new leaf messages, hence
        # no new uploads -- the §7 stability property, and it must
        # survive a faulty link (retransmissions are not uploads).
        feed_leaf(tree, 10, 0.0, 500, 3)
        assert internal.messages_up == uploads_after_first
        tree.close()

    def test_root_uploads_nothing(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 20, 40.0, 250, 2)
        assert tree.root.coordinator.stats.messages_received >= 2
        assert tree.root.messages_up == tree.root.bytes_up == 0
        assert tree.root._last_uploaded is None
        tree.close()

    def test_root_state_is_the_recorded_one(self):
        tree = simplex_root_run()
        snapshot = snapshot_coordinator(tree.root.coordinator)
        tree.close()
        assert snapshot["stats"]["merges"] > 0
        assert json.dumps(snapshot, indent=1) + "\n" == SIMPLEX_ROOT.read_text()

    def test_lossy_and_loopback_reach_the_same_mixture(self):
        mixtures = []
        for faults in (None, LOSSY):
            tree = build_two_level(faults)
            feed_leaf(tree, 10, 0.0, 250, 1)
            feed_leaf(tree, 20, 40.0, 250, 2)
            mixtures.append(tree.global_mixture())
            tree.close()
        loopback, lossy = mixtures
        assert loopback.n_components == lossy.n_components
        np.testing.assert_allclose(
            np.sort(loopback.weights), np.sort(lossy.weights), atol=1e-9
        )


class TestAccounting:
    def test_per_level_byte_accounting(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        levels = tree.level_stats()
        assert [s.level for s in levels] == [1, 2]
        gateway, leaves = levels
        assert leaves.edges == 4
        assert gateway.edges == 2
        assert leaves.messages >= 1
        assert leaves.wire_bytes >= leaves.payload_bytes > 0
        assert leaves.bytes_per_record > 0
        # Dict form feeds the telemetry publisher.
        assert leaves.as_dict()["level"] == 2
        tree.close()

    def test_total_uplink_bytes_covers_all_edges(self, faults):
        """Exactly the edges that exist: every leaf's and every non-root
        aggregator's uploads, and nothing for the root."""
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        leaf_bytes = sum(site.stats.bytes_sent for site in tree.sites)
        gateway_bytes = sum(
            node.bytes_up for node in tree.internals if node is not tree.root
        )
        assert leaf_bytes > 0 and gateway_bytes > 0
        assert tree.total_uplink_bytes() == leaf_bytes + gateway_bytes
        assert tree.total_uplink_bytes() == sum(
            level.payload_bytes for level in tree.level_stats()
        )
        tree.close()

    def test_faults_cost_retransmissions_not_payloads(self):
        """Same payload accounting either way; only wire traffic grows."""
        heavy = FaultConfig(drop_rate=0.5, duplicate_rate=0.1, delay=0.05)
        stats = {}
        for name, faults in (("loopback", None), ("lossy", heavy)):
            tree = build_two_level(faults)
            feed_leaf(tree, 10, 0.0, 500, 1)
            feed_leaf(tree, 20, 40.0, 500, 2)
            stats[name] = tree.level_stats()
            tree.close()
        for clean, faulty in zip(stats["loopback"], stats["lossy"]):
            assert clean.messages == faulty.messages
            assert clean.payload_bytes == faulty.payload_bytes
            assert clean.retransmissions == 0
        assert sum(s.retransmissions for s in stats["lossy"]) > 0

    def test_receiver_stats_expose_delivery_counts(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        delivered = tree.receiver_stats(1).delivered
        assert delivered >= 1
        assert tree.receiver_stats(2).delivered == 0
        tree.close()


class TestUploadThreshold:
    def test_high_threshold_suppresses_uploads(self, faults):
        tree = fast_tree(faults)
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=1e12)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        feed_leaf(tree, 10, 0.0, 250, 1)
        first_uploads = gateway.messages_up
        feed_leaf(tree, 11, 60.0, 250, 2)
        # The structural change (component count) always uploads; after
        # that, the huge threshold suppresses parameter-level changes.
        assert gateway.messages_up <= first_uploads + 1
        tree.close()

    def test_zero_threshold_uploads_every_change(self, faults):
        tree = fast_tree(faults)
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10, parent_id=1)
        feed_leaf(tree, 10, 0.0, 250, 3)
        assert gateway.messages_up >= 1
        tree.close()


class TestWireCodecs:
    def codec_tree(self, wire_codec="cds1", codec_config=None, faults=None):
        tree = fast_tree(
            faults, wire_codec=wire_codec, codec_config=codec_config
        )
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        return tree

    def run(self, tree):
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 11, 40.0, 250, 2)
        mixture = tree.global_mixture()
        stats = tree.level_stats()
        tree.close()
        return mixture, stats

    def test_cds2_f64_tree_matches_cds1_exactly(self):
        from repro.core.serde import CodecConfig

        reference, _ = self.run(self.codec_tree())
        observed, _ = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=CodecConfig(delta=True)
            )
        )
        assert np.array_equal(reference.weights, observed.weights)
        for ref, obs in zip(reference.components, observed.components):
            assert np.array_equal(ref.mean, obs.mean)
            assert np.array_equal(ref.covariance, obs.covariance)

    def test_level_stats_name_the_codecs(self):
        from repro.core.serde import CodecConfig

        _, stats = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=CodecConfig(quantize="f32")
            )
        )
        for level in stats:
            assert level.codecs == ("cds2",)
            entry = level.as_dict()
            assert entry["codecs"] == ["cds2"]
            assert "delta_hit_rate" in entry
            assert "bytes_saved" in entry

    def test_quantized_tree_ships_fewer_bytes(self):
        from repro.core.serde import CodecConfig

        _, plain = self.run(self.codec_tree())
        _, packed = self.run(
            self.codec_tree(
                wire_codec="cds2",
                codec_config=CodecConfig(quantize="f32", delta=True),
            )
        )
        assert sum(s.payload_bytes for s in packed) < sum(
            s.payload_bytes for s in plain
        )
        assert sum(s.bytes_saved for s in packed) > 0

    def test_mixed_codec_edges_interoperate(self):
        from repro.core.serde import CodecConfig

        tree = self.codec_tree()  # tree-wide default: cds1
        tree.add_leaf(
            12,
            parent_id=1,
            wire_codec="cds2",
            codec_config=CodecConfig(quantize="f32"),
        )
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 12, 40.0, 250, 2)
        mixture = tree.global_mixture()
        assert mixture.n_components >= 2
        leaf_level = tree.level_stats()[-1]
        assert leaf_level.codecs == ("cds1", "cds2")
        tree.close()

    def test_quantized_lossy_tree_still_converges(self):
        from repro.core.serde import CodecConfig

        config = CodecConfig(quantize="f32", delta=True)
        clean, _ = self.run(
            self.codec_tree(wire_codec="cds2", codec_config=config)
        )
        faulty, _ = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=config, faults=LOSSY
            )
        )
        assert clean.n_components == faulty.n_components
        np.testing.assert_allclose(
            np.sort(clean.weights), np.sort(faulty.weights), atol=1e-9
        )


class TestSummaryReplacesItsPredecessor:
    @pytest.mark.parametrize("faults", [None, MILD], ids=["loopback", "lossy"])
    def test_parent_holds_one_model_per_child(self, faults):
        tree = build_three_gateways(faults)
        children = [tree._internals[node_id].node for node_id in (1, 2, 3)]
        for round_index, center in enumerate((0.0, 30.0, 60.0)):
            for child in children:
                for leaf in (0, 1):
                    feed_leaf(
                        tree,
                        10 * child.node_id + leaf,
                        center + 7.0 * child.node_id,
                        250,
                        seed=10 * round_index + leaf,
                    )
            assert_one_summary_per_child(tree.root, children)
        assert all(child.messages_up >= 3 for child in children)
        if faults is not None:
            assert sum(s.retransmissions for s in tree.level_stats()) > 0
        tree.close()

    def test_snapshot_with_next_model_id_still_loads(self):
        """Aggregator snapshots written when every upload took a fresh
        model id carry ``next_model_id``; the key is ignored."""
        tree = build_three_gateways(None)
        children = [tree._internals[node_id].node for node_id in (1, 2, 3)]
        for child in children:
            feed_leaf(tree, 10 * child.node_id, 7.0 * child.node_id, 250, 1)
        payload = tree.aggregator_snapshot(1)
        assert "next_model_id" not in payload
        payload["next_model_id"] = 7
        children[0] = tree.restore_aggregator(payload)
        feed_leaf(tree, 11, 60.0, 250, 2)
        assert children[0].messages_up >= 2
        assert_one_summary_per_child(tree.root, children)
        tree.close()


class TestDrainMark:
    """``feed`` drains only when something was sent since the last
    drain: the contract of ``tests/transport/drain_mark_contract.py``,
    for the tree."""

    def test_same_run_as_draining_after_every_record(self, monkeypatch):
        drains = drain_mark.count_drains(monkeypatch)
        for link in sorted(drain_mark.LINKS):
            drain_mark.check_marked_run_equals_settling_after_every_record(
                drain_mark.TreeDriver, link, drains
            )

    def test_send_outside_feed_is_drained_by_the_next_feed(self):
        drain_mark.check_send_outside_the_record_call_rides_the_next_record(
            drain_mark.TreeDriver
        )

    def test_dead_link_still_raises_after_drain_limit(self):
        drain_mark.check_dead_link_raises_and_leaves_the_mark_set(
            drain_mark.TreeDriver
        )


if __name__ == "__main__":
    tree = simplex_root_run()
    snapshot = snapshot_coordinator(tree.root.coordinator)
    tree.close()
    SIMPLEX_ROOT.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {SIMPLEX_ROOT}")
