"""Crash/resume of one aggregator mid-run (ISSUE satellite 4).

The scenario: an intermediate aggregator checkpoints (model state plus
ARQ edge state), dies, and is rebuilt from the checkpoint while its
children and parent keep their transport state.  The root must converge
to the same mixture as an uninterrupted run -- bit-for-bit, because the
snapshot captures the coordinator's RNG and the upload gate along with
the model set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.data import site_records
from repro.cluster.spec import build_spec
from repro.cluster.tree import TransportTree
from repro.core.serde import CodecConfig
from repro.io.checkpoint import load_aggregator, save_aggregator
from repro.transport.lossy import FaultConfig

from tests.cluster.trees import LOSSY, build_two_level, fast_tree, feed_leaf


def run_two_level(
    crash: bool,
    faults: FaultConfig | None = None,
    via_file=None,
) -> np.ndarray:
    """Feed both gateways in two halves; optionally crash node 1 between."""
    tree = build_two_level(faults)
    feed_leaf(tree, 10, 0.0, 250, 1)
    feed_leaf(tree, 20, 40.0, 250, 2)
    if crash:
        payload = tree.aggregator_snapshot(1)
        if via_file is not None:
            path = save_aggregator(
                tree._internals[1].node, via_file / "agg-1.json",
                arq={"uplink_next_seq": payload["arq"]["uplink_next_seq"],
                     "cursors": payload["arq"]["cursors"]},
            )
            loaded_node, _ = load_aggregator(path)
            assert loaded_node.node_id == 1
        tree.restore_aggregator(payload)
    feed_leaf(tree, 10, 0.0, 250, 3)
    feed_leaf(tree, 20, 40.0, 250, 4)
    mixture = tree.global_mixture()
    tree.close()
    order = np.argsort(mixture.weights)
    return np.concatenate(
        [mixture.weights[order]]
        + [mixture.components[i].mean for i in order]
    )


class TestAggregatorResume:
    @pytest.mark.parametrize("faults", [None, LOSSY], ids=["loopback", "lossy"])
    def test_resume_matches_uninterrupted_run(self, faults):
        baseline = run_two_level(crash=False, faults=faults)
        resumed = run_two_level(crash=True, faults=faults)
        np.testing.assert_allclose(resumed, baseline, atol=1e-9)

    def test_resume_through_checkpoint_file(self, tmp_path):
        baseline = run_two_level(crash=False)
        resumed = run_two_level(crash=True, via_file=tmp_path)
        np.testing.assert_allclose(resumed, baseline, atol=1e-9)

    def test_restored_node_keeps_uploading(self):
        """The rebuilt uplink continues the old sequence numbers, so the
        parent's cursor accepts post-crash uploads instead of treating
        them as replays."""
        tree = build_two_level()
        feed_leaf(tree, 10, 0.0, 250, 1)
        root_delivered = tree.receiver_stats(0).delivered
        assert root_delivered >= 1
        tree.restore_aggregator(tree.aggregator_snapshot(1))
        feed_leaf(tree, 11, 60.0, 250, 2)
        assert tree.receiver_stats(0).delivered > root_delivered
        tree.close()

    def test_restored_node_still_accepts_its_cds2_children(self):
        """The rebuilt receiver decodes what its children send: a CDS2
        payload after the restore is applied, not refused."""
        tree = fast_tree(wire_codec="cds2", codec_config=CodecConfig(delta=True))
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        feed_leaf(tree, 10, 0.0, 250, 1)
        tree.restore_aggregator(tree.aggregator_snapshot(1))
        feed_leaf(tree, 11, 60.0, 250, 2)
        assert tree.receiver_stats(1).delivered == 1  # a fresh receiver
        assert tree.receiver_stats(0).delivered >= 2
        tree.close()


class TestSpecDrivenResume:
    def test_mid_soak_crash_converges(self):
        """A spec-built tree fed from its deterministic site streams
        reaches the same root mixture whether or not a gateway crashed
        and resumed halfway through."""
        spec = build_spec(
            4, 2, seed=5, dim=2, clusters=2, epsilon=0.3, delta=0.1,
            chunk=150, records_per_site=300, p_new=0.0,
            merge_method="moment",
        )
        gateway = next(a for a in spec.aggregators if not a.is_root)

        def run(crash: bool) -> np.ndarray:
            tree = TransportTree.from_spec(spec)
            streams = {
                node.node_id: list(site_records(spec, node.node_id))
                for node in spec.site_nodes
            }
            half = 150
            for node_id, records in streams.items():
                for record in records[:half]:
                    tree.feed(node_id, record)
            tree.drain()
            if crash:
                tree.restore_aggregator(
                    tree.aggregator_snapshot(gateway.node_id)
                )
            for node_id, records in streams.items():
                for record in records[half:]:
                    tree.feed(node_id, record)
            tree.drain()
            mixture = tree.global_mixture()
            tree.close()
            order = np.argsort(mixture.weights)
            return np.concatenate(
                [mixture.weights[order]]
                + [mixture.components[i].mean for i in order]
            )

        np.testing.assert_allclose(run(True), run(False), atol=1e-9)
