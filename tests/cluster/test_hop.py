"""The §7 node on its own: the upload gate's change score, the
children's receiver every caller builds with ``listen``, and the
telemetry routing every node holds on its hop.

The node's behaviour inside a tree -- summaries reaching the root,
stability suppressing uploads, a root uploading nothing -- is
``test_transport_tree.py``'s, on loopback and lossy links.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.hop import mixture_change
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import WeightUpdateMessage
from repro.obs import NodeTelemetry, Observer
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from tests.cluster.trees import (
    build_two_level,
    fast_tree,
    feed_leaf,
    root_hop,
    wire_edge,
)
from tests.transport.test_endpoint import model_update, quiet_config


class TestMixtureChange:
    def test_none_baseline_always_changes(self, mixture_2d):
        assert mixture_change(None, mixture_2d) == float("inf")

    def test_identical_mixtures_score_zero(self, mixture_2d):
        assert mixture_change(mixture_2d, mixture_2d) == pytest.approx(0.0)

    def test_component_count_change_is_structural(self, mixture_2d, mixture_1d):
        single = GaussianMixture.single(mixture_2d.components[0])
        assert mixture_change(mixture_2d, single) == float("inf")

    def test_moved_component_scores_positive(self, mixture_2d):
        moved = GaussianMixture(
            mixture_2d.weights,
            (
                Gaussian.spherical(np.array([1.0, 1.0]), 0.5),
            )
            + mixture_2d.components[1:],
        )
        assert mixture_change(mixture_2d, moved) > 0.1


class TestListen:
    """A root hop's receiver: decode, apply, and the children's liveness."""

    def make_pair(self, site_id: int = 1):
        transport = LoopbackTransport()
        clock = ManualClock()
        hop = root_hop(transport, clock, quiet_config(stale_after=5.0))
        site_endpoint = wire_edge(
            site_id, transport, clock, quiet_config(stale_after=5.0)
        )
        return clock, hop, site_endpoint

    def test_messages_are_decoded_and_applied(self):
        _, hop, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1, count=150))
        coordinator = hop.node.coordinator
        assert (1, 0) in coordinator.site_models
        assert coordinator.site_models[(1, 0)][1] == 150
        assert site_endpoint.outstanding() == 0  # ack came straight back

    def test_stale_site_is_reported_then_recovers(self):
        clock, hop, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1))
        clock.advance(10.0)
        assert hop.receiver.stale_sites() == (1,)
        site_endpoint.send(WeightUpdateMessage(site_id=1, model_id=0, time=2, count_delta=5))
        assert hop.receiver.stale_sites() == ()

    def test_done_sites_are_not_evicted(self):
        # A site that sent DONE is never stale, however long it is
        # silent, and its synopses stay in the global model.
        clock, hop, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1))
        site_endpoint.finish()
        clock.advance(100.0)
        assert hop.receiver.stale_sites() == ()
        assert (1, 0) in hop.node.coordinator.site_models

    def test_every_hop_of_a_tree_times_its_decoding(self):
        observer = Observer()
        tree = fast_tree(observer=observer)
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10, parent_id=1)
        feed_leaf(tree, 10, 0.0, 750, 1)
        root, gateway = tree._internals[0], tree._internals[1]
        delivered = [w.receiver.stats.delivered for w in (root, gateway)]
        assert min(delivered) > 0
        decoded = observer.registry.histogram("profile.serde_decode").count
        assert decoded == sum(delivered)
        tree.close()


class TestTelemetryRouting:
    def test_root_collects_and_gateways_relay(self):
        tree = fast_tree(federate=True)
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0)
        tree.add_leaf(10, parent_id=1)
        root, gateway = tree._internals[0], tree._internals[1]
        assert root.collector is tree.federation and root.relay is None
        assert gateway.collector is None and gateway.relay is not None
        child_report = NodeTelemetry(
            node_id=10, role="site", level=2, pid=1, seq=1
        ).to_payload()
        gateway.on_telemetry(10, child_report)
        assert len(gateway.relay) == 1
        # A gateway forwards what it relayed, then its own report; the
        # root ingests both, and its own report, sending nothing.
        assert gateway.flush_telemetry() == 2
        assert len(gateway.relay) == 0
        assert root.flush_telemetry() == 0
        per_node = tree.federation.rollup()["per_node"]
        assert sorted(entry["node"] for entry in per_node) == [0, 1, 10]
        tree.close()

    def test_root_survives_a_malformed_child_report(self):
        from tests.obs.test_federation import MALFORMED

        tree = fast_tree(federate=True)
        tree.add_internal(0)
        root = tree._internals[0]
        for payload in MALFORMED.values():
            root.on_telemetry(10, payload)
        assert tree.federation.rejected == len(MALFORMED)
        assert tree.federation.rollup()["nodes"]["reporting"] == 0
        assert root.flush_telemetry() == 0
        assert tree.federation.rollup()["nodes"]["reporting"] == 1
        tree.close()

    def test_gauges_follow_a_restored_node(self):
        tree = build_two_level()
        feed_leaf(tree, 10, 0.0, 250, 1)
        wiring = tree._internals[1]
        before = wiring.gauges()
        assert before["messages_up"] >= 1
        restored = tree.restore_aggregator(tree.aggregator_snapshot(1))
        assert wiring.node is restored
        assert wiring.gauges() == before
        tree.close()
