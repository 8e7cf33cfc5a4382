"""Small seeded trees shared by the §7 suites (not a test module).

``tests/cluster/test_transport_tree.py`` (the §7 node semantics, on
loopback and lossy links), ``test_aggregator_resume.py``,
``tests/multilayer/test_tree.py`` (the same semantics on loopback links
without ``drain()``) and ``tests/transport/drain_mark_contract.py`` all
build their trees and feed them from here; ``test_hop.py`` and
``tests/transport/test_endpoint.py`` build a bare one-level root with
:func:`root_hop` and the edges sending into it with :func:`wire_edge`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.hop import AggregatorHop, InternalNode
from repro.cluster.tree import TransportTree
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from repro.obs.observer import ensure_observer
from repro.transport.endpoint import SiteEndpoint
from repro.transport.lossy import FaultConfig

LOSSY = FaultConfig(drop_rate=0.2, duplicate_rate=0.1, delay=0.05)
#: The fault mix of the e2e ``tree_lossy`` workload.
MILD = FaultConfig(drop_rate=0.10, duplicate_rate=0.03, reorder_rate=0.03)


def root_hop(transport, clock, config=None) -> AggregatorHop:
    """A fresh coordinator as the root of a one-level tree, listening on
    ``transport`` -- the root :class:`repro.runtime.TransportChannel` wires."""
    hop = AggregatorHop(
        InternalNode(-1, Coordinator()), 0, ensure_observer(None)
    )
    transport.bind_coordinator(
        hop.listen(transport.send_to_site, clock, config).handle_datagram
    )
    return hop


def wire_edge(site_id, transport, clock, config=None, **kwargs) -> SiteEndpoint:
    """An uplink edge from ``site_id`` into ``transport``, acks routed
    back into its sender -- as :class:`repro.cluster.tree.TransportTree`
    wires each of its edges into its parent's subnet."""
    edge = SiteEndpoint(
        site_id,
        lambda data: transport.send_to_coordinator(site_id, data),
        clock,
        config,
        **kwargs,
    )
    transport.bind_site(site_id, edge.sender.handle_datagram)
    return edge


def fast_tree(
    faults: FaultConfig | None = None,
    coordinator_config: CoordinatorConfig | None = None,
    **kwargs,
) -> TransportTree:
    return TransportTree(
        site_config=RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
            chunk_override=250,
        ),
        coordinator_config=coordinator_config
        or CoordinatorConfig(max_components=4, merge_method="moment"),
        seed=0,
        faults=faults,
        **kwargs,
    )


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def build_two_level(faults: FaultConfig | None = None) -> TransportTree:
    """root(0) <- internal(1), internal(2); two leaves under each."""
    tree = fast_tree(faults)
    tree.add_internal(0)
    tree.add_internal(1, parent_id=0)
    tree.add_internal(2, parent_id=0)
    tree.add_leaf(10, parent_id=1)
    tree.add_leaf(11, parent_id=1)
    tree.add_leaf(20, parent_id=2)
    tree.add_leaf(21, parent_id=2)
    return tree


def build_three_gateways(faults: FaultConfig | None) -> TransportTree:
    """root(0) <- gateways 1..3, two leaves each, uploading every change."""
    tree = fast_tree(faults)
    tree.add_internal(0)
    for node_id in (1, 2, 3):
        tree.add_internal(node_id, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10 * node_id, parent_id=node_id)
        tree.add_leaf(10 * node_id + 1, parent_id=node_id)
    return tree


def feed_leaf(
    tree: TransportTree, leaf_id: int, center: float, n: int, seed: int
) -> None:
    points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
    for row in points:
        tree.feed(leaf_id, row)
    tree.drain()


def assert_one_summary_per_child(root, children, cap=4):
    """The replace-in-place contract, seen from a parent coordinator:
    one site model per child that uploaded, the mass of the children's
    latest summaries and no more leaves than children x cap."""
    models = root.coordinator.site_models
    assert sorted(models) == [(child.node_id, 0) for child in children]
    mass = sum(cluster.weight for cluster in root.coordinator.clusters)
    assert mass == pytest.approx(sum(count for _, count in models.values()))
    # With upload_threshold=0 the latest summary is the current state.
    assert mass == pytest.approx(
        sum(
            max(1, round(sum(c.weight for c in child.coordinator.clusters)))
            for child in children
        )
    )
    leaves = sum(len(cluster.leaves) for cluster in root.coordinator.clusters)
    assert leaves <= len(children) * cap
    assert root.coordinator.check_invariants() == []


def simplex_root_run() -> TransportTree:
    """root(0) <- gateways 1, 2 uploading every change, two leaves each,
    over the ``tree_lossy`` fault mix; every coordinator caps at two
    components and merges by simplex fit, so the root merges and splits
    its gateways' summaries."""
    tree = fast_tree(
        MILD, CoordinatorConfig(max_components=2, merge_method="simplex")
    )
    tree.add_internal(0)
    for node_id in (1, 2):
        tree.add_internal(node_id, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10 * node_id, parent_id=node_id)
        tree.add_leaf(10 * node_id + 1, parent_id=node_id)
    for round_index, center in enumerate((0.0, 30.0)):
        for node_id in (1, 2):
            for leaf in (0, 1):
                feed_leaf(
                    tree,
                    10 * node_id + leaf,
                    center + 9.0 * node_id + 3.0 * leaf,
                    250,
                    seed=10 * round_index + 2 * node_id + leaf,
                )
    return tree
