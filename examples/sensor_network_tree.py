#!/usr/bin/env python
"""Sensor network with a tree-structured communication hierarchy (§7).

A field of sensors reports through two aggregation gateways to one base
station.  Leaves run CluDistream remote-site processing on their local
measurement streams; each gateway runs coordinator logic over its
children and uploads its summary to the base station only when its
locally-observed mixture changes.  The base station ends up with a
Gaussian mixture over the union of all sensor streams while most
traffic stays inside the subtrees.

Run:  python examples/sensor_network_tree.py
"""

from __future__ import annotations

import numpy as np

from repro import EMConfig, RemoteSiteConfig
from repro.cluster import TransportTree
from repro.core.coordinator import CoordinatorConfig
from repro.streams import EvolvingGaussianStream, EvolvingStreamConfig

SENSORS_PER_GATEWAY = 3
RECORDS_PER_SENSOR = 4_000


def main() -> None:
    tree = TransportTree(
        site_config=RemoteSiteConfig(
            dim=3,  # e.g. temperature, humidity, particulates
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=3, n_init=1, max_iter=40),
            chunk_override=800,
        ),
        coordinator_config=CoordinatorConfig(max_components=6),
        seed=21,
    )

    base_station = tree.add_internal(0)
    # Gateways only upload when their local summary changes materially.
    gateways = [
        tree.add_internal(1, parent_id=0, upload_threshold=1.0),
        tree.add_internal(2, parent_id=0, upload_threshold=1.0),
    ]
    leaf_ids = []
    for g_index, gateway in enumerate(gateways):
        for s_index in range(SENSORS_PER_GATEWAY):
            leaf_id = 10 * (g_index + 1) + s_index
            tree.add_leaf(leaf_id, parent_id=gateway.node_id)
            leaf_ids.append(leaf_id)

    streams = {
        leaf_id: EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=3,
                n_components=3,
                segment_length=1500,
                p_new_distribution=0.15,
            ),
            rng=np.random.default_rng(2000 + leaf_id),
        )
        for leaf_id in leaf_ids
    }

    print(
        f"Streaming {RECORDS_PER_SENSOR} measurements from each of "
        f"{len(leaf_ids)} sensors through 2 gateways..."
    )
    iterators = {leaf_id: iter(s) for leaf_id, s in streams.items()}
    for _ in range(RECORDS_PER_SENSOR):
        for leaf_id, iterator in iterators.items():
            tree.feed(leaf_id, next(iterator))

    print("\n=== Traffic per tree level ===")
    leaf_bytes = sum(site.stats.bytes_sent for site in tree.sites)
    print(f"sensor -> gateway: {leaf_bytes} bytes")
    for gateway in gateways:
        print(
            f"gateway {gateway.node_id} -> base station: "
            f"{gateway.bytes_up} bytes ({gateway.messages_up} uploads)"
        )
    print(
        f"base-station inbound: "
        f"{base_station.coordinator.stats.bytes_received} bytes"
    )

    print("\n=== Base-station view of the whole field ===")
    mixture = tree.global_mixture()
    for weight, component in sorted(mixture, key=lambda pair: pair[0], reverse=True):
        print(f"  w={weight:.3f}  mean={np.round(component.mean, 2)}")

    gateway_bytes = sum(g.bytes_up for g in gateways)
    gateway_uploads = sum(g.messages_up for g in gateways)
    leaf_messages = sum(site.stats.messages_sent for site in tree.sites)
    print(
        f"\nStability across the hierarchy: {leaf_messages} leaf model "
        f"updates were absorbed into {gateway_uploads} gateway uploads "
        f"({leaf_bytes} B -> {gateway_bytes} B); gateways stay quiet "
        f"while their subtree's distribution is stable."
    )


if __name__ == "__main__":
    main()
