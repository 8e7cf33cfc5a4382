#!/usr/bin/env python
"""The §7 tree at deployment scale (self-checking).

Two demonstrations on the in-process :class:`TransportTree`, where every
tree edge is a real ARQ transport link:

1. **Soak**: many sites stream through a 2-level aggregation tree; the
   root's mixture is compared against a flat single-coordinator
   reference fed byte-identical records, scored on a pooled holdout.
   Passing means aggregation through the tree cost essentially nothing
   versus shipping every synopsis to one coordinator.
2. **Crash/restore**: one gateway aggregator is checkpointed (model set
   plus ARQ edge state) and rebuilt mid-run; the root still converges
   to the same mixture as an uninterrupted run.

The multi-process version of the same topology is one command away:
``cludistream cluster --sites 60 --fanin 8``.

Run:  python examples/cluster_soak.py [--sites N] [--records N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cluster import TransportTree, run_soak, soak_spec
from repro.cluster.data import site_records


def soak(sites: int, records: int) -> None:
    spec = soak_spec(sites=sites, fanin=8, records_per_site=records)
    print(spec.describe())
    report = run_soak(spec)
    print(report.summary())
    assert report.passed, "tree diverged from the flat reference"
    assert report.records == sites * records
    # The §6 gauge, split by hop: leaves generate most of the traffic,
    # gateways absorb it (they upload only on mixture change).
    per_hop = {level.level: level.wire_bytes for level in report.levels}
    print(f"wire bytes by hop (level -> bytes): {per_hop}")
    assert per_hop[2] > 0


def crash_and_restore(sites: int, records: int) -> None:
    spec = soak_spec(sites=sites, fanin=8, records_per_site=records)
    gateway_id = next(
        a.node_id for a in spec.aggregators if not a.is_root
    )

    def run(crash: bool) -> np.ndarray:
        tree = TransportTree.from_spec(spec)
        streams = {
            node.node_id: list(site_records(spec, node.node_id))
            for node in spec.site_nodes
        }
        half = records // 2
        for node_id, rows in streams.items():
            for row in rows[:half]:
                tree.feed(node_id, row)
        tree.drain()
        if crash:
            snapshot = tree.aggregator_snapshot(gateway_id)
            tree.restore_aggregator(snapshot)
        for node_id, rows in streams.items():
            for row in rows[half:]:
                tree.feed(node_id, row)
        tree.drain()
        mixture = tree.global_mixture()
        tree.close()
        order = np.argsort(mixture.weights)
        return np.concatenate(
            [mixture.weights[order]]
            + [mixture.components[i].mean for i in order]
        )

    baseline = run(crash=False)
    resumed = run(crash=True)
    np.testing.assert_allclose(resumed, baseline, atol=1e-9)
    print(
        f"gateway {gateway_id} crashed and restored mid-run; root mixture "
        "matches the uninterrupted run to 1e-9"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=48)
    parser.add_argument("--records", type=int, default=160)
    args = parser.parse_args()

    print("=== Soak: tree vs flat reference ===")
    soak(args.sites, args.records)
    print("\n=== Aggregator crash/restore mid-run ===")
    crash_and_restore(min(args.sites, 16), args.records)
    print("\nOK")


if __name__ == "__main__":
    main()
