"""The coordinator's cached bookkeeping is the old bookkeeping, bit for bit.

``GlobalCluster`` computes its weight and pooled Gaussian once per
membership change instead of once per use, and moment merges no longer
go through ``fit_merged_component``.  Neither may change a decision:
driven by the same messages, ``Coordinator`` and the from-scratch
reference kept in ``tests.core.coordinator_oracle`` must hold the same
clusters, leaves, re-merge scores, fathers and counters after *every*
message, with the observer attached or not.  The one intended
difference is the rng: a moment merge draws nothing, so under
``merge_method="moment"`` the coordinator's generator is never advanced
(the oracle's is); under ``"simplex"`` the two stay in step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.tree import TransportTree
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.remote import RemoteSiteConfig
from repro.obs import Observer, RingBufferSink
from repro.streams import random_mixture
from tests.core.coordinator_oracle import OracleCoordinator

KINDS = ("model", "model", "weight", "weight", "delete", "duplicate")
ANCHORS = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0], [12.0, 3.0]])
RNG_SEED = 11


# ----------------------------------------------------------------------
# Message sequences
# ----------------------------------------------------------------------
def _mixture(rng: np.random.Generator) -> GaussianMixture:
    """Two or three components near shared anchors: close enough to
    attach and merge across sites, far enough to split when they move."""
    k = int(rng.integers(2, 4))
    components = []
    for anchor in ANCHORS[rng.choice(len(ANCHORS), size=k, replace=False)]:
        root = rng.standard_normal((2, 2))
        components.append(
            Gaussian(
                anchor + 0.7 * rng.standard_normal(2),
                root @ root.T / 2 + 0.3 * np.eye(2),
            )
        )
    return GaussianMixture(rng.dirichlet(np.ones(k)), tuple(components))


def build_messages(ops, seed: int) -> list[Message]:
    """Turn ``(kind, site, model)`` triples into protocol messages.

    Covers first announcements and same-key replacements, weight
    updates that grow a model, shrink it or drive it to zero, deletions
    (partial and to zero), updates for models the coordinator never
    heard of (orphans) and verbatim duplicates.
    """
    rng = np.random.default_rng(seed)
    counts: dict[tuple[int, int], int] = {}
    messages: list[Message] = []
    for time, (kind, site, model) in enumerate(ops):
        key = (site, model)
        if kind == "duplicate" and messages:
            messages.append(messages[-1])
            continue
        if kind in ("model", "duplicate"):  # nothing to duplicate yet: announce
            counts[key] = int(rng.integers(100, 1000))
            messages.append(
                ModelUpdateMessage(
                    site_id=site, model_id=model, time=time,
                    mixture=_mixture(rng), count=counts[key],
                    reference_likelihood=-1.0,
                )
            )
        elif kind == "weight":
            held = counts.get(key, 0)
            delta = int(rng.integers(-held - 10, 600))
            if key in counts:
                counts[key] = held + delta
                if counts[key] <= 0:
                    del counts[key]
            messages.append(
                WeightUpdateMessage(
                    site_id=site, model_id=model, time=time, count_delta=delta
                )
            )
        else:
            held = counts.get(key, 50)
            delta = held + 5 if rng.random() < 0.4 else max(1, held // 3)
            if key in counts:
                counts[key] = held - delta
                if counts[key] <= 0:
                    del counts[key]
            messages.append(
                DeletionMessage(
                    site_id=site, model_id=model, time=time, count_delta=delta
                )
            )
    return messages


def seeded_ops(seed: int, length: int):
    rng = np.random.default_rng([seed, 99])
    return [
        (KINDS[rng.integers(len(KINDS))], int(rng.integers(4)), int(rng.integers(2)))
        for _ in range(length)
    ]


@pytest.fixture(scope="module")
def tree_messages() -> dict[int, list[Message]]:
    """What the root (node 0) and one aggregator (node 1) of a 64-leaf,
    fan-in-8 tree receive: every leaf sees two regimes."""
    tree = TransportTree(
        site_config=RemoteSiteConfig(
            dim=2, epsilon=0.05, delta=1e-3, c_max=2,
            em=EMConfig(n_components=2, n_init=1, max_iter=20),
            chunk_override=60,
        ),
        coordinator_config=CoordinatorConfig(max_components=4, merge_method="moment"),
        seed=5,
    )
    tree.add_internal(0)
    for node_id in range(1, 9):
        tree.add_internal(node_id, parent_id=0, upload_threshold=0.0)
    received: dict[int, list[Message]] = {0: [], 1: []}
    for node_id, log in received.items():
        coordinator = tree.internals[node_id].coordinator
        handle = coordinator.handle_message

        def record(message, log=log, handle=handle):
            log.append(message)
            handle(message)

        coordinator.handle_message = record
    rng = np.random.default_rng(17)
    leaves = range(9, 73)
    streams = {}
    for leaf in leaves:
        tree.add_leaf(leaf, 1 + (leaf - 9) // 8)
        streams[leaf] = np.concatenate(
            [random_mixture(2, 2, rng).sample(120, rng)[0] for _ in range(2)]
        )
    for row in range(240):
        for leaf in leaves:
            tree.feed(leaf, streams[leaf][row])
    return received


# ----------------------------------------------------------------------
# Lock-step comparison
# ----------------------------------------------------------------------
def assert_same_state(coordinator: Coordinator, oracle: OracleCoordinator) -> None:
    assert [c.cluster_id for c in coordinator.clusters] == [
        c.cluster_id for c in oracle.clusters
    ]
    for mine, theirs in zip(coordinator.clusters, oracle.clusters):
        assert [leaf.key for leaf in mine.leaves] == [
            leaf.key for leaf in theirs.leaves
        ]
        for leaf, reference in zip(mine.leaves, theirs.leaves):
            assert leaf.weight == reference.weight
            assert leaf.remerge_distance == reference.remerge_distance
        assert mine.weight == theirs.weight
        assert np.array_equal(mine.father.mean, theirs.father.mean)
        assert np.array_equal(mine.father.covariance, theirs.father.covariance)
    assert vars(coordinator.stats) == vars(oracle.stats)
    assert {k: n for k, (_, n) in coordinator.site_models.items()} == {
        k: n for k, (_, n) in oracle.site_models.items()
    }


def run_lock_step(messages, cap, method, observed: bool):
    config = CoordinatorConfig(
        max_components=cap, merge_method=method, merge_samples=128,
        tolerate_loss=True,
    )
    sink = RingBufferSink()
    observer = Observer(sink=sink) if observed else None
    coordinator = Coordinator(
        config, rng=np.random.default_rng(RNG_SEED), observer=observer
    )
    oracle = OracleCoordinator(config, rng=np.random.default_rng(RNG_SEED))
    untouched = np.random.default_rng(RNG_SEED).bit_generator.state
    for message in messages:
        coordinator.handle_message(message)
        oracle.handle_message(message)
        assert_same_state(coordinator, oracle)
        assert coordinator.check_invariants() == []
        state = coordinator._rng.bit_generator.state
        if method == "simplex":
            assert state == oracle._rng.bit_generator.state
        else:
            assert state == untouched
    if observed:
        # The trace keeps its loss estimate, whichever way the father
        # was fitted.
        merges = [e for e in sink.events if e.type == "coord.merge"]
        assert len(merges) == coordinator.stats.merges
        assert all(0.0 <= e.fields["accuracy_loss"] < np.inf for e in merges)
    return coordinator


@pytest.mark.parametrize("observed", [False, True], ids=["null-observer", "observed"])
@pytest.mark.parametrize("method", ["moment", "simplex"])
@pytest.mark.parametrize("cap", [None, 3, 4])
def test_seeded_sequences_match_the_oracle(cap, method, observed):
    length = 60 if method == "moment" else 30
    totals = {"merges": 0, "splits": 0, "orphan_updates": 0, "deletions": 0}
    for seed in (0, 1):
        messages = build_messages(seeded_ops(seed, length), seed)
        stats = run_lock_step(messages, cap, method, observed).stats
        for name in totals:
            totals[name] += getattr(stats, name)
    # The sequences have to reach the paths under test.
    assert totals["splits"] > 0 and totals["orphan_updates"] > 0
    assert totals["deletions"] > 0
    assert (totals["merges"] > 0) == (cap is not None)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(KINDS), st.integers(0, 3), st.integers(0, 1)
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from([None, 3, 4]),
)
def test_arbitrary_sequences_match_the_oracle(ops, seed, cap):
    run_lock_step(build_messages(ops, seed), cap, "moment", observed=False)


@pytest.mark.parametrize("observed", [False, True], ids=["null-observer", "observed"])
def test_tree_shaped_sequence_matches_the_oracle(tree_messages, observed):
    """64 leaves under 8 aggregators: what an aggregator hears from its
    leaves, and what the root hears from its aggregators."""
    assert len(tree_messages[0]) > 16 and len(tree_messages[1]) >= 16
    for node_id, messages in tree_messages.items():
        coordinator = run_lock_step(messages, 4, "moment", observed)
        assert coordinator.stats.merges > 0, node_id


def test_check_invariants_reports_a_stale_cache():
    coordinator = run_lock_step(
        build_messages(seeded_ops(0, 12), 0), 3, "moment", observed=False
    )
    cluster = max(coordinator.clusters, key=lambda c: len(c.leaves))
    cluster.weight, cluster.leaf_mixture()  # fill both caches
    cluster.leaves[0].weight *= 2.0  # behind the cluster's back
    problems = coordinator.check_invariants()
    assert any("weight is stale" in p for p in problems)
    assert any("leaf mixture is stale" in p for p in problems)
    del coordinator._site_models[
        (cluster.leaves[0].site_id, cluster.leaves[0].model_id)
    ]
    assert any("no site model" in p for p in coordinator.check_invariants())
