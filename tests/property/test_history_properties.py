"""Property tests for the pyramidal retention of CluStream's snapshot
store, the section 7 baseline (benchmarks/paper/baselines/pyramid.py).

Randomised pins for its retention contracts: the per-order ``α^l + 1``
cap, the logarithmic total-size bound and the Aggarwal closest-snapshot
error bound.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.paper.baselines.pyramid import PyramidalSnapshotStore


def int_log(value: int, base: int) -> int:
    """Exact ``floor(log_base(value))`` without float rounding."""
    power = 0
    while value >= base:
        value //= base
        power += 1
    return power


@given(
    ticks=st.lists(
        st.integers(1, 20_000), min_size=1, max_size=300, unique=True
    ),
    alpha=st.integers(2, 4),
    capacity=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_per_order_cap_and_total_bound(ticks, alpha, capacity):
    store = PyramidalSnapshotStore(alpha=alpha, capacity=capacity)
    for tick in sorted(ticks):
        store.offer(tick, None)
    limit = alpha**capacity + 1
    for order, bucket in store._orders.items():
        assert len(bucket) <= limit
        for snapshot in bucket:
            assert store.order_of(snapshot.tick) == order
        # Within an order the newest offers survive.
        kept = [snapshot.tick for snapshot in bucket]
        assert kept == sorted(kept)
    orders = int_log(max(ticks), alpha) + 1
    assert len(store) <= limit * orders
    assert store.stored_total == len(ticks)


@given(
    n=st.integers(10, 512),
    alpha=st.sampled_from([2, 3]),
    capacity=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_closest_snapshot_matches_the_aggarwal_bound(n, alpha, capacity):
    # For a dense stream 1..n, any moment t lies within
    # (n - t) / alpha^(l-1) of a retained snapshot -- the classic
    # CluStream approximation guarantee.
    store = PyramidalSnapshotStore(alpha=alpha, capacity=capacity)
    for tick in range(1, n + 1):
        store.offer(tick, None)
    ticks = [s.tick for bucket in store._orders.values() for s in bucket]
    for t in range(1, n + 1):
        distance = min(abs(t - tick) for tick in ticks)
        assert distance <= (n - t) / alpha ** (capacity - 1)
        assert abs(store.closest(t).tick - t) == distance
