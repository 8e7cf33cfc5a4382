"""Property tests for pyramidal retention and history memory bounds.

Randomised pins for the retention contracts the time-travel layer
relies on: the per-order ``α^l + 1`` cap, the logarithmic total-size
bound, the Aggarwal closest-snapshot error bound, and the
:class:`~repro.obs.history.ModelHistory` byte budget.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.history import ModelHistory as PyramidalSnapshotStore
from repro.obs.history import ModelHistory


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
    assert store.stored_total == len(store) + store.evicted


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
    ticks = store.ticks()
    for t in range(1, n + 1):
        distance = min(abs(t - tick) for tick in ticks)
        assert distance <= (n - t) / alpha ** (capacity - 1)
        assert abs(store.closest(t).tick - t) == distance


@given(
    n=st.integers(1, 200),
    max_bytes=st.integers(40, 2_000),
    alpha=st.sampled_from([2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_history_byte_budget_holds(n, max_bytes, alpha):
    history = ModelHistory(alpha=alpha, capacity=2, max_bytes=max_bytes)
    for tick in range(1, n + 1):
        history.observe(tick, {"components": tick % 7, "pad": "x" * (tick % 13)})
    # Either the budget holds or only the newest snapshot remains.
    assert history.bytes <= max_bytes or len(history) == 1
    assert len(history) >= 1
    summary = history.summary()
    assert (
        summary["evictions"]["pyramid"] + summary["evictions"]["memory"]
        == history.evicted
    )
    assert summary["bytes"] == history.bytes
