"""Tests for CluStream's pyramidal snapshot store, the section 7
baseline the event-list ablation scores (benchmarks/paper/baselines)."""

from __future__ import annotations

import pytest

from benchmarks.paper.baselines.pyramid import PyramidalSnapshotStore


def retained_ticks(store: PyramidalSnapshotStore) -> list[int]:
    return sorted(s.tick for bucket in store._orders.values() for s in bucket)


class TestOrderOf:
    def test_odd_ticks_are_order_zero(self):
        store = PyramidalSnapshotStore(alpha=2)
        assert store.order_of(1) == 0
        assert store.order_of(7) == 0

    def test_powers_of_alpha(self):
        store = PyramidalSnapshotStore(alpha=2)
        assert store.order_of(2) == 1
        assert store.order_of(4) == 2
        assert store.order_of(8) == 3
        assert store.order_of(12) == 2  # 12 = 4 * 3

    def test_other_base(self):
        store = PyramidalSnapshotStore(alpha=3)
        assert store.order_of(9) == 2
        assert store.order_of(6) == 1


class TestRetention:
    def test_per_order_limit_enforced(self):
        store = PyramidalSnapshotStore(alpha=2, capacity=1)
        for tick in range(1, 100):
            store.offer(tick, tick)
        limit = 2**1 + 1
        for bucket in store._orders.values():
            assert len(bucket) <= limit

    def test_recent_ticks_kept_older_thinned(self):
        store = PyramidalSnapshotStore(alpha=2, capacity=1)
        for tick in range(1, 65):
            store.offer(tick, tick)
        ticks = retained_ticks(store)
        # The most recent odd ticks survive at order 0.
        assert 63 in ticks
        # Early order-0 ticks were evicted.
        assert 1 not in ticks
        # High orders retain old landmarks (64 = 2^6 just stored).
        assert 64 in ticks

    def test_storage_grows_logarithmically(self):
        store = PyramidalSnapshotStore(alpha=2, capacity=1)
        sizes = []
        for tick in range(1, 2049):
            store.offer(tick, tick)
            if tick in (128, 512, 2048):
                sizes.append(len(store))
        # Orders grow like log2(t): retained snapshots grow slowly.
        assert sizes[-1] <= sizes[0] + 15

    def test_tick_zero_never_stored(self):
        store = PyramidalSnapshotStore()
        assert not store.offer(0, "x")
        assert len(store) == 0

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PyramidalSnapshotStore().offer(-1, "x")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            PyramidalSnapshotStore(alpha=1)
        with pytest.raises(ValueError, match="capacity"):
            PyramidalSnapshotStore(capacity=-1)


class TestClosest:
    def test_exact_hit(self):
        store = PyramidalSnapshotStore()
        for tick in range(1, 20):
            store.offer(tick, f"model-{tick}")
        snapshot = store.closest(16)
        assert snapshot.tick == 16
        assert snapshot.payload == "model-16"

    def test_nearest_when_evicted(self):
        store = PyramidalSnapshotStore(alpha=2, capacity=0)
        for tick in range(1, 129):
            store.offer(tick, tick)
        # Tick 3 is long evicted; the closest retained snapshot is some
        # old high-order landmark.
        snapshot = store.closest(3)
        assert abs(snapshot.tick - 3) >= 1

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="no snapshots"):
            PyramidalSnapshotStore().closest(5)
