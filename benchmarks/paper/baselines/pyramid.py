"""CluStream's pyramidal time frame: the baseline section 7 argues against.

Aggarwal et al.'s snapshot store.  A snapshot taken at tick ``t`` has
order ``i`` when ``alpha**i`` divides ``t``, and each order keeps only
its newest ``alpha**capacity + 1`` snapshots, so ``t`` ticks retain
O(alpha**capacity * log t) of them and any moment lies within
``(t_c - t) / alpha**(capacity - 1)`` of a retained one.  Section 7:
the scheme "may introduce redundant records, while missing some
important events"; ``bench_ablation_event_list_vs_pyramid`` scores it
against a site's event table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PyramidalSnapshotStore", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One retained snapshot: a tick, its pyramid order and a payload."""

    tick: int
    order: int
    payload: object


class PyramidalSnapshotStore:
    """Snapshots retained by the pyramidal time frame.

    ``alpha`` (at least 2) is the pyramid base and ``capacity`` the
    retention exponent ``l``.
    """

    def __init__(self, alpha: int = 2, capacity: int = 2) -> None:
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.alpha = alpha
        self.capacity = capacity
        #: Snapshots ever stored, evicted ones included.
        self.stored_total = 0
        self._orders: dict[int, list[Snapshot]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._orders.values())

    def order_of(self, tick: int) -> int:
        """Highest ``i`` with ``alpha**i`` dividing ``tick`` (0 otherwise)."""
        if tick <= 0:
            return 0
        order = 0
        while tick % self.alpha == 0:
            tick //= self.alpha
            order += 1
        return order

    def offer(self, tick: int, payload: object) -> bool:
        """Store ``payload`` at ``tick`` in its order's bucket, evicting
        that order's oldest beyond the cap; ``False`` for tick 0."""
        if tick < 0:
            raise ValueError("ticks must be non-negative")
        if tick == 0:
            return False
        order = self.order_of(tick)
        bucket = self._orders.setdefault(order, [])
        bucket.append(Snapshot(tick=tick, order=order, payload=payload))
        self.stored_total += 1
        if len(bucket) > self.alpha**self.capacity + 1:
            bucket.pop(0)
        return True

    def closest(self, tick: int) -> Snapshot:
        """The retained snapshot whose tick is nearest to ``tick``.

        Raises ``ValueError`` if nothing has been stored yet.
        """
        retained = sorted(
            (s for bucket in self._orders.values() for s in bucket),
            key=lambda snapshot: snapshot.tick,
        )
        if not retained:
            raise ValueError("no snapshots retained")
        return min(retained, key=lambda snapshot: abs(snapshot.tick - tick))
