"""Time-travel observability: the pyramidal model-history store.

The event table answers "which model governed the stream at time t?"
exactly -- but it grows without bound, and it says nothing about *how*
the model changed.  :class:`ModelHistory` keeps the CluStream pyramidal
time frame (Aggarwal et al.; the static strategy section 7 contrasts
with CluDistream's event table) loaded with real state -- full mixture
summaries, event-table positions and key health gauges -- so any horizon
stays reconstructible within O(alpha·l·log t) snapshots, under an
optional hard byte budget on top.

On top sit the analytical queries served by the coordinator API, the
telemetry server (``/history``, ``/history/drift``, ``/history/series``)
and the federated root (``/cluster/history``): :meth:`~ModelHistory.model_at`,
:meth:`~ModelHistory.drift_between` (component-count delta,
weight-transport distance, merge/split churn) and
:meth:`~ModelHistory.gauge_series`; :meth:`~ModelHistory.closest` is the
CluStream answer the section 7 ablation bench scores.

Every stored snapshot is also emitted as a ``history.snapshot`` trace
event (when an observer is attached), so an offline trace replays into
the *same* retained set: the trace fold
(:class:`~repro.obs.health.HealthMonitor`) backs ``repro stats --window
t0 t1``, and a live endpoint and a trace of the same run answer drift
queries identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

__all__ = [
    "ModelHistory",
    "Snapshot",
    "coordinator_history_payload",
    "drift_report",
    "site_history_payload",
    "weight_transport",
]

#: Points of the component series a
#: :meth:`ModelHistory.federated_summary` keeps (the most recent ones).
SERIES_POINTS = 32


@dataclass(frozen=True)
class Snapshot:
    """One retained snapshot: a tick, its pyramid order and a payload."""

    tick: int
    order: int
    payload: object


def weight_transport(
    weights0: Iterable[float] | None, weights1: Iterable[float] | None
) -> float | None:
    """Transport distance between two mixture weight vectors.

    Components carry no identity across snapshots (merges and splits
    renumber them), so the vectors are matched by sorted rank: both are
    sorted descending, zero-padded to a common length, and the distance
    is half the L1 gap -- 0 for identical weight profiles, 1 for fully
    disjoint mass.  ``None`` when either side recorded no weights.
    """
    if weights0 is None or weights1 is None:
        return None
    a = sorted((float(w) for w in weights0), reverse=True)
    b = sorted((float(w) for w in weights1), reverse=True)
    size = max(len(a), len(b))
    if size == 0:
        return None
    a += [0.0] * (size - len(a))
    b += [0.0] * (size - len(b))
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


def drift_report(
    t0: int, t1: int, snapshot0: Snapshot, snapshot1: Snapshot
) -> dict:
    """Drift analytics between two retained snapshots.

    The single implementation behind the live ``/history/drift``
    endpoint and the offline ``repro stats --window`` fold -- both paths
    must agree by construction, not by parallel maintenance.
    """
    payload0: Mapping = snapshot0.payload or {}
    payload1: Mapping = snapshot1.payload or {}
    components0 = int(payload0.get("components", 0))
    components1 = int(payload1.get("components", 0))
    counters0: Mapping = payload0.get("counters") or {}
    counters1: Mapping = payload1.get("counters") or {}
    churn: dict[str, int] = {}
    for name in sorted(set(counters0) | set(counters1)):
        delta = int(counters1.get(name, 0)) - int(counters0.get(name, 0))
        churn[name] = max(delta, 0)
    return {
        "t0": int(t0),
        "t1": int(t1),
        "tick0": snapshot0.tick,
        "tick1": snapshot1.tick,
        "components": {
            "from": components0,
            "to": components1,
            "delta": components1 - components0,
        },
        "weight_transport": weight_transport(
            payload0.get("weights"), payload1.get("weights")
        ),
        "churn": churn,
        "churn_total": sum(churn.values()),
    }


def site_history_payload(site) -> dict:
    """The snapshot a :class:`~repro.core.remote.RemoteSite` records.

    ``model`` is the id of the model currently explaining the stream --
    the value :meth:`ModelHistory.model_at` answers with, agreeing with
    the (eventually closed) event-table entry covering the snapshot
    tick.  Cumulative counters feed the drift churn deltas.
    """
    current = site.current_model
    mixture = current.mixture if current is not None else None
    stats = site.stats
    tests = stats.n_tests
    return {
        "model": current.model_id if current is not None else None,
        "components": mixture.n_components if mixture is not None else 0,
        "weights": (
            [float(w) for w in mixture.weights] if mixture is not None else []
        ),
        "events_horizon": site.events.horizon,
        "counters": {
            "archives": stats.n_archived,
            "reactivations": stats.n_reactivations,
            "evictions": stats.archive_evictions + site.events.evictions,
        },
        "gauges": {
            "components": mixture.n_components if mixture is not None else 0,
            "pass_rate": stats.n_tests_passed / tests if tests else None,
        },
    }


def coordinator_history_payload(coordinator) -> dict:
    """The snapshot a :class:`~repro.core.coordinator.Coordinator` records."""
    try:
        mixture = coordinator.global_mixture()
        weights = [float(w) for w in mixture.weights]
    except ValueError:
        weights = []
    stats = coordinator.stats
    return {
        "components": coordinator.n_components,
        "weights": weights,
        "counters": {
            "merges": stats.merges,
            "splits": stats.splits,
            "model_updates": stats.model_updates,
            "deletions": stats.deletions,
        },
        "gauges": {"components": coordinator.n_components},
    }


def _size(payload: object) -> int:
    return len(json.dumps(payload, separators=(",", ":"), default=float))


class ModelHistory:
    """Bounded time-travel store for one site or coordinator.

    One object owns the pyramid retention, the byte budget, both
    eviction counters and the checkpoint dict.

    Parameters
    ----------
    alpha / capacity:
        Pyramid base (at least 2) and retention exponent ``l``: order
        ``i`` holds ticks divisible by ``alpha**i``, at most
        ``alpha**capacity + 1`` of them.
    max_bytes:
        Optional hard budget on retained payload bytes (JSON size).
        When the pyramid alone exceeds it, the globally oldest
        snapshots are evicted until the store fits, counted separately
        from pyramid evictions.
    scope:
        Label on emitted ``history.snapshot`` trace events (e.g.
        ``"coordinator"``, ``"site:3"``); lets one trace carry several
        histories apart.  Attach points fill it in when left ``None``.
    gauge_source:
        Optional zero-argument callable polled at :meth:`observe` time;
        its dict is merged into the snapshot's ``gauges`` (e.g. the
        health monitor's AvgPr margin).  Process state -- never
        checkpointed, reattach after restore.
    """

    def __init__(
        self,
        alpha: int = 2,
        capacity: int = 2,
        max_bytes: int | None = None,
        scope: str | None = None,
        gauge_source: Callable[[], Mapping] | None = None,
    ) -> None:
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.alpha = alpha
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.scope = scope
        self.gauge_source = gauge_source
        #: Optional observer; stored snapshots are mirrored to it as
        #: ``history.snapshot`` trace events (process state, reattach
        #: after restore).
        self.observer = None
        self.offered = 0
        self.stored_total = 0
        #: Evictions by the per-order cap and by the byte budget.
        self.evicted_pyramid = 0
        self.evicted_memory = 0
        self._orders: dict[int, list[Snapshot]] = {}
        self._sizes: dict[int, int] = {}
        self._last_tick = 0

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    @property
    def evicted(self) -> int:
        """Snapshots evicted so far, by either bound."""
        return self.evicted_pyramid + self.evicted_memory

    @property
    def last_tick(self) -> int:
        """Newest tick ever observed (0 before the first)."""
        return self._last_tick

    @property
    def bytes(self) -> int:
        """Estimated retained payload bytes (compact-JSON size)."""
        return sum(self._sizes.values())

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

    def _insert(self, tick: int, payload: object) -> list[Snapshot]:
        """Place one snapshot in its order's bucket; returns the bucket."""
        order = self.order_of(tick)
        bucket = self._orders.setdefault(order, [])
        bucket.append(Snapshot(tick=tick, order=order, payload=payload))
        self._sizes[tick] = _size(payload)
        return bucket

    def offer(self, tick: int, payload: object) -> bool:
        """Retain ``payload`` at ``tick``; returns ``True`` when stored.

        Every positive tick is stored at its natural order; the oldest
        snapshot of that order beyond the per-order limit is evicted --
        exactly the CluStream scheme -- and then, under a byte budget,
        the globally oldest until the store fits (never the last one).
        """
        if tick < 0:
            raise ValueError("ticks must be non-negative")
        self.offered += 1
        if tick == 0:
            return False
        bucket = self._insert(tick, payload)
        self.stored_total += 1
        if len(bucket) > self.alpha**self.capacity + 1:
            del self._sizes[bucket.pop(0).tick]
            self.evicted_pyramid += 1
        while (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and len(self) > 1
        ):
            oldest = min(
                (b for b in self._orders.values() if b),
                key=lambda b: b[0].tick,
            )
            del self._sizes[oldest.pop(0).tick]
            self.evicted_memory += 1
        return True

    def observe(self, tick: int, payload: Mapping) -> bool:
        """Record the state at ``tick``; returns ``True`` when stored.

        Ticks must be positive and strictly increasing (out-of-order
        offers are ignored, so interleaved multi-site clocks at a
        coordinator are safe).  ``payload`` must be JSON-safe.
        """
        tick = int(tick)
        if tick <= self._last_tick:
            return False
        self._last_tick = tick
        payload = dict(payload)
        if self.gauge_source is not None:
            gauges = dict(payload.get("gauges") or {})
            for name, value in dict(self.gauge_source()).items():
                if value is not None:
                    gauges[name] = value
            payload["gauges"] = gauges
        if not self.offer(tick, payload):
            return False
        observer = self.observer
        if observer is not None and observer.enabled:
            observer.event(
                "history.snapshot",
                scope=self.scope,
                tick=tick,
                alpha=self.alpha,
                capacity=self.capacity,
                payload=payload,
            )
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshots(self) -> list[Snapshot]:
        """All retained snapshots, sorted by tick."""
        return sorted(
            (snapshot for bucket in self._orders.values() for snapshot in bucket),
            key=lambda snapshot: snapshot.tick,
        )

    def ticks(self) -> list[int]:
        """Retained ticks, ascending."""
        return [snapshot.tick for snapshot in self.snapshots()]

    def closest(self, tick: int) -> Snapshot:
        """The retained snapshot whose tick is nearest to ``tick``.

        Raises ``ValueError`` if nothing has been stored yet.
        """
        retained = self.snapshots()
        if not retained:
            raise ValueError("no snapshots retained")
        return min(retained, key=lambda snapshot: abs(snapshot.tick - tick))

    def _lookup(self, t: int) -> Snapshot:
        """The newest retained snapshot at or before ``t``.

        A later snapshot reflects state the queried moment had not
        reached yet; when everything retained is newer, the oldest
        landmark answers rather than refusing (documented degradation).
        """
        if t < 0:
            raise ValueError(f"query time must be non-negative, got {t}")
        retained = self.snapshots()
        if not retained:
            raise ValueError("history is empty")
        earlier = [snapshot for snapshot in retained if snapshot.tick <= t]
        return earlier[-1] if earlier else retained[0]

    def model_at(self, t: int) -> dict:
        """The recorded state at the newest retained tick ≤ ``t``.

        The answer carries the snapshot ``tick`` it came from; it agrees
        with the exact event table at that tick, which is within one
        snapshot granularity of ``t`` (the Aggarwal retention bound).
        """
        snapshot = self._lookup(t)
        return {
            "t": int(t),
            "tick": snapshot.tick,
            "order": snapshot.order,
            "model": snapshot.payload,
        }

    def drift_between(self, t0: int, t1: int) -> dict:
        """Drift analytics over ``[t0, t1]`` (see :func:`drift_report`).

        Raises
        ------
        ValueError
            On a negative or reversed range; the message names the
            offending values (matching the event-table validation).
        """
        if t0 < 0:
            raise ValueError(f"window start must be non-negative, got {t0}")
        if t1 < t0:
            raise ValueError(
                f"reversed window [{t0}, {t1}): end precedes start"
            )
        return drift_report(t0, t1, self._lookup(t0), self._lookup(t1))

    def gauge_series(
        self, name: str, t0: int | None = None, t1: int | None = None
    ) -> list[list]:
        """``[tick, value]`` points of gauge ``name`` in ``[t0, t1]``.

        Endpoints default to the full retained range; a reversed range
        raises like :meth:`drift_between`.
        """
        if t0 is not None and t1 is not None and t1 < t0:
            raise ValueError(
                f"reversed window [{t0}, {t1}): end precedes start"
            )
        points: list[list] = []
        for snapshot in self.snapshots():
            if t0 is not None and snapshot.tick < t0:
                continue
            if t1 is not None and snapshot.tick > t1:
                continue
            gauges = (snapshot.payload or {}).get("gauges") or {}
            if name in gauges and gauges[name] is not None:
                points.append([snapshot.tick, gauges[name]])
        return points

    def gauge_names(self) -> list[str]:
        """Every gauge name appearing in a retained snapshot."""
        names: set[str] = set()
        for snapshot in self.snapshots():
            names.update(((snapshot.payload or {}).get("gauges") or {}))
        return sorted(names)

    def summary(self) -> dict:
        """The ``/history`` index payload: bounds, accounting, ticks."""
        return {
            "retained": len(self),
            "offered": self.offered,
            "stored_total": self.stored_total,
            "evictions": {
                "pyramid": self.evicted_pyramid,
                "memory": self.evicted_memory,
            },
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "alpha": self.alpha,
            "capacity": self.capacity,
            "scope": self.scope,
            "horizon": self._last_tick,
            "ticks": self.ticks(),
            "gauges": self.gauge_names(),
        }

    def federated_summary(self) -> dict:
        """Compact per-node rollup shipped in telemetry reports.

        Bounded by construction (the retained set is O(α·l·log t) and
        the component series is capped at :data:`SERIES_POINTS`), so it can
        ride every TELEMETRY flush without bloating the envelope.
        """
        summary = self.summary()
        rollup = {
            key: summary[key]
            for key in ("retained", "evictions", "bytes", "horizon", "ticks")
        }
        rollup["components"] = self.gauge_series("components")[-SERIES_POINTS:]
        return rollup

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def publish(self, registry, **labels: object) -> None:
        """Push ``history.*`` gauges (retention and eviction accounting)."""
        if self.scope is not None and "scope" not in labels:
            labels["scope"] = self.scope
        registry.gauge("history.retained", **labels).set(len(self))
        registry.gauge("history.bytes", **labels).set(self.bytes)
        registry.gauge("history.offered", **labels).set(self.offered)
        registry.gauge("history.evictions", kind="pyramid", **labels).set(
            self.evicted_pyramid
        )
        registry.gauge("history.evictions", kind="memory", **labels).set(
            self.evicted_memory
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe state (observer and gauge source excluded)."""
        return {
            "max_bytes": self.max_bytes,
            "scope": self.scope,
            "last_tick": self._last_tick,
            "evicted_memory": self.evicted_memory,
            "store": {
                "alpha": self.alpha,
                "capacity": self.capacity,
                "offered": self.offered,
                "stored_total": self.stored_total,
                "evicted": self.evicted,
                "snapshots": [
                    [snapshot.tick, snapshot.payload]
                    for snapshot in self.snapshots()
                ],
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelHistory":
        """Inverse of :meth:`to_dict`: the exact retained set, counters
        included, is reinstated without re-running retention; reattach
        ``observer`` and ``gauge_source`` afterwards (process state)."""
        store = payload["store"]
        history = cls(
            alpha=int(store["alpha"]),
            capacity=int(store["capacity"]),
            max_bytes=payload.get("max_bytes"),
            scope=payload.get("scope"),
        )
        for tick, item in store["snapshots"]:
            history._insert(int(tick), item)
        history._last_tick = int(payload.get("last_tick", 0))
        history.offered = int(store.get("offered", 0))
        history.stored_total = int(store.get("stored_total", 0))
        history.evicted_memory = int(payload.get("evicted_memory", 0))
        history.evicted_pyramid = (
            int(store.get("evicted", 0)) - history.evicted_memory
        )
        return history

    def __repr__(self) -> str:
        return (
            f"ModelHistory(scope={self.scope!r}, retained={len(self)}, "
            f"horizon={self._last_tick})"
        )
