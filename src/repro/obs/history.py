"""Time-travel observability: one reign record per site or coordinator.

Section 7 remembers a stream with an event table of ``<start, end,
model id>`` reigns, written when the model changes (CluStream's
pyramidal snapshots are the baseline it argues against,
``benchmarks/paper/baselines/pyramid.py``).  :class:`ModelHistory` is
such a table plus a summary of each reign, as :func:`site_history_payload`
and :func:`coordinator_history_payload` build it.  A site closes a
reign where its own event table does, so ``model_at(t)`` is exact; the
coordinator has no section 5.1 table, so its history closes its own
(DESIGN section 16).  Each closed reign is traced as a
``history.reign`` event and the open one, at each observation, as a
``history.open`` event; the trace fold
(:class:`~repro.obs.health.HealthMonitor`) replays both through this
same class, so ``repro stats --window`` and the live
``/history/drift`` answer identically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.events import EventTable

__all__ = [
    "ModelHistory",
    "coordinator_history_payload",
    "site_history_payload",
    "weight_transport",
]

#: Closed reigns a history keeps (its table's ``max_events``; a site
#: with a lower ``event_limit`` keeps that many).  A reign closes only
#: when a site replaces its model, and the coordinator's only at a
#: message from a later stream position: the README run closes 16
#: coordinator reigns, CI's cluster-smoke run 45 at the root over its
#: 500 000 records (EXPERIMENTS, "One time-travel record").  A summary
#: is a few hundred bytes of JSON.
REIGN_LIMIT = 512

#: Points of the component series a
#: :meth:`ModelHistory.federated_summary` keeps (the most recent ones).
SERIES_POINTS = 32
_FEDERATED = ("retained", "evictions", "start", "horizon")


def weight_transport(
    weights0: Iterable[float] | None, weights1: Iterable[float] | None
) -> float | None:
    """Transport distance between two mixture weight vectors.

    Components carry no identity across reigns (merges and splits
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


def site_history_payload(site) -> dict:
    """The summary a :class:`~repro.core.remote.RemoteSite` records;
    ``model`` is the id of the open reign."""
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
    """The summary a :class:`~repro.core.coordinator.Coordinator` records."""
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


def _reign(start, end, model, summary) -> dict:
    return {"start": start, "end": end, "model": model, "summary": summary}


class ModelHistory:
    """The reign record of one site or coordinator.

    ``scope`` labels the trace events (``"coordinator"``, ``"site:3"``;
    a site fills it in when ``None``).  ``gauge_source`` is an optional
    zero-argument callable polled at :meth:`observe` time; its
    non-``None`` values join the summary's ``gauges``.  ``limit`` is the
    table's ``max_events`` (a site lowers it to its ``event_limit``).
    The observer and the gauge source are process state, reattached
    after a restore.
    """

    def __init__(
        self,
        scope: str | None = None,
        gauge_source: Callable[[], Mapping] | None = None,
        limit: int = REIGN_LIMIT,
    ) -> None:
        self.scope = scope
        self.gauge_source = gauge_source
        self.observer = None
        #: The closed reigns, newest ``limit`` of them.
        self.events = EventTable(max_events=limit)
        #: Summary of each retained closed reign, by its start.
        self._summaries: dict[int, dict | None] = {}
        #: The open reign's start, id and live summary (``None`` before
        #: the first observation and right after a :meth:`close`).
        self._open_start = 0
        self._open_id: int | None = 0
        self._open: dict | None = None
        self._clock = 0

    def observe(
        self, tick: int, summary: Mapping, start: int | None = None
    ) -> None:
        """Record ``summary`` (JSON-safe) at ``tick`` as the open reign's.

        A site passes ``start``, where its open reign began, and closes
        its reigns itself (:meth:`close`); the reign's id is the
        summary's ``model``.  Otherwise the clock is the largest tick
        seen: a later tick with a changed summary closes the open reign
        at that tick and opens the next; any other tick, a stale one
        included, rewrites the open reign's summary, so no observation
        is dropped.  The open reign is traced as ``history.open``.
        """
        tick = int(tick)
        summary = dict(summary)
        if self.gauge_source is not None:
            gauges = dict(summary.get("gauges") or {})
            for name, value in dict(self.gauge_source()).items():
                if value is not None:
                    gauges[name] = value
            summary["gauges"] = gauges
        if start is not None:
            self._open_start, self._open_id = int(start), summary.get("model")
        elif self._open is None:
            self._open_start = tick
        elif tick > self._clock and summary != self._open:
            self.close(tick)
            self._open_id += 1
        self._clock = max(self._clock, tick)
        self._open = summary
        self._trace(
            "history.open", start=self._open_start, model=self._open_id,
            tick=self._clock, summary=summary,
        )

    def close(self, end: int) -> None:
        """Close the open reign at ``end`` with its last summary (a site
        calls this where its own table closes the reign)."""
        record = self.events.append(self._open_start, int(end), self._open_id)
        self._summaries[record.start] = self._open
        first = self.events.retained_start
        while next(iter(self._summaries)) < first:
            del self._summaries[next(iter(self._summaries))]
        self._trace(
            "history.reign", start=record.start, end=record.end,
            model=record.model_id, summary=self._open,
        )
        self._open_start, self._open = record.end, None
        self._clock = max(self._clock, record.end)

    def replay(self, start, end, model, summary, tick=None) -> None:
        """Add a reign as a trace or a checkpoint holds it: a closed one,
        or the open one when ``end`` is ``None`` (observed at ``tick``)."""
        self._open_start, self._open_id, self._open = start, model, summary
        if end is not None:
            self.close(end)
        elif tick is not None:
            self._clock = max(self._clock, tick)

    def _trace(self, type_: str, **fields) -> None:
        observer = self.observer
        if observer is not None and observer.enabled:
            observer.event(
                type_, scope=self.scope, limit=self.events.max_events, **fields
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Closed reigns retained."""
        return len(self.events)

    @property
    def last_tick(self) -> int:
        """The clock: the newest tick observed (0 before the first)."""
        return self._clock

    @property
    def start(self) -> int:
        """The first moment a retained reign covers."""
        return self.events.retained_start if len(self) else self._open_start

    def reigns(self) -> list[dict]:
        """Every retained reign, oldest first; an open one last, with
        ``end`` ``None``."""
        reigns = [
            _reign(r.start, r.end, r.model_id, self._summaries.get(r.start))
            for r in self.events
        ]
        if self._open is not None:
            reigns.append(
                _reign(self._open_start, None, self._open_id, self._open)
            )
        return reigns

    def model_at(self, t: int) -> dict:
        """The reign containing ``t``: its ``start``, ``end`` (``None``
        while open), ``model`` (a site's model id, the coordinator's
        reign number) and ``summary``.

        Exact: a closed reign is the table's entry at ``t``, and the open
        reign answers from its start on.  Before the retained range (as
        the table answers ``None`` there), and while no reign is open
        past the last closed one, every field but ``t`` is ``None``.
        """
        if t < 0:
            raise ValueError(f"query time must be non-negative, got {t}")
        if not len(self) and self._open is None:
            raise ValueError("history is empty")
        for reign in self.reigns():
            if reign["start"] <= t and (reign["end"] is None or t < reign["end"]):
                return {"t": int(t), **reign}
        return {"t": int(t), **_reign(None, None, None, None)}

    def drift_between(self, t0: int, t1: int) -> dict:
        """Drift from the reign at ``t0`` to the reign at ``t1``.

        The component-count delta, the :func:`weight_transport` between
        the two summaries, the churn of every cumulative counter
        (clamped at 0) and the reign ends inside the window.  A negative
        or reversed window raises ``ValueError`` naming the values, as
        the event table does.
        """
        ends = [r.end for r in self.events.between(t0, t1) if r.end <= t1]
        reign0, reign1 = self.model_at(t0), self.model_at(t1)
        summary0 = reign0["summary"] or {}
        summary1 = reign1["summary"] or {}
        counters0 = summary0.get("counters") or {}
        counters1 = summary1.get("counters") or {}
        churn = {
            name: max(int(counters1.get(name, 0)) - int(counters0.get(name, 0)), 0)
            for name in sorted(set(counters0) | set(counters1))
        }
        components0 = int(summary0.get("components", 0))
        components1 = int(summary1.get("components", 0))
        return {
            "t0": int(t0),
            "t1": int(t1),
            "start0": reign0["start"],
            "start1": reign1["start"],
            "components": {
                "from": components0,
                "to": components1,
                "delta": components1 - components0,
            },
            "weight_transport": weight_transport(
                summary0.get("weights"), summary1.get("weights")
            ),
            "churn": churn,
            "churn_total": sum(churn.values()),
            "change_points": ends,
        }

    def gauge_series(
        self, name: str, t0: int | None = None, t1: int | None = None
    ) -> list[list]:
        """``[start, value]`` of gauge ``name``, one point per reign that
        meets ``[t0, t1]`` (default: all); a reversed range raises like
        :meth:`drift_between`."""
        if t0 is not None and t1 is not None and t1 < t0:
            raise ValueError(
                f"reversed window [{t0}, {t1}): end precedes start"
            )
        points: list[list] = []
        for reign in self.reigns():
            if t0 is not None and reign["end"] is not None and reign["end"] <= t0:
                continue
            if t1 is not None and reign["start"] > t1:
                continue
            value = ((reign["summary"] or {}).get("gauges") or {}).get(name)
            if value is not None:
                points.append([reign["start"], value])
        return points

    def summary(self) -> dict:
        """The ``/history`` index: every reign's ``[start, end, id]``
        (the open one last, ending ``None``) and the range."""
        reigns = self.reigns()
        return {
            "scope": self.scope,
            "retained": len(self),
            "evictions": self.events.evictions,
            "start": self.start,
            "horizon": self._clock,
            "reigns": [[r["start"], r["end"], r["model"]] for r in reigns],
            "gauges": sorted({
                name
                for r in reigns
                for name in ((r["summary"] or {}).get("gauges") or {})
            }),
        }

    def federated_summary(self) -> dict:
        """The compact rollup a node ships in every telemetry report."""
        summary = self.summary()
        return {
            **{key: summary[key] for key in _FEDERATED},
            "components": self.gauge_series("components")[-SERIES_POINTS:],
        }

    def publish(self, registry, **labels: object) -> None:
        """Push the ``history.retained`` and ``history.evictions`` gauges."""
        if self.scope is not None and "scope" not in labels:
            labels["scope"] = self.scope
        registry.gauge("history.retained", **labels).set(len(self))
        registry.gauge("history.evictions", **labels).set(self.events.evictions)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe state (observer and gauge source excluded)."""
        return {
            "scope": self.scope,
            "clock": self._clock,
            "limit": self.events.max_events,
            "evictions": self.events.evictions,
            "reigns": [
                [r.start, r.end, r.model_id, self._summaries.get(r.start)]
                for r in self.events
            ]
            + [[self._open_start, None, self._open_id, self._open]],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelHistory":
        """Inverse of :meth:`to_dict`.  A 1.17.0 pyramid, a ``"store"``
        key, is dropped: the history starts afresh."""
        history = cls(
            scope=payload.get("scope"), limit=payload.get("limit", REIGN_LIMIT)
        )
        if "store" in payload:
            return history
        for reign in payload["reigns"]:
            history.replay(*reign)
        history.events.evictions = payload["evictions"]
        history._clock = payload["clock"]
        return history
