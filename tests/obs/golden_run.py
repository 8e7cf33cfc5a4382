"""Record the seeded trace behind the observability goldens, and render
every view of it that ``test_goldens.py`` pins.

``tests/obs/data/golden.trace.jsonl`` is one deterministic run:
three sites with the incremental refit ladder on a lossy ARQ channel,
a two-component cap at the coordinator (so updates merge),
history on the coordinator (carrying the live health monitor's gauges)
and on site 0, and an observer clocked by a counter
(``itertools.count`` x 1e-4) so every span has a non-zero, stable
duration.  :func:`views` renders each consumer of the trace fold from
that one file -- ``repro stats`` (text, JSON, both ``--window`` scopes),
``repro monitor --trace``, the ``/health`` report and ``health_*``
gauges, the federated rollups and ``level_stats()`` of a loopback tree,
and the replayed ``ModelHistory.to_dict()`` -- and
``tests/obs/data/goldens/`` holds their expected bytes.

Regenerate both (only for a deliberate change of an output)::

    PYTHONPATH=src python tests/obs/golden_run.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np

from repro.cli import main
from repro.cluster.tree import TransportTree
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.obs import (
    FederationCollector,
    HealthMonitor,
    JsonlTraceSink,
    MetricsRegistry,
    ModelHistory,
    MultiSink,
    NodeTelemetry,
    Observer,
    read_trace,
    to_prometheus,
)
from repro.runtime import TransportChannel
from repro.runtime.accounting import DeliveryAccounting
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig

DATA = Path(__file__).parent / "data"
TRACE = DATA / "golden.trace.jsonl"
GOLDENS = DATA / "goldens"

N_SITES = 3
RECORDS_PER_SITE = 1600
FAULTS = FaultConfig(drop_rate=0.2, duplicate_rate=0.05, reorder_rate=0.1)

#: ``--window`` arguments per scope (``None``: the default scope rule).
WINDOWS = {None: (100, 1500), "site:0": (200, 1400)}


def record() -> str:
    """Run the seeded system and return its JSONL trace."""
    clock = ManualClock()
    ticks = itertools.count()
    buffer = io.StringIO()
    health = HealthMonitor()
    observer = Observer(
        sink=MultiSink([JsonlTraceSink(buffer), health]),
        time_source=lambda: next(ticks) * 1e-4,
    )
    system = CluDistream(
        CluDistreamConfig(
            n_sites=N_SITES,
            site=RemoteSiteConfig(
                dim=2,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(
                    n_components=2, n_init=1, max_iter=30, incremental=True
                ),
                chunk_override=80,
            ),
            coordinator=CoordinatorConfig(
                max_components=2, merge_method="moment"
            ),
        ),
        seed=11,
        observer=observer,
    )
    system.coordinator.history = ModelHistory(scope="coordinator")
    system.coordinator.history.observer = observer
    system.coordinator.history.gauge_source = health.history_gauges
    system.sites[0].history = ModelHistory(scope="site:0")
    system.sites[0].history.observer = observer
    streams = {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=2, n_components=2, p_new_distribution=0.5
                ),
                rng=np.random.default_rng(700 + site_id),
            ),
            RECORDS_PER_SITE,
        )
        for site_id in range(N_SITES)
    }
    channel = TransportChannel(
        LossyTransport(
            LoopbackTransport(), clock, FAULTS, seed=23, observer=observer
        ),
        clock,
        reliability=ReliabilityConfig(
            initial_timeout=0.4, jitter=0.0, heartbeat_interval=None
        ),
    )
    system.runtime(channel).run(streams, max_records_per_site=RECORDS_PER_SITE)
    observer.flush()
    return buffer.getvalue()


def cli(*argv: str) -> str:
    """Run ``repro <argv>`` and return its stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    assert status == 0, (argv, status)
    return out.getvalue()


def _json(payload: object) -> str:
    # The telemetry server's encoding: key order is part of the bytes.
    return json.dumps(payload, indent=2, default=str) + "\n"


def _folded() -> HealthMonitor:
    health = HealthMonitor().bind(
        component_count=lambda: 2,
        accounting=lambda: DeliveryAccounting(
            attempted=9, payload_bytes=6400, wire_bytes=7000
        ),
    )
    for event in read_trace(TRACE):
        health.write(event)
    return health


def _loopback_tree() -> TransportTree:
    """root(0) <- aggregators 1, 2 <- two leaves each, federated.

    Every publisher reports the same pid and process resources, so the
    telemetry payloads -- and the ``telemetry_bytes`` they add up to --
    are the same in every process.
    """
    with mock.patch("repro.obs.federation.os.getpid", return_value=4242), \
            mock.patch(
                "repro.obs.federation.process_resources",
                return_value={"rss_bytes": 1, "cpu_seconds": 1.0, "open_fds": 1},
            ):
        return _build_tree()


def _build_tree() -> TransportTree:
    tree = TransportTree(
        site_config=RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
            chunk_override=250,
        ),
        coordinator_config=CoordinatorConfig(
            max_components=4, merge_method="moment"
        ),
        seed=0,
        federate=True,
        wire_codec="cds2",
    )
    tree.add_internal(0)
    tree.add_internal(1, parent_id=0)
    tree.add_internal(2, parent_id=0)
    for leaf, parent, seed in ((10, 1, 1), (11, 1, 2), (20, 2, 3), (21, 2, 4)):
        tree.add_leaf(leaf, parent_id=parent)
        for row in np.random.default_rng(seed).normal(size=(300, 2)):
            tree.feed(leaf, row)
    tree.drain()
    tree.flush_telemetry()
    return tree


def views() -> dict[str, str]:
    """Every pinned output, by golden file name."""
    trace = str(TRACE)
    out = {
        "stats.txt": cli("stats", trace),
        "stats.json": cli("stats", trace, "--format", "json"),
        "monitor.txt": cli(
            "monitor", "--trace", trace, "--no-clear"
        ).replace(trace, TRACE.name),
    }
    for scope, (t0, t1) in WINDOWS.items():
        argv = ["stats", trace, "--window", str(t0), str(t1)]
        if scope is not None:
            argv += ["--scope", scope]
        name = f"window.{scope or 'default'}".replace(":", "")
        out[f"{name}.txt"] = cli(*argv)
        out[f"{name}.json"] = cli(*argv, "--format", "json")

    health = _folded()
    out["health.json"] = _json(
        {"report": health.report(), "history_gauges": health.history_gauges()}
    )
    registry = MetricsRegistry()
    health.publish(registry)
    out["health.prom"] = "".join(
        line + "\n"
        for line in to_prometheus(registry).splitlines()
        if "health_" in line
    )
    collector = FederationCollector(
        topology=[
            {"node_id": 0, "role": "aggregator", "level": 0, "parent_id": None},
            {"node_id": 1, "role": "site", "level": 1, "parent_id": 0},
        ],
        clock=lambda: 100.0,
    )
    collector.ingest_report(NodeTelemetry(
        node_id=0, role="aggregator", level=0, pid=1, seq=1,
        health={"coordinator": health.report()["coordinator"]},
    ))
    collector.ingest_report(NodeTelemetry(
        node_id=1, role="site", level=1, pid=2, seq=1,
        records=health.report()["records"], health=health.report(),
        uplink={"payloads_sent": 9, "payload_bytes": 6400,
                "wire_bytes": 7000, "retransmissions": 6},
    ))
    out["federation.trace.json"] = _json(collector.rollup())

    tree = _loopback_tree()
    out["federation.tree.json"] = _json(tree.federation.rollup())
    out["level_stats.json"] = _json([s.as_dict() for s in tree.level_stats()])
    tree.close()

    for scope in ("coordinator", "site:0"):
        history = HealthMonitor.replay(read_trace(TRACE)).history(scope)
        name = scope.replace(":", "")
        out[f"history.{name}.json"] = _json(history.to_dict())
    return out


if __name__ == "__main__":
    GOLDENS.mkdir(parents=True, exist_ok=True)
    TRACE.write_text(record(), encoding="utf-8")
    print(f"wrote {TRACE} ({TRACE.stat().st_size} bytes)")
    for name, text in views().items():
        (GOLDENS / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDENS / name}")
