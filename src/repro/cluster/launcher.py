"""Deploying a :class:`~repro.cluster.spec.ClusterSpec` as real processes.

:class:`ClusterLauncher` turns the declarative tree into running OS
processes: one per aggregator (an :class:`~repro.cluster.aggregator.AggregatorServer`
on an asyncio loop) and one per site (:func:`~repro.transport.tcp.run_site_client`
streaming its seeded records).  All workers use the ``spawn`` start
method -- nothing inherits the launcher's interpreter state, so a worker
behaves identically whether its parent is a CLI, a test, or CI.

Startup is top-down because ports flow down the tree: the root binds
first (port ``0`` = ephemeral), reports its *actually bound* port back
over a rendezvous queue, and only then are its children spawned with
that port in hand, level by level, sites last.  Shutdown is the mirror
image -- leaves first, root last -- so no process ever loses its parent
while still holding unacknowledged uploads.

A worker that cannot bind or connect reports the error over the queue
and exits non-zero instead of dying with a traceback; the launcher
converts that into a :class:`ClusterLaunchError` after tearing down
whatever was already running.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.cluster.spec import ClusterSpec, NodeSpec

__all__ = [
    "ClusterLaunchError",
    "ClusterLauncher",
    "ClusterResult",
    "NodeHandle",
]

#: Manifest written next to each aggregator checkpoint.
NODE_MANIFEST_FORMAT = 1

#: Seconds to wait for each aggregator's port rendezvous.
START_TIMEOUT = 30.0

#: Seconds :meth:`ClusterLauncher.shutdown` lets a worker exit after
#: SIGTERM (and again after SIGKILL).
SHUTDOWN_GRACE = 10.0


class ClusterLaunchError(RuntimeError):
    """A worker failed to come up (bind/connect failure, startup timeout)."""


@dataclass
class NodeHandle:
    """One spawned worker and what the launcher knows about it."""

    spec: NodeSpec
    process: object
    port: int | None = None
    telemetry_port: int | None = None

    @property
    def node_id(self) -> int:
        return self.spec.node_id

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode


@dataclass
class ClusterResult:
    """What a finished (or stopped) deployment reported."""

    exit_codes: dict[int, int | None] = field(default_factory=dict)
    root_summary: dict | None = None


# ----------------------------------------------------------------------
# Worker processes (module level: must be picklable under spawn)
# ----------------------------------------------------------------------
def _worker_signals() -> None:
    # The launcher owns Ctrl-C: workers ignore SIGINT so a terminal
    # interrupt reaches only the CLI process, which then runs the
    # ordered leaves-first SIGTERM fan-out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _site_worker(
    spec_payload: dict, node_id: int, host: str, port: int, federate: bool
) -> None:
    _worker_signals()
    from repro.cluster.data import site_records
    from repro.transport.tcp import run_site_client

    spec = ClusterSpec.from_dict(spec_payload)
    node = spec.node(node_id)
    observer = publisher = history = None
    if spec.history:
        from repro.obs import ModelHistory

        history = ModelHistory(scope=f"site:{node_id}")
    if federate:
        import os

        from repro.obs import (
            FederationPublisher,
            HealthMonitor,
            MultiSink,
            Observer,
            SpanCollector,
        )

        health, spans = HealthMonitor(), SpanCollector()
        observer = Observer(
            sink=MultiSink([health, spans]), span_origin=node_id
        )
        publisher = FederationPublisher(
            node_id,
            "site",
            node.level,
            health=health,
            spans=spans,
            pid=os.getpid(),
            history=(
                history.federated_summary if history is not None else None
            ),
        )
    try:
        asyncio.run(
            run_site_client(
                node_id,
                site_records(spec, node),
                host,
                port,
                site_config=spec.site_config_for(node),
                seed=spec.seed,
                observer=observer,
                federation=publisher,
                telemetry_interval=spec.telemetry_interval,
                wire_codec=spec.node_wire_codec(node),
                codec_config=spec.node_codec_config(node),
                history=history,
            )
        )
    except (ConnectionRefusedError, OSError) as exc:
        print(
            f"site {node_id}: cannot reach aggregator at {host}:{port}: {exc}",
            file=sys.stderr,
        )
        sys.exit(1)


def _aggregator_worker(
    spec_payload: dict,
    node_id: int,
    parent_port: int | None,
    events,
    telemetry_port: int | None,
    checkpoint_dir: str | None,
    resume: bool,
) -> None:
    _worker_signals()
    spec = ClusterSpec.from_dict(spec_payload)
    code = asyncio.run(
        _aggregator_main(
            spec,
            spec.node(node_id),
            parent_port,
            events,
            telemetry_port,
            Path(checkpoint_dir) if checkpoint_dir else None,
            resume,
        )
    )
    sys.exit(code)


def _checkpoint_path(checkpoint_dir: Path, node_id: int) -> Path:
    return checkpoint_dir / f"aggregator-{node_id}.json"


async def _aggregator_main(
    spec: ClusterSpec,
    node_spec: NodeSpec,
    parent_port: int | None,
    events,
    telemetry_port: int | None,
    checkpoint_dir: Path | None,
    resume: bool,
) -> int:
    """Serve one aggregator until its children finish or it is stopped.

    ``telemetry_port`` is the one telemetry switch: an aggregator that
    serves telemetry also federates -- it reports up the tree, and the
    root collects every node's reports.
    """
    import os

    from repro.cluster.aggregator import AggregatorServer
    from repro.cluster.hop import InternalNode
    from repro.core.coordinator import Coordinator
    from repro.io.checkpoint import load_aggregator, save_aggregator
    from repro.obs import (
        FederationCollector,
        HealthMonitor,
        MultiSink,
        Observer,
        SpanCollector,
        TelemetryServer,
        publish_process_resources,
        topology_from_spec,
    )
    from repro.obs.observer import ensure_observer

    node_id = node_spec.node_id
    health = spans = None
    observer = None
    federate = telemetry_port is not None
    if federate:
        health, spans = HealthMonitor(), SpanCollector()
        observer = Observer(
            sink=MultiSink([health, spans]), span_origin=node_id
        )
    obs = ensure_observer(observer)

    # The root of a federated tree collects every node's reports.
    collector = None
    if federate and node_spec.is_root:
        # Three flush intervals, floored: a worker's event loop can go
        # quiet for seconds while EM absorbs a chunk's synopses, and
        # that must read as "busy", not "dead".
        collector = FederationCollector(
            topology=topology_from_spec(spec),
            stale_after=max(3.0 * spec.telemetry_interval, 10.0),
        )

    arq = None
    if resume and checkpoint_dir is not None:
        path = _checkpoint_path(checkpoint_dir, node_id)
        if path.exists():
            node, arq = load_aggregator(path, observer=obs)
        else:
            print(
                f"aggregator {node_id}: no checkpoint at {path}, "
                "starting fresh",
                file=sys.stderr,
            )
            resume = False
    if not resume or checkpoint_dir is None or arq is None:
        node = InternalNode(
            node_id=node_id,
            coordinator=Coordinator(
                spec.coordinator_config(),
                rng=np.random.default_rng(spec.seed + 50_000 + node_id),
                observer=obs,
            ),
            parent_id=node_spec.parent_id,
            upload_threshold=spec.node_upload_threshold(node_spec),
        )
    if spec.history and node.coordinator.history is None:
        # A resumed coordinator restores its retained history from the
        # checkpoint; only attach a fresh store when none rode along.
        from repro.obs import ModelHistory

        node.coordinator.history = ModelHistory(
            scope="coordinator", gauge_source=None
        )
    history = node.coordinator.history
    if history is not None:
        history.observer = obs
        if health is not None:
            history.gauge_source = health.history_gauges

    server = AggregatorServer(
        node,
        expected_children=len(spec.children(node_id)),
        level=node_spec.level,
        observer=observer,
        arq=arq,
        uplink_wire_codec=spec.node_wire_codec(node_spec),
        uplink_codec_config=spec.node_codec_config(node_spec),
    )
    try:
        await server.start(spec.host, node_spec.port)
    except OSError as exc:
        events.put(
            {
                "event": "error",
                "node_id": node_id,
                "error": f"cannot bind {spec.host}:{node_spec.port}: {exc}",
            }
        )
        return 1

    hop = server.hop
    telemetry = None
    if federate:
        assert health is not None and spans is not None
        health.bind(component_count=lambda: node.coordinator.n_components)

        def _publish(registry) -> None:
            gauges = hop.gauges()
            for name in ("messages_up", "bytes_up"):
                registry.gauge(
                    f"cluster.node_{name}", node=node_id, level=node_spec.level
                ).set(gauges[name])

        def _snapshot() -> dict:
            return {
                "node_id": node_id,
                "level": node_spec.level,
                "children_heard": list(server.receiver.known_sites)
                if server.receiver is not None
                else [],
                **hop.gauges(),
            }

        try:
            telemetry = TelemetryServer(
                obs,
                health=health,
                spans=spans,
                snapshot=_snapshot,
                host=spec.host,
                port=telemetry_port,
                publish=(_publish, publish_process_resources),
                federation=collector,
                history=history,
            ).start()
        except OSError as exc:
            await server.close()
            events.put(
                {
                    "event": "error",
                    "node_id": node_id,
                    "error": (
                        f"cannot bind telemetry port {telemetry_port}: {exc}"
                    ),
                }
            )
            return 1

    if parent_port is not None:
        try:
            await server.connect_uplink(spec.host, parent_port, seed=spec.seed)
        except (ConnectionRefusedError, OSError) as exc:
            await server.close()
            if telemetry is not None:
                telemetry.close()
            events.put(
                {
                    "event": "error",
                    "node_id": node_id,
                    "error": (
                        f"cannot reach parent at {spec.host}:{parent_port}: "
                        f"{exc}"
                    ),
                }
            )
            return 1

    # The aggregator's own federated self-report, plus the flush loop
    # shipping it (and any relayed child reports) toward the root every
    # telemetry_interval seconds.
    flush_task = None
    if federate:
        endpoints = {
            "tcp": {"host": spec.host, "port": server.port},
            "telemetry": {"host": spec.host, "port": telemetry.port},
        }
        hop.federate(
            collector,
            health=health,
            spans=spans,
            uplink_codec=spec.node_wire_codec(node_spec),
            endpoints=endpoints,
            pid=os.getpid(),
            history=(
                history.federated_summary if history is not None else None
            ),
        )

        async def _flush_loop() -> None:
            while True:
                await asyncio.sleep(spec.telemetry_interval)
                hop.flush_telemetry()

        next_flush = time.monotonic() + spec.telemetry_interval

        def _maybe_flush() -> None:
            # Time-gated flush driven off the envelope-handling path.
            # The async loop above covers idle stretches, but a busy
            # aggregator can starve asyncio timers for minutes (one
            # read batch = many EM merges), so the cadence must ride
            # the traffic itself -- child telemetry arrivals included.
            nonlocal next_flush
            if time.monotonic() >= next_flush:
                hop.flush_telemetry()
                next_flush = time.monotonic() + spec.telemetry_interval

        hop.flush_telemetry()
        server.on_progress = _maybe_flush
        flush_task = asyncio.ensure_future(_flush_loop())

    # Serve until every child reported DONE -- or the launcher asks us
    # to stop (SIGTERM arrives leaves-first, so by the time it reaches
    # an aggregator its children are already down).  A *raw* signal
    # handler, not loop.add_signal_handler: it must flip the server's
    # stop flag between bytecodes, because the event loop itself can be
    # busy for many seconds absorbing one chunk's batch of synopses.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _on_sigterm(*_: object) -> None:
        server.request_stop()
        loop.call_soon_threadsafe(stop.set)

    # Installed before the node says it is listening: a SIGTERM in
    # between would otherwise kill it with no checkpoint written.
    signal.signal(signal.SIGTERM, _on_sigterm)
    events.put(
        {
            "event": "listening",
            "node_id": node_id,
            "port": server.port,
            "telemetry_port": telemetry.port if telemetry is not None else None,
        }
    )
    done_task = asyncio.ensure_future(server.wait_done())
    stop_task = asyncio.ensure_future(stop.wait())
    await asyncio.wait(
        (done_task, stop_task), return_when=asyncio.FIRST_COMPLETED
    )
    completed = done_task.done() and not stop_task.done()
    for task in (done_task, stop_task):
        task.cancel()
    await asyncio.gather(done_task, stop_task, return_exceptions=True)

    code = 0
    if flush_task is not None:
        flush_task.cancel()
        await asyncio.gather(flush_task, return_exceptions=True)
    if hop.publisher is not None:
        # Final report: children are done, so it covers the whole run
        # -- and it is written before DONE goes up the same stream.
        hop.flush_telemetry()
    if completed and parent_port is not None:
        try:
            await server.finish_uplink()
        except (TimeoutError, OSError) as exc:
            print(f"aggregator {node_id}: {exc}", file=sys.stderr)
            code = 1

    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        save_aggregator(
            node, _checkpoint_path(checkpoint_dir, node_id),
            arq=server.arq_state(),
        )
        _write_node_manifest(
            checkpoint_dir, spec, node_spec, server.port,
            telemetry.port if telemetry is not None else None,
        )

    if node_spec.is_root:
        try:
            mixture = node.coordinator.global_mixture()
            summary = {
                "components": mixture.n_components,
                "weights": [float(w) for w in mixture.weights],
            }
        except ValueError:
            summary = {"components": 0, "weights": []}
        summary.update(
            messages_up=node.messages_up,
            bytes_up=node.bytes_up,
            completed=completed,
        )
        events.put({"event": "result", "node_id": node_id, **summary})

    await server.close()
    if telemetry is not None:
        telemetry.close()
    return code


def _write_node_manifest(
    checkpoint_dir: Path,
    spec: ClusterSpec,
    node_spec: NodeSpec,
    port: int,
    telemetry_port: int | None,
) -> None:
    import json

    endpoints: dict = {"tcp": {"host": spec.host, "port": port}}
    if telemetry_port is not None:
        endpoints["telemetry"] = {"host": spec.host, "port": telemetry_port}
    manifest = {
        "format": NODE_MANIFEST_FORMAT,
        "kind": "cluster_node",
        "node_id": node_spec.node_id,
        "role": node_spec.role,
        "level": node_spec.level,
        "parent_id": node_spec.parent_id,
        "endpoints": endpoints,
    }
    path = checkpoint_dir / f"node-{node_spec.node_id}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2))


# ----------------------------------------------------------------------
# The launcher
# ----------------------------------------------------------------------
class ClusterLauncher:
    """Spawn, supervise and stop one tree deployment.

    Parameters
    ----------
    spec:
        The topology to deploy.
    serve_telemetry:
        When not ``None``, the root aggregator serves live telemetry on
        this port (``0`` = ephemeral; read back from
        :attr:`telemetry_port` after :meth:`launch`), every other
        aggregator serves on an ephemeral port of its own, and the
        whole tree federates: each node ships telemetry reports up the
        existing ARQ edges, so the root also serves ``/cluster/health``,
        ``/cluster/nodes`` and ``/cluster/spans``.
    checkpoint_dir:
        When set, every aggregator writes its checkpoint and an
        endpoint manifest here on exit (and on SIGTERM).
    resume:
        Restart aggregators from checkpoints in ``checkpoint_dir``,
        including their ARQ edge state.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        serve_telemetry: int | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
    ) -> None:
        if not spec.nodes:
            raise ValueError("cannot launch an empty spec")
        self.spec = spec
        self.serve_telemetry = serve_telemetry
        self.checkpoint_dir = (
            str(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.handles: dict[int, NodeHandle] = {}
        self.ports: dict[int, int] = {}
        self.telemetry_port: int | None = None
        self._ctx = get_context("spawn")
        self._events = self._ctx.Queue()
        self._pending: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def launch(self) -> Mapping[int, int]:
        """Start every process; returns ``{aggregator_id: bound_port}``.

        Aggregators come up top-down (each child needs its parent's
        actual port), sites last.  On any worker failure everything
        already running is torn down and :class:`ClusterLaunchError`
        is raised.
        """
        payload = self.spec.to_dict()
        try:
            for agg in self.spec.aggregators:
                parent_port = (
                    self.ports[agg.parent_id]
                    if agg.parent_id is not None
                    else None
                )
                if agg.is_root:
                    telemetry = self.serve_telemetry
                elif self.serve_telemetry is not None:
                    # Interior aggregators get their own ephemeral
                    # telemetry server; the bound port lands in the
                    # node manifest and /cluster/nodes.
                    telemetry = 0
                else:
                    telemetry = None
                process = self._ctx.Process(
                    target=_aggregator_worker,
                    args=(
                        payload,
                        agg.node_id,
                        parent_port,
                        self._events,
                        telemetry,
                        self.checkpoint_dir,
                        self.resume,
                    ),
                    name=f"aggregator-{agg.node_id}",
                )
                process.start()
                self.handles[agg.node_id] = NodeHandle(spec=agg, process=process)
                event = self._await_event("listening", agg.node_id)
                handle = self.handles[agg.node_id]
                handle.port = event["port"]
                handle.telemetry_port = event.get("telemetry_port")
                self.ports[agg.node_id] = event["port"]
                if agg.is_root:
                    self.telemetry_port = handle.telemetry_port
            for site in self.spec.site_nodes:
                process = self._ctx.Process(
                    target=_site_worker,
                    args=(
                        payload,
                        site.node_id,
                        self.spec.host,
                        self.ports[site.parent_id],
                        self.serve_telemetry is not None,
                    ),
                    name=f"site-{site.node_id}",
                )
                process.start()
                self.handles[site.node_id] = NodeHandle(
                    spec=site, process=process
                )
        except Exception:
            self.shutdown()
            raise
        return dict(self.ports)

    def wait(self, timeout: float | None = None) -> ClusterResult:
        """Join every process (sites first, then aggregators bottom-up)."""
        ordered = sorted(
            self.handles.values(),
            key=lambda h: (h.spec.role != "site", -h.spec.level),
        )
        for handle in ordered:
            handle.process.join(timeout)
        return self._collect()

    def shutdown(self) -> ClusterResult:
        """SIGTERM fan-out, leaves first; SIGKILL stragglers after
        :data:`SHUTDOWN_GRACE`."""
        by_depth = sorted(
            self.handles.values(),
            key=lambda h: (h.spec.role != "site", -h.spec.level),
        )
        for handle in by_depth:
            if handle.alive:
                handle.process.terminate()
            handle.process.join(SHUTDOWN_GRACE)
            if handle.alive:
                handle.process.kill()
                handle.process.join(SHUTDOWN_GRACE)
        return self._collect()

    def alive(self) -> tuple[int, ...]:
        """Node ids whose worker process is still running."""
        return tuple(
            node_id
            for node_id, handle in self.handles.items()
            if handle.alive
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _collect(self) -> ClusterResult:
        result = ClusterResult(
            exit_codes={
                node_id: handle.exitcode
                for node_id, handle in self.handles.items()
            }
        )
        for event in self._drain_events():
            if event.get("event") == "result":
                result.root_summary = {
                    k: v for k, v in event.items() if k != "event"
                }
        return result

    def _drain_events(self) -> list[dict]:
        import queue as queue_module

        events = list(self._pending)
        self._pending.clear()
        while True:
            try:
                events.append(self._events.get_nowait())
            except queue_module.Empty:
                return events

    def _await_event(self, kind: str, node_id: int) -> dict:
        import queue as queue_module
        import time

        deadline = time.monotonic() + START_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterLaunchError(
                    f"aggregator {node_id} did not report within "
                    f"{START_TIMEOUT:.0f}s"
                )
            try:
                event = self._events.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                handle = self.handles.get(node_id)
                if handle is not None and not handle.alive:
                    raise ClusterLaunchError(
                        f"aggregator {node_id} exited during startup "
                        f"(code {handle.exitcode})"
                    ) from None
                continue
            if event.get("event") == "error":
                raise ClusterLaunchError(
                    f"node {event['node_id']}: {event['error']}"
                )
            if event.get("event") == kind and event.get("node_id") == node_id:
                return event
            self._pending.append(event)
