"""Deploying a :class:`~repro.cluster.spec.ClusterSpec` as real processes.

:class:`ClusterLauncher` turns the declarative tree into running OS
processes: one per aggregator (:func:`~repro.cluster.aggregator.run_aggregator`
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
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Mapping

from repro.cluster.spec import ClusterSpec, NodeSpec

__all__ = [
    "ClusterLaunchError",
    "ClusterLauncher",
    "ClusterResult",
    "NodeHandle",
]

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
                site_records(spec, node_id),
                host,
                port,
                site_config=spec.site_config(),
                seed=spec.seed,
                observer=observer,
                federation=publisher,
                telemetry_interval=spec.telemetry_interval,
                wire_codec=spec.wire_codec,
                codec_config=spec.codec_config(),
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
    from repro.cluster.aggregator import run_aggregator

    spec = ClusterSpec.from_dict(spec_payload)
    code = asyncio.run(
        run_aggregator(
            spec,
            spec.node(node_id),
            events.put,
            parent_port,
            telemetry_port,
            Path(checkpoint_dir) if checkpoint_dir else None,
            resume,
        )
    )
    sys.exit(code)


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
