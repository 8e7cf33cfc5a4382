"""One aggregator process of a deployed §7 tree, over TCP.

:class:`AggregatorServer` accepts its children's connections -- sites
running :func:`~repro.transport.tcp.run_site_client`, or lower
aggregators -- and hands every payload to an
:class:`~repro.cluster.hop.AggregatorHop`, which absorbs it into the
node's coordinator.  When the node is not the root, the resulting
uploads (gated on :func:`~repro.cluster.hop.mixture_change`) are
forwarded to the parent aggregator over an *uplink*: a second TCP
connection, the :class:`~repro.transport.tcp.Uplink` a site process
uses, whose :class:`~repro.transport.endpoint.SiteEndpoint` becomes the
hop's ``edge``.  To its parent an aggregator is indistinguishable from a
site.

:func:`run_aggregator` is the whole aggregator process around it: the
body every :class:`~repro.cluster.launcher.ClusterLauncher` worker runs.
The flat coordinator is the root of a one-level tree, so ``cludistream
serve`` runs the same body, and trees of any depth -- depth one
included -- compose out of it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.cluster.hop import AggregatorHop, InternalNode
from repro.cluster.spec import ClusterSpec, NodeSpec, aggregator_rng
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.serde import CodecConfig
from repro.obs.observer import Observer, ensure_observer
from repro.transport.clock import AsyncioClock
from repro.transport.framing import StreamDecoder
from repro.transport.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.tcp import _READ_CHUNK, Uplink

__all__ = ["AggregatorServer", "run_aggregator"]

#: Format of the endpoint manifest written next to each checkpoint.
NODE_MANIFEST_FORMAT = 1


class AggregatorServer:
    """Serves one §7 node over TCP, uplinking on change.

    Parameters
    ----------
    node:
        The :class:`~repro.cluster.hop.InternalNode` holding this
        aggregator's coordinator, upload gate and accounting.
    expected_children:
        Children that must report DONE before :meth:`wait_done`
        releases; ``None`` serves forever.
    level:
        This node's depth in the tree (root = 0); stamped on spans so
        per-level accounting survives aggregation.
    config:
        Reliability tuning (heartbeat staleness etc.).
    observer:
        Optional :class:`~repro.obs.observer.Observer` for the node, its
        receiver and its uplink.
    arq:
        Optional ARQ continuation state from
        :func:`repro.io.checkpoint.load_aggregator` -- restores the
        uplink's next sequence number and the children's receive
        cursors so a restarted aggregator keeps talking to peers that
        never went down.
    on_progress:
        Optional zero-arg callback invoked between envelopes while a
        handler works through a read batch.  One 64 KB read can hold
        dozens of synopses each costing an EM merge, starving asyncio
        timer tasks for many seconds -- anything that must keep a
        cadence while the loop is busy (the federated telemetry flush)
        hooks in here, with its own time gate.  May also be assigned
        after construction.
    uplink_wire_codec / uplink_codec_config:
        Codec spoken on the uplink edge to the parent.  The sender owns
        each edge's format: the node decodes whatever its children send
        (CDS1 or CDS2).

    Telemetry from children reaches the hop's tap
    (:meth:`~repro.cluster.hop.AggregatorHop.on_telemetry`); route it
    with ``server.hop.federate(...)``.
    """

    def __init__(
        self,
        node: InternalNode,
        expected_children: int | None = None,
        level: int = 0,
        config: ReliabilityConfig | None = None,
        observer: Observer | None = None,
        arq: Mapping | None = None,
        on_progress=None,
        *,
        uplink_wire_codec: str = "cds1",
        uplink_codec_config: CodecConfig | None = None,
    ) -> None:
        self.node = node
        self.expected_children = expected_children
        self.config = config or ReliabilityConfig()
        self.on_progress = on_progress
        self._obs = ensure_observer(observer)
        self.hop = AggregatorHop(node, level, self._obs)
        self._arq = dict(arq) if arq is not None else None
        self._uplink_wire_codec = uplink_wire_codec
        self._uplink_codec_config = uplink_codec_config
        self.writers: dict[int, asyncio.StreamWriter] = {}
        self._server: asyncio.base_events.Server | None = None
        self._done = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        self._closing = False
        self._uplink: Uplink | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self.hop.listen(
            self._send_ack,
            AsyncioClock(asyncio.get_running_loop()),
            self.config,
        )
        self.hop.restore_cursors(self._arq)
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        """The actually bound TCP port."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    @property
    def receiver(self) -> ReliableReceiver | None:
        """The children's ARQ receiver, once :meth:`start` built it."""
        return self.hop.receiver

    @property
    def uplink(self) -> ReliableSender | None:
        return self.hop.uplink

    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return self.hop.arq_state()

    async def wait_done(self, timeout: float | None = None) -> bool:
        """Wait until all expected children completed; ``False`` on timeout."""
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def stale_sites(self, stale_after: float | None = None) -> tuple[int, ...]:
        """Children silent beyond the staleness timeout."""
        assert self.receiver is not None
        return self.receiver.stale_sites(stale_after)

    def request_stop(self) -> None:
        """Make handlers stop absorbing envelopes.

        Safe to call from a raw ``signal.signal`` handler: handlers
        check the flag between envelopes, so a stop interrupts even a
        connection whose buffered backlog would take many EM merges to
        absorb (an asyncio signal handler would wait for the current
        chunk's whole batch).  Follow up with :meth:`close`.
        """
        self._closing = True

    async def close(self) -> None:
        assert self._server is not None
        # Handlers poll this between envelopes: an interrupted shutdown
        # must not wait for the backlog of buffered synopses to be
        # absorbed at EM-merge speed before the process can exit.
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        for writer in self.writers.values():
            if not writer.is_closing():
                writer.close()
        # Closed transports feed EOF to the per-connection handlers; let
        # them unwind on their own instead of cancelling mid-read (which
        # asyncio's stream machinery reports noisily at loop shutdown).
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._uplink is not None:
            await self._uplink.close()

    # ------------------------------------------------------------------
    # Uplink to the parent aggregator
    # ------------------------------------------------------------------
    async def connect_uplink(self, host: str, port: int, seed: int = 0) -> None:
        """Open the parent connection; uploads flow once connected."""
        if self.node.parent_id is None:
            raise ValueError("root aggregator has no parent to connect to")
        first_seq = 1
        if self._arq is not None:
            first_seq = int(self._arq.get("uplink_next_seq", 1))
        self._uplink = uplink = await Uplink.connect(
            self.node.node_id,
            host,
            port,
            config=self.config,
            seed=seed,
            observer=self._obs,
            wire_codec=self._uplink_wire_codec,
            codec_config=self._uplink_codec_config,
            first_seq=first_seq,
        )
        self.hop.edge = uplink.edge
        self.hop.forward = uplink.edge.send

    async def finish_uplink(self, drain_timeout: float = 60.0) -> None:
        """Drain unacked uploads, send DONE upward, half-close the
        uplink (:meth:`repro.transport.tcp.Uplink.finish`)."""
        if self._uplink is not None:
            await self._uplink.finish(drain_timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if (
            self.expected_children is not None
            and self.receiver is not None
            and self.receiver.all_done(self.expected_children)
        ):
            self._done.set()

    def _send_ack(self, child_id: int, data: bytes) -> None:
        writer = self.writers.get(child_id)
        if writer is not None and not writer.is_closing():
            writer.write(data)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self.receiver is not None
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        decoder = StreamDecoder()
        try:
            while not self._closing:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for envelope in decoder.feed(chunk):
                    if self._closing:
                        break
                    self.writers[envelope.site_id] = writer
                    self.receiver.handle_envelope(envelope)
                    if self.on_progress is not None:
                        self.on_progress()
                # Check completion BEFORE draining acks: a child may
                # close its socket right after DONE, making the drain
                # raise -- the DONE is already registered by then and
                # must still release wait_done().
                self._check_done()
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            self._check_done()
        except Exception:  # noqa: BLE001  -- a dead handler stops acks
            # A handler that dies silently strands every child on this
            # connection (their sender retransmits forever against a
            # closed pipe); surface the error instead.
            import traceback

            print(
                "coordinator connection handler failed:", file=sys.stderr
            )
            traceback.print_exc()
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()


async def run_aggregator(
    spec: ClusterSpec,
    node_spec: NodeSpec,
    report: Callable[[dict], None],
    parent_port: int | None = None,
    telemetry_port: int | None = None,
    checkpoint_dir: Path | None = None,
    resume: bool = False,
    *,
    coordinator_config: CoordinatorConfig | None = None,
    reliability: ReliabilityConfig | None = None,
    history=None,
    sinks: Sequence = (),
    timeout: float | None = None,
    telemetry_hold: float = 0.0,
) -> int:
    """Serve one aggregator until its children finish or it is stopped.

    Builds or resumes the node, binds, serves telemetry, connects the
    uplink to ``parent_port``, waits, finishes the uplink and writes
    ``aggregator-<id>.json`` (with the ARQ cursors) and
    ``node-<id>.manifest.json``.  Returns the exit status.  ``report``
    receives the ``listening`` dict once the stop handler is in (or an
    ``error`` dict instead) and, at the root, the ``result`` dict.

    ``telemetry_port`` is the one telemetry switch: an aggregator that
    serves telemetry also federates -- it reports up the tree, and the
    root collects every node's reports.  ``coordinator_config`` defaults
    to the spec's, ``history`` to a fresh record when ``spec.history``;
    ``sinks`` are extra trace sinks and ``telemetry_hold`` keeps
    telemetry up that many seconds after the run.  SIGTERM stops the
    wait, as does SIGINT unless the process ignores it (launcher
    workers do); the previous handlers are back when this returns.
    """
    import os

    from repro.io.checkpoint import (
        checkpoint_found,
        load_aggregator,
        save_aggregator,
    )
    from repro.obs import (
        FederationCollector,
        HealthMonitor,
        ModelHistory,
        MultiSink,
        SpanCollector,
        TelemetryServer,
        publish_process_resources,
        system_snapshot,
        topology_from_spec,
    )

    node_id = node_spec.node_id
    health = spans = None
    federate = telemetry_port is not None
    if federate:
        health, spans = HealthMonitor(), SpanCollector()
        sinks = (health, spans, *sinks)
    observer = None
    if sinks:
        observer = Observer(sink=MultiSink(list(sinks)), span_origin=node_id)
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

    node = arq = None
    if resume and checkpoint_dir is not None:
        path = checkpoint_dir / f"aggregator-{node_id}.json"
        if checkpoint_found(path, f"aggregator {node_id}"):
            node, arq = load_aggregator(path, observer=obs)
    if node is None:
        node = InternalNode(
            node_id=node_id,
            coordinator=Coordinator(
                coordinator_config or spec.coordinator_config(),
                rng=aggregator_rng(spec.seed, node_id),
                observer=obs,
            ),
            parent_id=node_spec.parent_id,
            upload_threshold=spec.upload_threshold,
        )
    if node.coordinator.history is None:
        # A resumed coordinator restores its reign record from the
        # checkpoint; only attach a fresh one when none rode along.
        if history is None and spec.history:
            history = ModelHistory(scope="coordinator")
        node.coordinator.history = history
    history = node.coordinator.history
    if history is not None:
        history.observer = obs
        if health is not None:
            history.gauge_source = health.history_gauges

    server = AggregatorServer(
        node,
        expected_children=len(spec.children(node_id)),
        level=node_spec.level,
        config=reliability,
        observer=observer,
        arq=arq,
        uplink_wire_codec=spec.wire_codec,
        uplink_codec_config=spec.codec_config(),
    )

    def _fail(error: str) -> int:
        report({"event": "error", "node_id": node_id, "error": error})
        return 1

    try:
        await server.start(spec.host, node_spec.port)
    except OSError as exc:
        return _fail(f"cannot bind {spec.host}:{node_spec.port}: {exc}")

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
                "children_heard": list(server.receiver.known_sites),
                **hop.gauges(),
                "coordinator": system_snapshot((), node.coordinator)[
                    "coordinator"
                ],
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
            return _fail(f"cannot bind telemetry port {telemetry_port}: {exc}")

    if parent_port is not None:
        try:
            await server.connect_uplink(spec.host, parent_port, seed=spec.seed)
        except (ConnectionRefusedError, OSError) as exc:
            await server.close()
            if telemetry is not None:
                telemetry.close()
            return _fail(
                f"cannot reach parent at {spec.host}:{parent_port}: {exc}"
            )

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

    # Serve until every child reported DONE, the timeout passes, or a
    # signal asks us to stop (the launcher's SIGTERM arrives leaves
    # first, so by then this node's children are already down).  A
    # *raw* signal handler, not loop.add_signal_handler: it must flip
    # the server's stop flag between bytecodes, because the event loop
    # itself can be busy for many seconds absorbing one chunk's batch
    # of synopses.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _on_stop(*_: object) -> None:
        server.request_stop()
        loop.call_soon_threadsafe(stop.set)

    signums = [signal.SIGTERM]
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        signums.append(signal.SIGINT)
    # Installed before the node says it is listening: a signal in
    # between would otherwise kill it with no checkpoint written.
    previous = {signum: signal.signal(signum, _on_stop) for signum in signums}
    try:
        report(
            {
                "event": "listening",
                "node_id": node_id,
                "port": server.port,
                "telemetry_port": (
                    telemetry.port if telemetry is not None else None
                ),
            }
        )
        done_task = asyncio.ensure_future(server.wait_done(timeout))
        stop_task = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            (done_task, stop_task), return_when=asyncio.FIRST_COMPLETED
        )
        completed = (
            done_task.done() and done_task.result() and not stop_task.done()
        )
        for task in (done_task, stop_task):
            task.cancel()
        await asyncio.gather(done_task, stop_task, return_exceptions=True)

        code = 0
        if flush_task is not None:
            flush_task.cancel()
            await asyncio.gather(flush_task, return_exceptions=True)
        if hop.publisher is not None:
            # Final report: children are done, so it covers the whole
            # run -- and it is written before DONE goes up the stream.
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
                node,
                checkpoint_dir / f"aggregator-{node_id}.json",
                arq=server.arq_state(),
            )
            _write_node_manifest(
                checkpoint_dir, spec, node_spec, server.port,
                telemetry.port if telemetry is not None else None,
            )

        if node_spec.is_root:
            report(_root_result(server, completed, stop.is_set()))

        await server.close()
        if telemetry is not None:
            if telemetry_hold > 0.0:
                await asyncio.sleep(telemetry_hold)
            telemetry.close()
        return code
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _root_result(server: AggregatorServer, completed: bool, stopped: bool):
    """The root's ``result`` event: the global mixture, the coordinator
    and delivery counters, and how the wait ended."""
    node, delivery = server.node, server.receiver.stats
    stats = node.coordinator.stats
    try:
        mixture = list(node.coordinator.global_mixture())
    except ValueError:  # nothing applied yet
        mixture = []
    return {
        "event": "result",
        "node_id": node.node_id,
        "components": len(mixture),
        "weights": [float(weight) for weight, _ in mixture],
        "means": [component.mean.tolist() for _, component in mixture],
        "completed": completed,
        "stopped": stopped,
        "stale_sites": sorted(server.stale_sites()),
        "coordinator": {
            "clusters": node.coordinator.n_components,
            "messages": stats.messages_received,
            "payload_bytes": stats.bytes_received,
            "merges": stats.merges,
            "splits": stats.splits,
        },
        "delivery": {
            "delivered": delivery.delivered,
            "dupes_suppressed": delivery.duplicates_suppressed,
            "acks": delivery.acks_sent,
            "wire_bytes": delivery.wire_bytes_received,
        },
    }


def _write_node_manifest(
    checkpoint_dir: Path,
    spec: ClusterSpec,
    node_spec: NodeSpec,
    port: int,
    telemetry_port: int | None,
) -> None:
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
