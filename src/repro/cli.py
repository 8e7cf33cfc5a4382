"""Command-line interface: ``cludistream``.

The subcommands cover the common workflows without writing code:

* ``cludistream chunk-size -d 4 --epsilon 0.02 --delta 0.01`` -- the
  Theorem 1 chunk size for a parameter choice;
* ``cludistream run --sites 4 --records 8000 --stream synthetic`` --
  run a full distributed system over synthetic or net-flow streams and
  print the per-site and coordinator summary;
* ``cludistream serve --expected-sites 2`` / ``cludistream site
  --site-id 0 --port PORT`` -- a real multi-process deployment: the
  coordinator listens on a TCP socket and remote-site processes stream
  synopses to it over the fault-tolerant transport
  (:mod:`repro.transport`);
* ``cludistream stats trace.jsonl`` -- summarise a structured trace
  written by ``--trace-file`` into per-site and system-wide counts
  (``--format json`` for the machine-readable twin);
* ``cludistream monitor --url http://127.0.0.1:9464`` -- a refreshing
  terminal dashboard polling a run started with ``--serve-telemetry``
  (or ``--trace trace.jsonl`` to replay a recorded run).

The same entry point is also installed as ``repro`` (so ``repro
stats`` works as documented); both names accept every subcommand.

``run``, ``serve`` and ``site`` all take ``--checkpoint-dir`` /
``--resume``: the run's state (sites, coordinator, stream position) is
saved as JSON checkpoints, and a crashed or interrupted process can be
restarted from them, converging to the same final state as an
uninterrupted run (streams are seeded, so records replay exactly).

All commands accept ``--seed`` for reproducibility, and the global
``--log-level`` / ``--trace-file`` flags turn on structured tracing
(every chunk test, EM fit, merge/split decision and transport action as
one JSONL event).  Exit status is 0 on success; argument errors exit
with argparse's usual status 2.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

import numpy as np

__all__ = ["build_parser", "main"]

_LOG_LEVELS = ("debug", "info", "warning", "error")


def build_parser() -> argparse.ArgumentParser:
    """The ``cludistream`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="cludistream",
        description="CluDistream: distributed data stream clustering (ICDE 2007).",
    )
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="warning",
        help="python logging level; 'debug' also mirrors trace events "
        "to the 'repro.obs' logger",
    )
    parser.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="append structured JSONL trace events to PATH "
        "(summarise later with 'cludistream stats PATH')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chunk = sub.add_parser(
        "chunk-size", help="compute the Theorem 1 chunk size M"
    )
    chunk.add_argument("-d", "--dim", type=int, default=4)
    chunk.add_argument("--epsilon", type=float, default=0.02)
    chunk.add_argument("--delta", type=float, default=0.01)

    run = sub.add_parser(
        "run", help="run a distributed clustering experiment"
    )
    run.add_argument("--sites", type=int, default=4)
    run.add_argument("--records", type=int, default=8000, help="per site")
    _add_model_flags(
        run, clusters=5, chunk=1000,
        incremental="at every site (reactivate -> warm-start EM -> cold refit)",
    )
    run.add_argument(
        "--simulate",
        action="store_true",
        help="time the run on a virtual clock (reports virtual time)",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write a runtime checkpoint (sites + coordinator + stream "
        "position) to DIR when the run completes",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="also checkpoint every N stream rounds (requires "
        "--checkpoint-dir)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint in --checkpoint-dir; the "
        "seeded streams are replayed and already-consumed records "
        "skipped",
    )
    _add_telemetry_flags(run)
    _add_history_flags(run)

    serve = sub.add_parser(
        "serve",
        help="run the coordinator as a TCP server (multi-process mode)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--expected-sites", type=int, default=2,
        help="exit once this many sites report completion",
    )
    serve.add_argument("--clusters", type=int, default=5, help="global cap")
    serve.add_argument(
        "--timeout", type=float, default=300.0,
        help="give up after this many seconds",
    )
    serve.add_argument(
        "--stale-after", type=float, default=30.0,
        help="flag sites silent for this long as stale",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="save the root's state and ARQ cursors to "
        "DIR/aggregator-0.json when the server exits (even on timeout)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="start from the checkpoint in --checkpoint-dir; replayed "
        "updates a site already delivered are suppressed",
    )
    _add_telemetry_flags(serve)
    _add_history_flags(serve)

    site = sub.add_parser(
        "site",
        help="run one remote site against a TCP coordinator",
    )
    site.add_argument("--host", default="127.0.0.1")
    site.add_argument("--port", type=int, required=True)
    site.add_argument("--site-id", type=int, default=0)
    site.add_argument("--records", type=int, default=2000)
    _add_model_flags(
        site, clusters=3, chunk=500, dim=4, incremental="on this site"
    )
    site.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="save the site state to DIR/site-<id>.json and its uplink "
        "sequence to DIR/site-<id>.manifest.json after the run",
    )
    site.add_argument(
        "--resume",
        action="store_true",
        help="restore the site from --checkpoint-dir and stream only "
        "the records beyond its recorded position, continuing its "
        "uplink sequence",
    )
    _add_codec_flags(site)

    cluster = sub.add_parser(
        "cluster",
        help="deploy a multi-level aggregation tree as real processes",
    )
    cluster.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="load the topology from a JSON spec file (see --write-spec); "
        "overrides the shape flags below",
    )
    cluster.add_argument(
        "--write-spec",
        default=None,
        metavar="PATH",
        help="write the resolved spec as JSON and exit without launching",
    )
    cluster.add_argument(
        "--sites", type=int, default=None,
        help="number of leaf sites (default: 8; soak mode: 1000)",
    )
    cluster.add_argument(
        "--fanin", type=int, default=None,
        help="max children per aggregator (default: 4; soak mode: 32)",
    )
    cluster.add_argument(
        "--depth", type=int, default=None,
        help="force this many aggregator levels (default: derived from "
        "--sites/--fanin; 1 = flat star)",
    )
    cluster.add_argument(
        "--records", type=int, default=None,
        help="records per site (default: 2000; soak mode: 300)",
    )
    _add_model_flags(
        cluster, clusters=3, chunk=500, dim=2,
        incremental="at every site (per-node overrides in a JSON spec "
        "take precedence)",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--base-port", type=int, default=0,
        help="assign consecutive aggregator ports starting here "
        "(0 = ephemeral, actually bound ports printed at startup)",
    )
    cluster.add_argument(
        "--upload-threshold", type=float, default=0.05,
        help="mixture-change score above which an aggregator uploads "
        "to its parent",
    )
    cluster.add_argument(
        "--merge-method", choices=("simplex", "moment"), default="moment",
        help="coordinator merge refit (simplex: the paper's L1 fit, "
        "deprecated)",
    )
    cluster.add_argument(
        "--timeout", type=float, default=None,
        help="give up waiting for completion after this many seconds",
    )
    cluster.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="each aggregator writes its checkpoint and an endpoint "
        "manifest under DIR on exit",
    )
    cluster.add_argument(
        "--resume",
        action="store_true",
        help="restart aggregators from checkpoints in --checkpoint-dir "
        "(including ARQ edge state)",
    )
    cluster.add_argument(
        "--soak",
        action="store_true",
        help="run the in-process soak harness (tree vs flat reference "
        "on identical streams) instead of spawning processes",
    )
    cluster.add_argument(
        "--soak-tolerance", type=float, default=0.5,
        help="max acceptable avg log-likelihood gap, nats per holdout "
        "record (soak mode)",
    )
    cluster.add_argument(
        "--telemetry-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between federated telemetry flushes up the tree "
        "(default: spec value, 2.0); with --serve-telemetry the root "
        "additionally serves /cluster/health, /cluster/nodes and "
        "/cluster/spans",
    )
    _add_codec_flags(cluster)
    _add_telemetry_flags(cluster)
    # Bool only: ClusterSpec carries ``history`` as a switch, so every
    # node's store keeps the library defaults (alpha=2, l=2).
    _add_history_flags(cluster, knobs=False)

    stats = sub.add_parser(
        "stats",
        help="summarise a JSONL trace written with --trace-file",
    )
    stats.add_argument("trace", help="path of the trace file")
    stats.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="output format (default: text)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    stats.add_argument(
        "--window", nargs=2, type=int, default=None, metavar=("T0", "T1"),
        help="instead of the run summary, report drift analytics over "
        "[T0, T1] folded from the trace's history.snapshot events -- "
        "the same computation the live /history/drift endpoint serves "
        "(requires a trace recorded with --history)",
    )
    stats.add_argument(
        "--scope", default=None, metavar="SCOPE",
        help="with --window: which history to fold when the trace "
        "carries several (e.g. 'coordinator', 'site:0'; default: "
        "the coordinator's, else the first recorded)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="refreshing terminal dashboard for a live or recorded run",
    )
    monitor.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="telemetry server base URL (from --serve-telemetry)",
    )
    monitor.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="replay a JSONL trace file instead of polling a server",
    )
    monitor.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default: 1.0)",
    )
    monitor.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: run until interrupted; "
        "--trace defaults to a single render)",
    )
    monitor.add_argument(
        "--no-clear",
        action="store_true",
        help="do not clear the screen between refreshes",
    )
    monitor.add_argument(
        "--cluster",
        action="store_true",
        help="render the federated cluster dashboard (tree topology, "
        "per-node health tiles, per-level wire cost) from the root's "
        "/cluster/* endpoints instead of the single-run view",
    )
    return parser


def _add_model_flags(
    parser: argparse.ArgumentParser,
    *,
    clusters: int,
    chunk: int,
    incremental: str,
    dim: int | None = None,
) -> None:
    """The paper's shared (d, K, epsilon, delta, M, P_d) and the stream
    they describe; ``run`` has no ``--dim`` (4, or 6 for net-flow)."""
    parser.add_argument(
        "--stream", choices=("synthetic", "netflow"), default="synthetic"
    )
    parser.add_argument("--clusters", type=int, default=clusters, help="K")
    if dim is not None:
        parser.add_argument("--dim", type=int, default=dim)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--chunk", type=int, default=chunk)
    parser.add_argument("--p-new", type=float, default=0.1, help="P_d")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--incremental",
        action="store_true",
        help=f"enable the incremental EM refit ladder {incremental}",
    )


def _add_codec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wire-codec",
        choices=("cds1", "cds2"),
        default="cds1",
        help="wire codec of the edges this node sends on; every receiver "
        "decodes cds1 and cds2 (DESIGN.md section 15, default: cds1)",
    )
    parser.add_argument(
        "--quantize",
        choices=("f64", "f32", "f16"),
        default="f64",
        help="covariance precision on the wire (cds2 only; f32/f16 ship "
        "quantized Cholesky factors, default: f64 = exact)",
    )
    parser.add_argument(
        "--delta-encoding",
        action="store_true",
        help="cds2 only: ship only components changed since the last "
        "acknowledged update instead of full snapshots",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics, /health, /snapshot and /spans over "
        "HTTP on PORT while running (0 = ephemeral port, printed at "
        "startup); watch it with 'cludistream monitor --url ...'",
    )
    parser.add_argument(
        "--telemetry-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the telemetry server up this long after the run "
        "finishes (for scrapes of the final state)",
    )


def _add_history_flags(
    parser: argparse.ArgumentParser, knobs: bool = True
) -> None:
    parser.add_argument(
        "--history",
        action="store_true",
        help="record pyramidal model history for time-travel queries: "
        "/history endpoints on the telemetry server, drift analytics "
        "('cludistream stats --window T0 T1' on a trace), and retained "
        "snapshots that ride checkpoints across --resume",
    )
    if not knobs:
        return
    parser.add_argument(
        "--history-alpha", type=int, default=2, metavar="ALPHA",
        help="pyramid base: snapshot order i holds ticks divisible by "
        "ALPHA^i (default: 2)",
    )
    parser.add_argument(
        "--history-capacity", type=int, default=2, metavar="L",
        help="snapshots retained per order: ALPHA^L + 1 (default: 2)",
    )
    parser.add_argument(
        "--history-bytes", type=int, default=None, metavar="BYTES",
        help="hard memory budget for retained snapshot payloads; the "
        "globally oldest are evicted first (default: unbounded)",
    )


class _Exit(Exception):
    """A one-line message for stderr and an exit status; :func:`main`
    is the one place that prints it.  Status 2 (the default) is a usage
    error: a flag combination argparse itself cannot reject."""

    def __init__(self, message: str, status: int = 2) -> None:
        super().__init__(message)
        self.status = status


def _check_checkpoint_flags(args: argparse.Namespace) -> None:
    for flag in ("resume", "checkpoint_every"):
        if getattr(args, flag, None) and not args.checkpoint_dir:
            raise _Exit(
                f"--{flag.replace('_', '-')} requires --checkpoint-dir"
            )


def _spec_from_flags(args: argparse.Namespace, **shape):
    """The deployment the flags describe, as a :class:`ClusterSpec`.

    The one place parsed flags become a deployment: every flag named
    like a spec field (``--records`` is ``records_per_site``) fills it,
    a flag the subcommand does not have leaves the spec's default.
    ``run`` and ``site`` read the node-less spec as a parameter bundle
    -- ``site_config()``, ``coordinator_config()``, ``wire_codec`` /
    ``codec_config()``, ``cluster.data.make_stream``; ``cluster`` and
    ``serve`` pass their ``shape`` (sites, fanin, depth, base_port)
    through :func:`~repro.cluster.build_spec`.
    """
    from dataclasses import fields

    from repro.cluster import ClusterSpec, build_spec

    flags = vars(args)
    if "wire_codec" in flags:
        # The typed flags must be able to take effect: the spec itself
        # only applies a spec-wide delta_encoding to its cds2 edges.
        from repro.core.serde import CodecConfig, get_codec

        try:
            get_codec(
                args.wire_codec,
                CodecConfig(quantize=args.quantize, delta=args.delta_encoding),
            )
        except ValueError as error:
            raise _Exit(f"invalid codec flags: {error}") from None
    params = {}
    for field in fields(ClusterSpec):
        if field.name in ("nodes", "history", "telemetry_interval"):
            continue  # the first is shape; cluster overlays the others
        flag = "records" if field.name == "records_per_site" else field.name
        if flags.get(flag) is not None:
            params[field.name] = flags[flag]
    if params.get("stream") == "netflow":
        params["dim"] = 6
    elif "stream" in params:
        params.setdefault("dim", 4)
    try:
        return build_spec(**shape, **params) if shape else ClusterSpec(**params)
    except ValueError as error:
        raise _Exit(f"invalid topology: {error}") from None


def _make_history(args: argparse.Namespace, scope: str):
    """A :class:`ModelHistory` from the ``--history`` knobs."""
    from repro.obs import ModelHistory

    try:
        return ModelHistory(
            alpha=args.history_alpha,
            capacity=args.history_capacity,
            max_bytes=args.history_bytes,
            scope=scope,
        )
    except ValueError as error:
        raise _Exit(f"invalid --history settings: {error}") from None


def _trace_sinks(args: argparse.Namespace) -> list:
    """The global flags' trace sinks: ``--trace-file`` installs a JSONL
    sink; ``--log-level debug`` mirrors every event to the
    ``repro.obs`` logger."""
    from repro.obs import JsonlTraceSink, LoggingTraceSink

    sinks: list = []
    if args.trace_file:
        sinks.append(JsonlTraceSink(args.trace_file))
    if args.log_level == "debug":
        sinks.append(LoggingTraceSink())
    return sinks


def _build_observer(args: argparse.Namespace, extra_sinks: Sequence = ()):
    """Observer over :func:`_trace_sinks`, or ``None`` when tracing is off.

    ``extra_sinks`` (e.g. a live :class:`~repro.obs.health.HealthMonitor`
    or :class:`~repro.obs.spans.SpanCollector`) also force a live
    observer.
    """
    from repro.obs import MultiSink, Observer

    sinks = _trace_sinks(args) + list(extra_sinks)
    if not sinks:
        return None
    return Observer(sink=sinks[0] if len(sinks) == 1 else MultiSink(sinks))


def _start_telemetry(
    args: argparse.Namespace,
    observer,
    sinks: tuple,
    coordinator,
    sites: Sequence,
    accounting,
):
    """Wire ``--history`` and start ``--serve-telemetry`` for ``run``:
    history stores on the coordinator and ``sites``, their observer and
    health-gauge hooks, then the HTTP server over them.

    Returns the started :class:`TelemetryServer`, or ``None`` without
    ``--serve-telemetry``.  A resumed node restored its retained history
    from the checkpoint; fresh stores attach only where none rode along.
    """
    health, spans = sinks or (None, None)
    if args.history:
        if coordinator.history is None:
            coordinator.history = _make_history(args, "coordinator")
        for site in sites:
            if site.history is None:
                site.history = _make_history(args, f"site:{site.site_id}")
                site.history.observer = site._obs
    if coordinator.history is not None:
        coordinator.history.observer = coordinator._obs
        if health is not None:
            coordinator.history.gauge_source = health.history_gauges
    if health is None:
        return None
    from repro.obs import TelemetryServer, system_snapshot

    health.bind(
        component_count=lambda: coordinator.n_components,
        accounting=accounting,
    )
    try:
        server = TelemetryServer(
            observer,
            health=health,
            spans=spans,
            snapshot=lambda: system_snapshot(sites, coordinator, accounting()),
            port=args.serve_telemetry,
            history=coordinator.history,
        ).start()
    except OSError as error:
        raise _Exit(
            f"cannot bind telemetry port {args.serve_telemetry}: {error}",
            status=1,
        ) from None
    print(f"telemetry: {server.url}", flush=True)
    return server


def _cmd_chunk_size(args: argparse.Namespace) -> int:
    from repro.core.chunking import chunk_size, window_error_bound

    m = chunk_size(args.dim, args.epsilon, args.delta)
    print(f"chunk size M = {m} records")
    print(
        "evolving-analysis window error M/2 = "
        f"{window_error_bound(args.dim, args.epsilon, args.delta):.0f} records"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.cluster import make_stream
    from repro.core.cludistream import CluDistream, CluDistreamConfig
    from repro.runtime import DirectChannel, Runtime, SimulatedChannel

    _check_checkpoint_flags(args)
    spec = _spec_from_flags(args)
    config = CluDistreamConfig(
        n_sites=args.sites,
        site=spec.site_config(),
        coordinator=spec.coordinator_config(),
    )
    sinks = ()
    if args.serve_telemetry is not None:
        from repro.obs import HealthMonitor, SpanCollector

        sinks = (HealthMonitor(), SpanCollector())
    observer = _build_observer(args, sinks)
    system = CluDistream(config, seed=args.seed, observer=observer)
    streams = {i: make_stream(spec, i) for i in range(args.sites)}
    sites = system.sites
    coordinator = system.coordinator

    channel = SimulatedChannel() if args.simulate else DirectChannel()
    if args.resume:
        runtime = Runtime.resume(
            args.checkpoint_dir,
            channel,
            observer=observer,
            checkpoint_every=args.checkpoint_every,
        )
        resumed_at = runtime.rounds_completed
        sites = runtime.sites
        coordinator = runtime.coordinator
    else:
        runtime = system.runtime(
            channel,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
        resumed_at = 0
    server = _start_telemetry(
        args, observer, sinks, coordinator, sites, runtime.accounting
    )
    if server is not None:
        # Record the *bound* endpoint (port 0 resolves at bind time) so
        # checkpoint manifests point at the live server.
        runtime.endpoints["telemetry"] = {
            "port": server.port,
            "url": server.url,
        }
    report = runtime.run(streams, max_records_per_site=args.records)
    if args.simulate:
        print(
            f"simulated {report.records} records in "
            f"{report.duration:.1f} virtual seconds"
        )
    else:
        print(f"processed {report.records} records")
    if resumed_at:
        print(f"resumed from round {resumed_at}")
    if args.checkpoint_dir:
        print(f"checkpoint written to {args.checkpoint_dir}")

    for site in sites:
        print(
            f"site {site.site_id}: models={len(site.all_models)} "
            f"tests={site.stats.n_tests} em_runs={site.stats.n_clusterings} "
            f"reactivations={site.stats.n_reactivations} "
            f"bytes={site.stats.bytes_sent}"
        )
    print(
        f"coordinator: clusters={coordinator.n_components} "
        f"messages={coordinator.stats.messages_received} "
        f"bytes={coordinator.stats.bytes_received} "
        f"merges={coordinator.stats.merges} splits={coordinator.stats.splits}"
    )
    mixture = coordinator.global_mixture()
    for weight, component in sorted(
        mixture, key=lambda pair: pair[0], reverse=True
    ):
        print(f"  w={weight:.3f}  mean={np.round(component.mean, 2)}")
    if server is not None:
        if args.telemetry_hold > 0.0:
            import time

            print(
                f"holding telemetry server for {args.telemetry_hold:.0f}s",
                flush=True,
            )
            time.sleep(args.telemetry_hold)
        server.close()
    if observer is not None:
        observer.close()
        if args.trace_file:
            print(f"trace written to {args.trace_file}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.cluster.aggregator import run_aggregator
    from repro.core.coordinator import CoordinatorConfig
    from repro.transport.reliability import ReliabilityConfig

    _check_checkpoint_flags(args)
    # The flat coordinator is the root of a one-level tree.
    spec = _spec_from_flags(
        args, sites=args.expected_sites, fanin=2, depth=1, base_port=args.port
    )
    sinks = _trace_sinks(args)
    events: dict = {}

    def report(event: dict) -> None:
        events[event["event"]] = event
        if event["event"] == "listening":
            if event["telemetry_port"] is not None:
                print(
                    f"telemetry: http://{args.host}:{event['telemetry_port']}",
                    flush=True,
                )
            print(f"listening on {args.host}:{event['port']}", flush=True)

    try:
        asyncio.run(
            run_aggregator(
                spec,
                spec.root,
                report,
                telemetry_port=args.serve_telemetry,
                checkpoint_dir=(
                    Path(args.checkpoint_dir) if args.checkpoint_dir else None
                ),
                resume=args.resume,
                # --clusters is the global cap itself here, not the 2K
                # that spec.coordinator_config() derives from a per-site K.
                coordinator_config=CoordinatorConfig(
                    max_components=args.clusters
                ),
                reliability=ReliabilityConfig(stale_after=args.stale_after),
                history=(
                    _make_history(args, "coordinator") if args.history else None
                ),
                sinks=sinks,
                timeout=args.timeout,
                telemetry_hold=args.telemetry_hold,
            )
        )
    finally:
        for sink in sinks:
            sink.close()
    if "error" in events:
        raise _Exit(events["error"]["error"], status=1)
    result = events["result"]
    if args.checkpoint_dir:
        print(f"checkpoint written to {args.checkpoint_dir}")
    for line in ("coordinator", "delivery"):
        counters = " ".join(f"{k}={v}" for k, v in result[line].items())
        print(f"{line}: {counters}")
    if result["stale_sites"]:
        print(f"stale sites: {result['stale_sites']}")
    if not result["completed"]:
        reason = "stopped by signal" if result["stopped"] else "timed out"
        print(f"{reason} waiting for sites", flush=True)
        return 1
    for weight, mean in sorted(
        zip(result["weights"], result["means"]),
        key=lambda pair: pair[0],
        reverse=True,
    ):
        print(f"  w={weight:.3f}  mean={np.round(np.asarray(mean), 2)}")
    print("all sites completed", flush=True)
    return 0


def _cmd_site(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.cluster import make_stream
    from repro.streams.base import take
    from repro.transport.tcp import run_site_client

    _check_checkpoint_flags(args)
    spec = _spec_from_flags(args)
    records = take(make_stream(spec, args.site_id), args.records)
    observer = _build_observer(args)
    restored, first_seq = None, 1
    target = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    if target is not None:
        manifest = target / f"site-{args.site_id}.manifest.json"
    if args.resume:
        from repro.io.checkpoint import load_site

        restored = load_site(
            target / f"site-{args.site_id}.json", observer=observer
        )
        # The seeded generator replays the original stream; hand the
        # restored site only the records beyond its recorded position.
        records = records[restored.position:]
        print(
            f"site {args.site_id}: resumed at position "
            f"{restored.position} ({len(records)} records left)"
        )
        # Continue the uplink's sequence: the parent's cursor for this
        # site survived its own restart.  A 1.15.0 site directory has
        # no manifest and starts again at 1.
        if manifest.exists():
            first_seq = json.loads(manifest.read_text())["uplink_next_seq"]
    try:
        site, report = asyncio.run(
            run_site_client(
                args.site_id,
                records,
                args.host,
                args.port,
                site_config=spec.site_config(),
                seed=args.seed,
                observer=observer,
                site=restored,
                wire_codec=spec.wire_codec,
                codec_config=spec.codec_config(),
                first_seq=first_seq,
            )
        )
    except OSError as error:
        raise _Exit(
            f"site {args.site_id}: cannot reach coordinator at "
            f"{args.host}:{args.port} ({error})",
            status=1,
        ) from None
    finally:
        if observer is not None:
            observer.close()
    if target is not None:
        from repro.io.checkpoint import save_site

        target.mkdir(parents=True, exist_ok=True)
        save_site(site, target / f"site-{args.site_id}.json")
        # Each DATA payload took one sequence number; retransmissions
        # reuse theirs.
        next_seq = first_seq + report.messages_sent
        manifest.write_text(
            json.dumps(
                {"format": 1, "kind": "site", "site_id": args.site_id,
                 "uplink_next_seq": next_seq}
            )
        )
        print(f"site checkpoint written to {target}")
    print(
        f"site {args.site_id}: records={report.records} "
        f"models={report.models} messages={report.messages_sent} "
        f"payload_bytes={report.payload_bytes} "
        f"wire_bytes={report.wire_bytes} "
        f"retransmissions={report.retransmissions}"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.cluster import load_spec, save_spec, soak_spec

    if args.spec:
        try:
            spec = load_spec(args.spec)
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise _Exit(
                f"cannot load spec {args.spec}: {error}", status=1
            ) from None
    elif args.soak:
        # Soak defaults are tuned for the 1000-site CI budget (small
        # dim/K, moment merges); shape flags still apply.
        spec = soak_spec(
            sites=args.sites if args.sites is not None else 1000,
            fanin=args.fanin if args.fanin is not None else 32,
            records_per_site=(
                args.records if args.records is not None else 300
            ),
            seed=args.seed,
        )
    else:
        spec = _spec_from_flags(
            args,
            sites=args.sites if args.sites is not None else 8,
            fanin=args.fanin if args.fanin is not None else 4,
            depth=args.depth,
            base_port=args.base_port,
        )

    if args.telemetry_interval is not None:
        if args.telemetry_interval <= 0:
            raise _Exit("invalid --telemetry-interval: must be positive")
        spec = replace(spec, telemetry_interval=args.telemetry_interval)
    if args.history and not spec.history:
        spec = replace(spec, history=True)

    if args.write_spec:
        path = save_spec(spec, args.write_spec)
        print(f"spec written to {path}")
        return 0

    if args.soak:
        return _run_cluster_soak(spec, args)
    return _run_cluster_launch(spec, args)


def _run_cluster_soak(args_spec, args: argparse.Namespace) -> int:
    from repro.cluster import run_soak

    print(args_spec.describe(), flush=True)
    last_decile = -1

    def progress(done: int, total: int) -> None:
        nonlocal last_decile
        decile = (10 * done) // max(total, 1)
        if decile > last_decile:
            last_decile = decile
            print(f"  fed {done}/{total} records", flush=True)

    report = run_soak(
        spec=args_spec,
        tolerance=args.soak_tolerance,
        progress=progress,
    )
    print(report.summary())
    return 0 if report.passed else 1


def _run_cluster_launch(spec, args: argparse.Namespace) -> int:
    import signal

    from repro.cluster import ClusterLaunchError, ClusterLauncher

    launcher = ClusterLauncher(
        spec,
        serve_telemetry=args.serve_telemetry,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    def _stop_cluster() -> int:
        # A repeat Ctrl-C must not abort the cleanup mid-fan-out and
        # orphan the tree: ignore further signals while shutting down.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        print("stopping cluster (leaves first)...", flush=True)
        launcher.shutdown()
        print("cluster stopped")
        return 0

    def _sigterm(*_: object) -> None:
        raise KeyboardInterrupt

    # SIGTERM behaves like Ctrl-C: orderly leaves-first shutdown.  The
    # handler goes in *before* launch() so a signal arriving while
    # workers are still spawning tears the partial tree down instead of
    # killing only the launcher and orphaning it.
    signal.signal(signal.SIGTERM, _sigterm)
    print(spec.describe(), flush=True)
    try:
        ports = launcher.launch()
    except ClusterLaunchError as error:
        print(f"cluster launch failed: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return _stop_cluster()
    for agg in spec.aggregators:
        role = "root" if agg.is_root else f"level {agg.level}"
        print(
            f"aggregator {agg.node_id} ({role}) listening on "
            f"{spec.host}:{ports[agg.node_id]}",
            flush=True,
        )
    if launcher.telemetry_port is not None:
        print(
            f"telemetry: http://{spec.host}:{launcher.telemetry_port}",
            flush=True,
        )
        print(
            "cluster view: "
            f"http://{spec.host}:{launcher.telemetry_port}"
            "/cluster/health (watch with "
            "'cludistream monitor --cluster --url ...')",
            flush=True,
        )

    try:
        result = launcher.wait(timeout=args.timeout)
    except KeyboardInterrupt:
        return _stop_cluster()
    if launcher.alive():
        print(
            f"timeout: nodes still running: {sorted(launcher.alive())}",
            file=sys.stderr,
        )
        launcher.shutdown()
        return 1
    summary = result.root_summary or {}
    if summary:
        weights = ", ".join(f"{w:.3f}" for w in summary.get("weights", ()))
        print(
            f"root mixture: K={summary.get('components')} "
            f"weights=[{weights}]"
        )
    failed = {
        node_id: code
        for node_id, code in result.exit_codes.items()
        if code != 0
    }
    if failed:
        print(f"nodes exited non-zero: {failed}", file=sys.stderr)
        return 1
    print("cluster completed cleanly")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_summary, summarize_trace

    output = args.format or ("json" if args.json else "text")
    try:
        if args.window is not None:
            from repro.obs import drift_from_trace, format_drift

            t0, t1 = args.window
            report = drift_from_trace(args.trace, t0, t1, scope=args.scope)
            text = format_drift(report)
        else:
            summary = summarize_trace(args.trace)
            report, text = summary.as_dict(), format_summary(summary)
    except FileNotFoundError:
        raise _Exit(f"no such trace file: {args.trace}", status=1) from None
    except ValueError as error:
        raise _Exit(f"{args.trace}: {error}", status=1) from None
    if output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import run_monitor

    if (args.url is None) == (args.trace is None):
        raise _Exit("monitor: exactly one of --url or --trace is required")
    if args.cluster and args.url is None:
        raise _Exit(
            "monitor: --cluster needs --url (the federated root's "
            "telemetry server)"
        )
    try:
        return run_monitor(
            url=args.url,
            trace=args.trace,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
            cluster=args.cluster,
        )
    except FileNotFoundError:
        raise _Exit(f"no such trace file: {args.trace}", status=1) from None
    except ValueError as error:  # a malformed trace (server errors print)
        raise _Exit(f"{args.trace}: {error}", status=1) from None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    handlers = {
        "chunk-size": _cmd_chunk_size,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "site": _cmd_site,
        "cluster": _cmd_cluster,
        "stats": _cmd_stats,
        "monitor": _cmd_monitor,
    }
    try:
        return handlers[args.command](args)
    except _Exit as error:
        print(error, file=sys.stderr)
        return error.status
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        return 0


if __name__ == "__main__":
    sys.exit(main())
