"""``repro monitor``: a refreshing terminal dashboard for a live run.

Two data paths feed the same renderer:

* **server mode** (``--url``) polls a running
  :class:`~repro.obs.server.TelemetryServer` -- ``/health`` for the
  paper-grounded gauges, ``/metrics`` for the latency histograms -- over
  ``urllib`` (no third-party HTTP client);
* **trace mode** (``--trace``) replays a JSONL trace file through the
  trace fold (:class:`~repro.obs.health.HealthMonitor`) -- its report
  and its replayed history, the same replay ``repro stats --window``
  reads -- so a finished (or crashed) run renders the exact same tiles.

:func:`render_dashboard` is a pure function from the collected state to
the dashboard string; the tests drive it directly, the CLI wraps it in
the poll-clear-print loop of :func:`run_monitor`.
"""

from __future__ import annotations

import json
import math
import sys
import time
import urllib.error
import urllib.request
from typing import IO, Sequence

from repro.obs.export import parse_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.metrics import Histogram
from repro.obs.trace import read_trace

__all__ = [
    "histogram_from_samples",
    "render_cluster_dashboard",
    "render_dashboard",
    "run_monitor",
    "sparkline",
]

#: Eight-level block characters for the history sparklines.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render a numeric series as a fixed-width unicode sparkline.

    The series is resampled to ``width`` points (taking the last value
    of each segment -- the monitor cares about recent state, not
    averages) and scaled to the eight block characters.  A flat series
    renders as a run of the lowest block; an empty one as spaces.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    points = [float(v) for v in values]
    if not points:
        return " " * width
    if len(points) > width:
        step = len(points) / width
        points = [
            points[min(len(points) - 1, int((i + 1) * step) - 1)]
            for i in range(width)
        ]
    low = min(points)
    high = max(points)
    span = high - low
    chars = []
    for value in points:
        if span <= 0.0:
            chars.append(_SPARK_CHARS[0])
        else:
            index = int((value - low) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[index])
    return "".join(chars).ljust(width)

#: ``profile.*`` histograms worth a latency tile, in display order.
_LATENCY_TILES = (
    ("profile_em_fit", "EM fit"),
    ("profile_serde_encode", "encode"),
    ("profile_serde_decode", "decode"),
    ("profile_checkpoint", "checkpoint"),
)


def histogram_from_samples(
    samples: Sequence[tuple[str, dict[str, str], float]],
    name: str,
) -> Histogram | None:
    """Rebuild a :class:`Histogram` from parsed ``/metrics`` samples.

    Prometheus exposition carries cumulative bucket counts plus sum and
    count but not min/max, so the rebuilt histogram approximates the
    tails: the minimum is taken as 0 and the maximum as the upper bound
    of the last occupied finite bucket.  Quantile estimates from it are
    therefore bucket-resolution approximations -- exactly what a
    dashboard tile needs.

    A scrape may expose the same histogram name under several label
    sets (one per site or node -- exactly what a federated ``/metrics``
    produces); those series are merged by summing the cumulative count
    per ``le`` bound and summing ``_sum`` / ``_count`` across series.
    """
    per_bound: dict[float, float] = {}
    total = 0.0
    count = 0
    seen = False
    for sample_name, labels, value in samples:
        if sample_name == f"{name}_bucket":
            seen = True
            le = labels.get("le", "+Inf")
            bound = math.inf if le == "+Inf" else float(le)
            per_bound[bound] = per_bound.get(bound, 0.0) + value
        elif sample_name == f"{name}_sum":
            total += value
        elif sample_name == f"{name}_count":
            count += int(value)
    if not seen or not count:
        return None
    bounds = sorted(per_bound)
    cumulative = [per_bound[b] for b in bounds]
    finite = [b for b in bounds if math.isfinite(b)]
    if not finite:
        return None
    histogram = Histogram(buckets=tuple(finite))
    previous = 0.0
    counts = []
    for value in cumulative:
        counts.append(max(0, int(value - previous)))
        previous = value
    while len(counts) < len(finite) + 1:
        counts.append(0)
    histogram.bucket_counts = counts[: len(finite) + 1]
    histogram.count = count
    histogram.total = total
    histogram.minimum = 0.0
    maximum = finite[-1]
    for bound, bucket_count in zip(finite, histogram.bucket_counts):
        if bucket_count:
            maximum = bound
    histogram.maximum = maximum
    return histogram


def _format_seconds(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return "    n/a"
    if value < 1e-3:
        return f"{value * 1e6:6.1f}µs"
    if value < 1.0:
        return f"{value * 1e3:6.2f}ms"
    return f"{value:6.3f}s "


def _history_pane(history: dict) -> list[str]:
    """Render the time-travel pane from collected history state.

    ``history`` carries the ``/history`` summary under ``"summary"``
    and named ``[tick, value]`` series under ``"series"``; both are
    optional (a partially reachable server still gets a pane).
    """
    lines: list[str] = ["", "  history (reign record):"]
    summary = history.get("summary") or {}
    if summary:
        lines.append(
            f"    retained={summary.get('retained', 0)} reigns  "
            f"start={summary.get('start', 0)}  "
            f"horizon={summary.get('horizon', 0)}  "
            f"evicted={summary.get('evictions', 0)}"
        )
    series = history.get("series") or {}
    for name, label in (
        ("components", "K"),
        ("avg_pr_margin", "AvgPr margin"),
    ):
        points = series.get(name) or []
        values = [value for _, value in points]
        if not values:
            continue
        last = values[-1]
        last_text = f"{last:+.4f}" if name == "avg_pr_margin" else f"{last:g}"
        lines.append(
            f"    {label:<13} {sparkline(values)}  now={last_text}"
        )
    if len(lines) == 2:
        lines.append("    (no reigns recorded yet)")
    return lines


def render_dashboard(
    health: dict,
    samples: Sequence[tuple[str, dict[str, str], float]] | None = None,
    source: str = "",
    history: dict | None = None,
) -> str:
    """Render the collected state as a fixed-width terminal dashboard."""
    lines: list[str] = []
    status = health.get("status", "unknown")
    marker = "●" if status == "ok" else "◌"
    lines.append(
        f"{marker} cludistream monitor  status={status}  "
        f"records={health.get('records', 0)}  "
        f"events={health.get('events', 0)}"
        + (f"  [{source}]" if source else "")
    )
    coordinator = health.get("coordinator", {})
    lines.append(
        "  coordinator: "
        f"components={coordinator.get('components')}  "
        f"merges={coordinator.get('merges', 0)}  "
        f"splits={coordinator.get('splits', 0)}  "
        f"churn={coordinator.get('churn_rate', 0.0):.5f}/rec"
    )
    accounting = health.get("accounting")
    if accounting:
        bpr = accounting.get("bytes_per_record")
        bpr_text = f"{bpr:.1f}" if bpr is not None else "n/a"
        lines.append(
            "  channel:     "
            f"attempted={accounting.get('attempted', 0)}  "
            f"payload={accounting.get('payload_bytes', 0)}B  "
            f"wire={accounting.get('wire_bytes', 0)}B  "
            f"bytes/record={bpr_text}"
        )
    sites = health.get("sites", [])
    if sites:
        lines.append("")
        lines.append(
            f"  {'site':>4}  {'model':>5}  {'J_fit':>9}  {'eps':>9}  "
            f"{'margin':>9}  {'pass':>6}  {'records':>8}"
        )
        for site in sites:
            j_fit = site.get("j_fit")
            threshold = site.get("threshold")
            margin = site.get("margin")
            rate = site.get("pass_rate")
            drift = " DRIFT" if margin is not None and margin < 0 else ""
            j_text = f"{j_fit:9.4f}" if j_fit is not None else f"{'n/a':>9}"
            e_text = (
                f"{threshold:9.4f}" if threshold is not None else f"{'n/a':>9}"
            )
            m_text = f"{margin:+9.4f}" if margin is not None else f"{'n/a':>9}"
            r_text = f"{rate * 100.0:5.1f}%" if rate is not None else f"{'n/a':>6}"
            lines.append(
                f"  {site.get('site'):>4}  {str(site.get('model')):>5}  "
                f"{j_text}  {e_text}  {m_text}  {r_text}  "
                f"{site.get('records', 0):>8}{drift}"
            )
    if samples:
        tiles = []
        for prom_name, label in _LATENCY_TILES:
            histogram = histogram_from_samples(samples, prom_name)
            if histogram is None:
                continue
            tiles.append(
                f"  {label:<11} "
                f"p50={_format_seconds(histogram.quantile(0.5))} "
                f"p90={_format_seconds(histogram.quantile(0.9))} "
                f"p99={_format_seconds(histogram.quantile(0.99))} "
                f"n={histogram.count}"
            )
        if tiles:
            lines.append("")
            lines.append("  latency (bucket-interpolated):")
            lines.extend(tiles)
    if history is not None:
        lines.extend(_history_pane(history))
    return "\n".join(lines) + "\n"


def _format_bytes(value: float | None) -> str:
    if value is None:
        return "n/a"
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0 or unit == "GB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GB"


def _node_tile(entry: dict) -> str:
    marker = "●" if entry.get("live") else "◌"
    role = entry.get("role") or "?"
    label = f"{marker} node {entry.get('node'):>3} {role:<10}"
    if entry.get("age_seconds") is None:
        return f"{label} (never reported)"
    parts: list[str] = []
    if role == "site":
        margin = entry.get("margin")
        rate = entry.get("pass_rate")
        parts.append(
            f"margin={margin:+.4f}" if margin is not None else "margin=n/a"
        )
        parts.append(
            f"pass={rate * 100.0:.0f}%" if rate is not None else "pass=n/a"
        )
        parts.append(f"rec={entry.get('records', 0)}")
    else:
        components = entry.get("components")
        parts.append(f"K={components}" if components is not None else "K=n/a")
        parts.append(
            f"merges={entry.get('merges', 0)} splits={entry.get('splits', 0)}"
        )
        uplink = entry.get("uplink") or {}
        if uplink:
            parts.append(f"up={_format_bytes(uplink.get('wire_bytes', 0))}")
            codec = uplink.get("codec")
            if codec:
                hits = uplink.get("delta_hit_rate", 0.0)
                parts.append(f"codec={codec} Δ={hits * 100.0:.0f}%")
    resources = entry.get("resources") or {}
    rss = resources.get("rss_bytes")
    cpu = resources.get("cpu_seconds")
    fds = resources.get("open_fds")
    if rss is not None:
        parts.append(f"rss={_format_bytes(rss)}")
    if cpu is not None:
        parts.append(f"cpu={cpu:.1f}s")
    if fds is not None:
        parts.append(f"fds={fds}")
    status = entry.get("status", "ok")
    if status not in ("ok", None):
        parts.append(status.upper())
    return f"{label} {'  '.join(parts)}"


def render_cluster_dashboard(
    cluster: dict,
    nodes: dict | None = None,
    source: str = "",
    history: dict | None = None,
) -> str:
    """Render a federated ``/cluster/health`` payload as a dashboard.

    ``cluster`` is the root's rollup; ``nodes`` the optional
    ``/cluster/nodes`` view (used for parent links when the rollup
    lacks them).  Pure function, same contract as
    :func:`render_dashboard`: the tests drive it directly.
    """
    lines: list[str] = []
    status = cluster.get("status", "unknown")
    marker = "●" if status == "ok" else "◌"
    counts = cluster.get("nodes", {})
    lines.append(
        f"{marker} cludistream cluster monitor  status={status}  "
        f"nodes={counts.get('live', 0)}/{counts.get('expected', 0)} live  "
        f"records={cluster.get('records', 0)}"
        + (f"  [{source}]" if source else "")
    )

    entries = {e.get("node"): dict(e) for e in cluster.get("per_node", [])}
    if nodes:
        for raw in nodes.get("nodes", []):
            entry = entries.setdefault(raw.get("node"), dict(raw))
            for key in ("role", "level", "parent", "live", "age_seconds"):
                entry.setdefault(key, raw.get(key))

    # Topology: indent children under parents when parent links exist,
    # otherwise group by level.
    children: dict[object, list[int]] = {}
    for node_id, entry in entries.items():
        children.setdefault(entry.get("parent"), []).append(node_id)
    for siblings in children.values():
        siblings.sort()

    lines.append("")
    if None in children:
        printed: set = set()

        def walk(node_id: int, depth: int) -> None:
            printed.add(node_id)
            lines.append("  " + "   " * depth + _node_tile(entries[node_id]))
            for child in children.get(node_id, ()):
                walk(child, depth + 1)

        for root_id in children[None]:
            walk(root_id, 0)
        for node_id in sorted(set(entries) - printed):
            lines.append("  " + _node_tile(entries[node_id]))
    else:
        for node_id in sorted(
            entries, key=lambda n: (entries[n].get("level") or 0, n)
        ):
            level = entries[node_id].get("level") or 0
            lines.append("  " + "   " * level + _node_tile(entries[node_id]))

    levels = cluster.get("levels", [])
    if levels:
        lines.append("")
        lines.append(
            f"  {'level':>5}  {'edges':>5}  {'msgs':>7}  {'wire':>10}  "
            f"{'B/rec':>8}  {'rexmit':>6}  {'codec':>10}  {'Δ-hit':>6}"
        )
        for stats in levels:
            codecs = stats.get("codecs") or []
            codec_cell = "+".join(codecs) if codecs else "-"
            hit_cell = (
                f"{stats.get('delta_hit_rate', 0.0) * 100.0:>5.0f}%"
                if codecs
                else "     -"
            )
            lines.append(
                f"  {stats.get('level'):>5}  {stats.get('edges', 0):>5}  "
                f"{stats.get('messages', 0):>7}  "
                f"{stats.get('wire_bytes', 0):>9}B  "
                f"{stats.get('bytes_per_record', 0.0):>8.1f}  "
                f"{stats.get('retransmissions', 0):>6}  "
                f"{codec_cell:>10}  {hit_cell}"
            )
    if history is not None and history.get("per_node"):
        lines.append("")
        lines.append(
            "  history: "
            f"retained={history.get('retained', 0)}  "
            f"evicted={history.get('evictions', 0)}  "
            f"horizon={history.get('horizon', 0)}"
        )
        for entry in history["per_node"]:
            node_history = entry.get("history") or {}
            values = [
                value
                for _, value in (node_history.get("components") or [])
            ]
            spark = sparkline(values) if values else " " * 32
            lines.append(
                f"    node {entry.get('node'):>3} "
                f"{entry.get('role') or '?':<10} "
                f"K {spark}  retained={node_history.get('retained', 0)}"
            )
    return "\n".join(lines) + "\n"


def _fetch(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def _collect_from_server(
    url: str,
) -> tuple[dict, list[tuple[str, dict[str, str], float]], dict | None]:
    base = url.rstrip("/")
    health = json.loads(_fetch(f"{base}/health"))
    try:
        samples = parse_prometheus(_fetch(f"{base}/metrics").decode("utf-8"))
    except (urllib.error.URLError, ValueError):
        samples = []
    return health, samples, _collect_history(base)


def _fetch_json(url: str) -> dict | None:
    """An optional endpoint's JSON, or ``None`` when it cannot be had.

    A 404 (history disabled or an older server) simply drops the pane
    -- the monitor must keep working against any telemetry server.
    """
    try:
        return json.loads(_fetch(url))
    except (OSError, ValueError):
        return None


def _collect_history(base: str) -> dict | None:
    """Poll the ``/history`` endpoints; ``None`` on a pre-history server."""
    summary = _fetch_json(f"{base}/history")
    if summary is None:
        return None
    series: dict = {}
    for name in ("components", "avg_pr_margin"):
        payload = _fetch_json(f"{base}/history/series?name={name}")
        if payload is not None:
            series[name] = payload.get("points") or []
    return {"summary": summary, "series": series}


def _collect_from_trace(path: str) -> tuple[dict, list, dict | None]:
    fold = HealthMonitor.replay(read_trace(path))
    history = fold.history()
    pane = None
    if history is not None:
        pane = {
            "summary": history.summary(),
            "series": {
                name: history.gauge_series(name)
                for name in ("components", "avg_pr_margin")
            },
        }
    return fold.report(), [], pane


def _collect_cluster(url: str) -> tuple[dict, dict | None, dict | None]:
    base = url.rstrip("/")
    cluster = json.loads(_fetch(f"{base}/cluster/health"))
    nodes = _fetch_json(f"{base}/cluster/nodes")
    return cluster, nodes, _fetch_json(f"{base}/cluster/history")


def run_monitor(
    url: str | None = None,
    trace: str | None = None,
    interval: float = 1.0,
    iterations: int | None = None,
    clear: bool = True,
    out: IO[str] | None = None,
    cluster: bool = False,
) -> int:
    """The poll-render-print loop behind ``repro monitor``.

    Parameters
    ----------
    url / trace:
        Exactly one data source: a telemetry server base URL or a JSONL
        trace file path.
    interval:
        Seconds between refreshes.
    iterations:
        Number of refreshes (``None`` = run until interrupted; trace
        mode defaults to a single render).
    clear:
        Emit an ANSI clear-screen before each refresh.
    out:
        Output stream (stdout by default; tests pass a ``StringIO``).
    cluster:
        Poll the federated ``/cluster/health`` + ``/cluster/nodes``
        endpoints instead of the single-process ``/health`` and render
        the tree topology dashboard (server mode only).

    Returns a process exit code.
    """
    if (url is None) == (trace is None):
        raise ValueError("exactly one of url or trace is required")
    if cluster and url is None:
        raise ValueError("cluster mode needs a server url")
    stream = out if out is not None else sys.stdout
    if trace is not None and iterations is None:
        iterations = 1
    count = 0
    try:
        while iterations is None or count < iterations:
            if url is not None:
                try:
                    if cluster:
                        cluster_health, nodes, history = _collect_cluster(url)
                    else:
                        health, samples, history = _collect_from_server(url)
                    source = url
                except (urllib.error.URLError, OSError, ValueError) as error:
                    stream.write(f"monitor: cannot reach {url}: {error}\n")
                    return 1
            else:
                assert trace is not None
                health, samples, history = _collect_from_trace(trace)
                source = trace
            if clear:
                stream.write("\x1b[2J\x1b[H")
            if cluster:
                stream.write(
                    render_cluster_dashboard(
                        cluster_health,
                        nodes,
                        source=source,
                        history=history,
                    )
                )
            else:
                stream.write(
                    render_dashboard(
                        health, samples, source=source, history=history
                    )
                )
            stream.flush()
            count += 1
            if iterations is None or count < iterations:
                time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
