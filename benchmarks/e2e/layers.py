"""The traced repeat and the per-layer metrics computed from it.

One extra repeat per workload runs with the span recorder installed
(:mod:`benchmarks.e2e.spans`).  Its timings never feed an end-to-end
metric; they say which layer spent the time.  A layer's ``busy_share``
is its self time over the traced repeat's slice time *after set-up*
(the phase ``records_per_s`` is measured on), so the shares of all
layers plus ``harness.unattributed_share`` sum to 1; every other
per-layer count and cost describes that phase too.
Metrics that do not apply to a workload (``cluster.tree.*`` without a
tree, ``io.checkpoint.*`` without a runtime) read 0.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e import spans
from benchmarks.e2e.harness import Repeat, WorkloadRun, harness_stats, replay
from benchmarks.e2e.workloads import ChannelSystem

__all__ = ["Traced", "per_layer", "trace_payload", "traced_repeat"]

LAYERS = (
    "runtime", "core.remote", "core.testing", "core.em", "core.coordinator",
    "core.merging", "core.serde", "transport", "cluster.tree", "simulation",
)


@dataclass
class Traced:
    repeat: Repeat
    recorder: spans.SpanRecorder
    origin: float
    checkpoint: dict


def _checkpoint_roundtrip(system, scratch: Path) -> dict:
    """One ``Runtime.checkpoint`` + ``Runtime.resume`` of the final state."""
    from repro.runtime import DirectChannel, Runtime

    if not isinstance(system, ChannelSystem):
        return {"save_ms": 0.0, "load_ms": 0.0, "bytes": 0}
    runtime = Runtime(system.sites, system.coordinators[0], system.channel)
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        start = time.perf_counter()
        runtime.checkpoint(directory)
        saved = time.perf_counter()
        Runtime.resume(directory, DirectChannel())
        loaded = time.perf_counter()
        size = sum(f.stat().st_size for f in Path(directory).iterdir())
    return {
        "save_ms": (saved - start) * 1e3,
        "load_ms": (loaded - saved) * 1e3,
        "bytes": size,
    }


def traced_repeat(run: WorkloadRun, scratch: Path) -> Traced:
    """Replay ``run`` once with every entry point wrapped."""
    recorder = spans.SpanRecorder()
    recorder.calibrate()
    scratch.mkdir(parents=True, exist_ok=True)
    with spans.installed(recorder):
        origin = time.perf_counter()
        repeat, system = replay(
            run.workload,
            run.plan,
            run.streams,
            recorder=recorder,
            observed=run.observed_kit(count_events=True),
            keep_system=True,
        )
        checkpoint = {"save_ms": 0.0, "load_ms": 0.0, "bytes": 0}
        if system is not None:
            if not repeat.failures:
                checkpoint = _checkpoint_roundtrip(system, scratch)
            system.close()
    recorder.calibrate()  # a second chance at an undisturbed reading
    run.replays += 1
    run.failures += repeat.failures
    if run.reference is not None and repeat.digest != run.reference.digest:
        run.failures.append("the traced repeat ended in a different state")
    return Traced(repeat, recorder, origin, checkpoint)


#: The pair-scoring criteria: the coordinator's own calls (its cap pass
#: scores every cluster pair with ``m_merge``, Algorithm 2 every moved
#: leaf with ``m_split``) and the matrix form nothing under ``src/``
#: calls yet.
_PAIR_SCORING = (
    "core.merging.m_merge", "core.merging.m_split", "core.merging.pairwise_m_merge",
)

#: Counters that describe the final state rather than accumulate.
_STATE = ("components_final", "delta_hit_rate")


def _steady_counters(repeat: Repeat) -> dict:
    """Final counters minus what set-up had already counted."""
    out = {}
    for key, value in repeat.counters.items():
        before = (repeat.setup_counters or {}).get(key, 0)
        if key in _STATE:
            out[key] = value
        elif isinstance(value, list):
            before = before or [0] * len(value)
            out[key] = [v - b for v, b in zip(value, before)]
        else:
            out[key] = value - before
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    run: WorkloadRun,
    traced: Traced,
    *,
    gate,
    import_s: float,
    src_lines: int,
    observer_off: WorkloadRun | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one workload, by its BENCHMARK.json name."""
    rec = traced.recorder
    counters = _steady_counters(traced.repeat)
    workload = run.workload
    records = workload.steady_records
    chunks = workload.sites * (workload.chunks - 1)
    # The phase's slice time, less what the span wrappers themselves cost.
    total = sum(
        seconds
        for piece, seconds in zip(run.plan, traced.repeat.timings)
        if not piece.setup
    ) - rec.wrapper_seconds()
    layer_self = rec.layer_self()
    share = {layer: _ratio(layer_self.get(layer, 0.0), total) for layer in LAYERS}

    def calls(name):
        return rec.calls(name)

    def ms_per_call(name):
        return _ratio(rec.total(name) * 1e3, rec.calls(name))

    out: dict[str, float] = {}

    out["runtime.submits"] = calls("runtime.submit")
    out["runtime.self_us_per_record"] = _ratio(
        rec.self_time("runtime.submit") * 1e6, calls("runtime.submit")
    )
    out["runtime.quiesce_ms_per_chunk"] = _ratio(
        rec.total("runtime.quiesce") * 1e3, calls("runtime.quiesce")
    )
    out["runtime.busy_share"] = share["runtime"]

    process = "core.remote.process_record"
    out["core.remote.records"] = calls(process)
    out["core.remote.chunks"] = counters.get("chunks_processed", 0)
    out["core.remote.ingest_us_per_record"] = _ratio(
        rec.self_time(process, boundary=False) * 1e6, records - chunks
    )
    out["core.remote.boundary_self_ms_per_chunk"] = _ratio(
        rec.self_time(process, boundary=True) * 1e3, chunks
    )
    out["core.remote.pass_rate"] = 1.0 - run.update_share(traced.repeat)
    out["core.remote.reactivated"] = counters.get("n_reactivations", 0)
    out["core.remote.warm_refits"] = counters.get("n_warm_refits", 0)
    out["core.remote.cold_refits"] = counters.get("n_clusterings", 0) - counters.get(
        "n_warm_refits", 0
    )
    out["core.remote.absorbed"] = counters.get("n_absorbed", 0)
    out["core.remote.busy_share"] = share["core.remote"]

    out["core.testing.fit_test_calls"] = calls("core.testing.fit_test")
    out["core.testing.fit_test_ms_per_call"] = ms_per_call("core.testing.fit_test")
    out["core.testing.passes_per_test"] = _ratio(
        counters.get("n_tests_passed", 0), counters.get("n_tests", 0)
    )
    out["core.testing.busy_share"] = share["core.testing"]

    out["core.em.fit_em_calls"] = calls("core.em.fit_em")
    out["core.em.fit_em_ms_per_call"] = ms_per_call("core.em.fit_em")
    out["core.em.incremental_calls"] = calls("core.em.incremental_em")
    out["core.em.incremental_ms_per_call"] = ms_per_call("core.em.incremental_em")
    out["core.em.absorb_calls"] = calls("core.em.absorb_chunk")
    out["core.em.absorb_ms_per_call"] = ms_per_call("core.em.absorb_chunk")
    out["core.em.warm_accept_rate"] = _ratio(
        counters.get("n_warm_refits", 0), calls("core.em.incremental_em")
    )
    out["core.em.busy_share"] = share["core.em"]

    handle = "core.coordinator.handle_message"
    out["core.coordinator.messages"] = calls(handle)
    out["core.coordinator.handle_self_ms_per_message"] = _ratio(
        rec.self_time(handle) * 1e3, calls(handle)
    )
    out["core.coordinator.merges"] = counters.get("merges", 0)
    out["core.coordinator.splits"] = counters.get("splits", 0)
    out["core.coordinator.components_final"] = counters.get("components_final", 0)
    out["core.coordinator.busy_share"] = share["core.coordinator"]

    fit = "core.merging.fit_merged_component"
    out["core.merging.fit_calls"] = calls(fit)
    out["core.merging.fit_ms_per_call"] = ms_per_call(fit)
    out["core.merging.fits_per_message"] = _ratio(calls(fit), calls(handle))
    out["core.merging.pairwise_calls"] = sum(calls(name) for name in _PAIR_SCORING)
    out["core.merging.pairwise_ms_per_call"] = _ratio(
        sum(rec.self_time(name) for name in _PAIR_SCORING) * 1e3,
        out["core.merging.pairwise_calls"],
    )
    out["core.merging.busy_share"] = share["core.merging"]

    level_messages = counters.get("level_messages", [])
    level_bytes = counters.get("level_wire_bytes", [])
    if level_messages:
        delta_hits = _ratio(
            sum(
                rate * messages
                for rate, messages in zip(counters["delta_hit_rate"], level_messages)
            ),
            sum(level_messages),
        )
    else:
        delta_hits = _ratio(
            counters.get("codec_delta_updates", 0),
            counters.get("codec_model_updates", 0),
        )
    out["core.serde.encode_calls"] = calls("core.serde.encode")
    out["core.serde.encode_us_per_call"] = ms_per_call("core.serde.encode") * 1e3
    out["core.serde.decode_us_per_call"] = ms_per_call("core.serde.decode") * 1e3
    out["core.serde.payload_bytes_per_message"] = _ratio(
        counters.get("payload_bytes", 0), counters.get("attempted", 0)
    )
    out["core.serde.delta_hit_rate"] = delta_hits
    out["core.serde.busy_share"] = share["core.serde"]

    drains = calls("transport.drain") + calls("cluster.tree.drain")
    out["transport.drain_calls"] = drains
    out["transport.drain_us_per_record"] = _ratio(
        (rec.self_time("transport.drain") + rec.self_time("cluster.tree.drain"))
        * 1e6,
        records,
    )
    sent = calls("transport.send_payload")
    out["transport.payloads_sent"] = sent
    out["transport.retransmissions"] = counters.get("retransmissions", 0)
    out["transport.retransmit_ratio"] = _ratio(out["transport.retransmissions"], sent)
    out["transport.duplicates_suppressed"] = counters.get("duplicates_suppressed", 0)
    out["transport.ack_bytes"] = counters.get("ack_bytes", 0)
    out["transport.busy_share"] = share["transport"]

    # level_stats() lists levels root-side first: [aggregator -> root,
    # leaf -> aggregator] for the two-level tree.
    l1_messages, l2_messages = (level_messages + [0, 0])[:2]
    l1_bytes, l2_bytes = (level_bytes + [0, 0])[:2]
    out["cluster.tree.feed_self_us_per_record"] = _ratio(
        rec.self_time("cluster.tree.feed") * 1e6, calls("cluster.tree.feed")
    )
    out["cluster.tree.uploads_l1"] = l1_messages
    out["cluster.tree.uploads_l2"] = l2_messages
    out["cluster.tree.wire_bytes_per_record_l1"] = _ratio(l1_bytes, records)
    out["cluster.tree.wire_bytes_per_record_l2"] = _ratio(l2_bytes, records)
    out["cluster.tree.upload_suppression_ratio"] = (
        1.0 - _ratio(l1_messages, l2_messages) if l2_messages else 0.0
    )
    out["cluster.tree.busy_share"] = share["cluster.tree"]

    out["simulation.events"] = calls("simulation.step")
    out["simulation.advance_us_per_record"] = _ratio(
        rec.self_time("simulation.advance") * 1e6, calls("simulation.advance")
    )
    out["simulation.busy_share"] = share["simulation"]

    if observer_off is not None and observer_off.repeats:
        enabled = sum(run.values())
        disabled = sum(observer_off.values())
        out["obs.enabled_overhead_ratio"] = enabled / disabled
    else:
        out["obs.enabled_overhead_ratio"] = 0.0
    out["obs.events_per_record"] = _ratio(counters.get("obs_events", 0), records)
    out["obs.spans_per_chunk"] = _ratio(counters.get("obs_spans", 0), chunks)

    out["io.checkpoint.save_ms"] = traced.checkpoint["save_ms"]
    out["io.checkpoint.load_ms"] = traced.checkpoint["load_ms"]
    out["io.checkpoint.bytes"] = traced.checkpoint["bytes"]

    out["streams.materialize_s"] = run.materialize_s

    stats = harness_stats(run)
    raw_total = statistics.median(sum(t) for t in run.timings())
    out["harness.import_s"] = import_s
    out["harness.repeats"] = stats["repeats"]
    out["harness.gate_wait_s"] = gate.waited_s if gate is not None else 0.0
    out["harness.yardstick_floor_ms"] = (
        gate.stats()["floor_ms"] if gate is not None else 0.0
    )
    out["harness.raw_over_composite"] = stats["raw_over_composite"]
    out["harness.disturbed_share"] = stats["disturbed_share"]
    out["harness.cpu_over_wall"] = stats["cpu_over_wall"]
    out["harness.update_share"] = stats["update_share"]
    out["harness.boundaries"] = stats["boundaries"]
    out["harness.trace_overhead_ratio"] = sum(traced.repeat.timings) / raw_total
    out["harness.unattributed_share"] = 1.0 - sum(share.values())
    out["harness.src_lines"] = src_lines
    return {name: float(value) for name, value in out.items()}


def trace_payload(run: WorkloadRun, traced: Traced) -> dict:
    """What ``trace-<workload>.json`` holds (see README, "Reading a trace")."""
    rec = traced.recorder
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "slices": [
            {
                "index": index,
                "kind": piece.kind,
                "setup": piece.setup,
                "rounds": [piece.r0, piece.r1],
                "site": piece.site,
                "seconds": seconds,
            }
            for index, (piece, seconds) in enumerate(
                zip(run.plan, traced.repeat.timings)
            )
        ],
        "setup_aggregate": {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own, _made) in sorted(rec.setup.items())
            if calls
        },
        "aggregate": {
            name: {
                "calls": calls,
                "total_s": total,
                "self_s": own,
                "boundary_calls": rec.boundary[name][0],
                "boundary_self_s": rec.boundary[name][2],
            }
            for name, (calls, total, own, _made) in sorted(rec.aggregate.items())
        },
        "spans": rec.span_dicts(traced.origin),
    }
