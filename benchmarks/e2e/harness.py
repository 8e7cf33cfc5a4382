"""Replay, repeats, correctness checks and the end-to-end metrics.

One :class:`WorkloadRun` owns a workload's seeded streams, its slice
plan and the timings of every repeat.  :func:`measure` interleaves the
repeats of several runs round-robin behind the quiet gate; the
composite of a run (per-slice minimum over repeats) gives every timing
metric, and the first replay gives the counts, the quality gap and the
reference digest every later replay must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e import estimator
from benchmarks.e2e.workloads import (
    BOUNDARY,
    BUILD,
    Observed,
    System,
    Workload,
    materialize,
    plan_slices,
)

__all__ = [
    "Repeat", "WorkloadRun", "end_to_end", "measure", "peak_rss_kb", "replay",
]

#: Nothing sleeps and BLAS is pinned to one thread, so a repeat's
#: ``process_time / perf_counter`` above this means a thread pool woke up.
CPU_OVER_WALL_MAX = 1.05
#: Samples every set-up slice gets.  Set-up is a small share of a
#: replay, so where a measuring window affords fewer whole replays than
#: this, set-up-only passes make up the difference.  Fixed, like the
#: repeat count: the composite falls as samples are added.
SETUP_SAMPLES = 6


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss``
    over fork + exec, so a child reports at least its parent's size at
    the fork, while the high-water mark of the address space starts
    from zero at exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Repeat:
    """Everything one replay of a workload produced."""

    timings: list[float]
    readings: list[float] | None  # yardstick reading per slice; None = gate off
    uploads: list[bool]
    cpu_s: float
    wall_s: float
    digest: str
    counters: dict
    failures: list[str]
    peak_rss_kb: int  # the process's high-water mark when the last slice ended
    evaluation: dict | None = None
    setup_counters: dict | None = None  # traced replays: counters after set-up

    @property
    def cpu_over_wall(self) -> float:
        return self.cpu_s / self.wall_s


# ----------------------------------------------------------------------
# Final-state inspection
# ----------------------------------------------------------------------
def _counters(system: System, observed: Observed | None) -> dict:
    """Cheap, exact counts read off the finished system."""
    out = {
        key: sum(getattr(site.stats, key) for site in system.sites)
        for key in (
            "records_seen", "chunks_processed", "n_tests", "n_tests_passed",
            "n_clusterings", "n_reactivations", "n_warm_refits",
            "n_cold_refits", "n_absorbed", "messages_sent", "bytes_sent",
        )
    }
    for key in ("messages_received", "merges", "splits"):
        out[key] = sum(getattr(c.stats, key) for c in system.coordinators)
    out["components_final"] = system.global_mixture().n_components
    out.update(system.wire())
    codecs = system.codec_stats()
    levels = system.levels()
    if levels:
        # The tree reports codec accounting per level, not per edge.
        out["level_messages"] = [level.messages for level in levels]
        out["level_wire_bytes"] = [level.wire_bytes for level in levels]
        out["delta_hit_rate"] = [level.delta_hit_rate for level in levels]
    out["codec_model_updates"] = sum(c.model_updates for c in codecs)
    out["codec_delta_updates"] = sum(c.delta_updates for c in codecs)
    if observed is not None:
        out["obs_spans"] = observed.spans.last_id
        if observed.counter is not None:
            out["obs_events"] = observed.counter.events
    return out


def _digest(system: System, counters: dict) -> str:
    """Hash of the final global mixture and every exact counter."""
    sha = hashlib.sha256()
    mixture = system.global_mixture()
    sha.update(np.ascontiguousarray(mixture.weights).tobytes())
    for component in mixture.components:
        sha.update(np.ascontiguousarray(component.mean).tobytes())
        sha.update(np.ascontiguousarray(component.covariance).tobytes())
    stable = {k: v for k, v in counters.items() if not k.startswith("obs_")}
    sha.update(json.dumps(stable, sort_keys=True).encode())
    return sha.hexdigest()


def _invariants(workload: Workload, system: System, counters: dict) -> list[str]:
    """Checks every repeat must pass; returns what failed."""
    failures = []
    if counters["delivered"] != counters["attempted"]:
        failures.append(
            f"{counters['attempted'] - counters['delivered']} uploads not "
            "delivered after quiesce"
        )
    if counters["records_seen"] != workload.records:
        failures.append(
            f"sites saw {counters['records_seen']} of {workload.records} records"
        )
    mixtures = [system.global_mixture()]
    mixtures += [
        site.current_model.mixture
        for site in system.sites
        if site.current_model is not None
    ]
    for mixture in mixtures:
        if abs(float(mixture.weights.sum()) - 1.0) > 1e-9:
            failures.append("mixture weights do not sum to 1")
        for component in mixture.components:
            cov = component.covariance
            if not (np.all(np.isfinite(component.mean)) and np.all(np.isfinite(cov))):
                failures.append("non-finite mixture parameters")
                continue
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                failures.append("covariance is not positive definite")
    return failures


def _evaluate(system: System, streams) -> dict:
    """Quality and size of the final state (reference repeat only)."""
    holdout = streams.holdout
    truth_ll = float(streams.truth.average_log_likelihood(holdout))
    model_ll = float(system.global_mixture().average_log_likelihood(holdout))
    return {
        "holdout_ll_truth": truth_ll,
        "holdout_ll_model": model_ll,
        "holdout_ll_gap_nats": truth_ll - model_ll,
        "model_state_kb": system.state_bytes() / 1000.0,
    }


# ----------------------------------------------------------------------
# The replay loop
# ----------------------------------------------------------------------
def replay(
    workload: Workload,
    plan,
    streams,
    *,
    gate=None,
    recorder=None,
    observed: Observed | None = None,
    evaluate: bool = False,
    keep_system: bool = False,
    setup_only: bool = False,
):
    """Replay the seeded records once on a freshly built system.

    Records go in round-robin, one per site per round; every slice of
    ``plan`` is timed on its own.  ``gate`` (``None`` = no gating, raw
    times) is consulted before the first slice and then between slices,
    each time its interval of timed work has passed.  ``recorder``
    (traced repeats only) is told which chunk each boundary step belongs
    to.  With ``keep_system`` the open system is returned beside the
    :class:`Repeat` instead of being closed.  ``setup_only`` stops at
    the first global model: only the set-up slices are timed, and the
    unfinished system is not inspected.
    """
    data = streams.data
    clock = time.perf_counter
    timings: list[float] = []
    readings: list[float] = []
    uploads: list[bool] = []
    failures: list[str] = []
    system = None
    cpu0, wall0 = time.process_time(), clock()
    setup_counters = None
    interval = gate.interval_s if gate is not None else None
    since_gate = interval  # a reading is due before the first slice
    try:
        for index, piece in enumerate(plan):
            if setup_only and not piece.setup:
                break
            if interval is not None and since_gate >= interval:
                gate.wait()
                since_gate = 0.0
            if recorder is not None and setup_counters is None and not piece.setup:
                recorder.end_setup()
                setup_counters = _counters(system, observed)
            if piece.kind == BUILD:
                start = clock()
                system = workload.build(workload, observed)
                elapsed = clock() - start
                feed, settle = system.feed, system.settle
                keys, sites = system.keys, system.sites
            elif piece.kind == BOUNDARY:
                site = sites[piece.site]
                key = keys[piece.site]
                record = data[piece.site][piece.r0]
                before = site.stats.messages_sent
                if recorder is not None:
                    recorder.keep_spans(index)
                start = clock()
                feed(key, record)
                settle()
                elapsed = clock() - start
                if recorder is not None:
                    recorder.keep_spans(None)
                uploads.append(site.stats.messages_sent > before)
            else:
                rows = [site_data[piece.r0 : piece.r1] for site_data in data]
                pairs = list(zip(keys, rows))
                start = clock()
                for i in range(piece.r1 - piece.r0):
                    for key, site_rows in pairs:
                        feed(key, site_rows[i])
                elapsed = clock() - start
            timings.append(elapsed)
            if interval is not None:
                readings.append(gate.last)
                since_gate += elapsed
    except Exception as error:  # a failed operation fails the workload
        failures.append(f"exception during replay: {error!r}")
    wall = clock() - wall0
    cpu = time.process_time() - cpu0
    rss_kb = peak_rss_kb()  # before the hold-out is scored
    counters: dict = {}
    digest = ""
    evaluation = None
    if system is not None and not failures and not setup_only:
        counters = _counters(system, observed)
        digest = _digest(system, counters)
        failures += _invariants(workload, system, counters)
        if evaluate:
            evaluation = _evaluate(system, streams)
    repeat = Repeat(
        timings, readings if gate is not None else None, uploads, cpu, wall, digest,
        counters, failures, rss_kb, evaluation, setup_counters,
    )
    if keep_system:
        return repeat, system
    if system is not None:
        system.close()
    return repeat


# ----------------------------------------------------------------------
# A workload's repeats
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    """Seeded inputs, slice plan and collected repeats of one workload.

    ``observer_off`` builds the ``recurring_refit`` twin that runs with
    ``NULL_OBSERVER`` (the denominator of ``obs.enabled_overhead_ratio``).
    """

    workload: Workload
    seed: int
    observer_off: bool = False
    materialize_s: float = 0.0
    replays: int = 0
    reference: Repeat | None = None
    repeats: list[Repeat] = field(default_factory=list)
    setup_passes: list[Repeat] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        start = time.perf_counter()
        self.streams = materialize(self.workload, self.seed)
        self.materialize_s = time.perf_counter() - start
        self.plan = plan_slices(self.workload)

    @property
    def label(self) -> str:
        return self.workload.name + ("+null_observer" if self.observer_off else "")

    def observed_kit(self, count_events: bool = False) -> Observed | None:
        if not self.workload.observed or self.observer_off:
            return None
        return Observed.create(count_events)

    def run_once(self, gate=None, discard: bool = False) -> Repeat:
        """One more replay.  The first is the reference every later one
        must reproduce; ``discard`` keeps its timings out (a warm-up)."""
        first = self.reference is None
        repeat = replay(
            self.workload,
            self.plan,
            self.streams,
            gate=gate,
            observed=self.observed_kit(),
            evaluate=first,
        )
        self.replays += 1
        self.failures += repeat.failures
        if first:
            self.reference = repeat
        elif repeat.digest != self.reference.digest:
            self.failures.append(
                f"replay {self.replays} ended in a different state than the "
                "reference replay"
            )
        self._check_one_thread(repeat)
        if not (first and discard):
            self.repeats.append(repeat)
        return repeat

    def run_setup_pass(self, gate=None) -> Repeat:
        """One more set-up on a fresh system, stopped at the first
        global model: more samples of the set-up slices for ``setup_s``
        where a run affords few whole replays."""
        repeat = replay(
            self.workload, self.plan, self.streams, gate=gate,
            observed=self.observed_kit(), setup_only=True,
        )
        self.failures += repeat.failures
        self._check_one_thread(repeat)
        self.setup_passes.append(repeat)
        return repeat

    def _check_one_thread(self, repeat: Repeat) -> None:
        if repeat.cpu_over_wall > CPU_OVER_WALL_MAX:
            self.failures.append(
                f"process_time/perf_counter = {repeat.cpu_over_wall:.2f}: "
                "more than one thread is running (BLAS not pinned?)"
            )

    # ------------------------------------------------------------------
    def timings(self) -> list[list[float]]:
        """Slice times of every repeat as the clock read them."""
        return [repeat.timings for repeat in self.repeats]

    @property
    def gated(self) -> bool:
        """Whether every repeat ran behind the quiet gate."""
        return all(repeat.readings is not None for repeat in self.repeats)

    def _samples(self, passes: list[Repeat]) -> list[list[float]]:
        times = [repeat.timings for repeat in passes]
        if not self.gated:
            return times
        return estimator.rescale(times, [repeat.readings for repeat in passes])

    def samples(self) -> list[list[float]]:
        """What the composite and the trust statistics are taken over:
        yardstick units when gated, host seconds otherwise -- one kind
        for the whole run."""
        return self._samples(self.repeats)

    def values(self) -> list[float]:
        """The composite: undisturbed cost of every slice of the plan."""
        return estimator.composite(
            self.samples(), prefixes=self._samples(self.setup_passes)
        )

    def attempted(self) -> int:
        """Records submitted + boundary steps, over every replay made."""
        workload = self.workload
        per_replay = workload.records + workload.sites * workload.chunks
        per_setup = workload.sites * (workload.chunk + 1)
        return self.replays * per_replay + len(self.setup_passes) * per_setup

    def update_share(self, repeat: Repeat | None = None) -> float:
        """Steady boundaries that caused an upload / steady boundaries."""
        uploads = (repeat or self.reference).uploads
        boundaries = (p for p in self.plan if p.kind == BOUNDARY)
        steady = [up for piece, up in zip(boundaries, uploads) if not piece.setup]
        return sum(steady) / len(steady)

    def check(self) -> list[str]:
        """Workload-level checks on top of the per-repeat ones."""
        failures = list(self.failures)
        if self.reference is None or not self.repeats:
            return failures + ["no timed repeat completed"]
        if self.reference.failures:
            return failures
        share = self.update_share()
        zone = self.workload.zone
        if zone is None and share != 0.0:
            failures.append(f"update share {share:.3f} should be exactly 0")
        if zone is not None and not zone[0] <= share <= zone[1]:
            failures.append(
                f"update share {share:.3f} outside [{zone[0]}, {zone[1]}]"
            )
        gap = self.reference.evaluation["holdout_ll_gap_nats"]
        if not math.isfinite(gap) or gap > self.workload.ll_gap_ceiling:
            failures.append(
                f"holdout_ll_gap_nats {gap:.3f} above the ceiling "
                f"{self.workload.ll_gap_ceiling}"
            )
        return failures


def measure(runs, gate, *, repeats: int, warmup: bool = True,
            progress=None) -> None:
    """Interleave the replays of ``runs`` round-robin (A B C D A B ...)
    until each has ``repeats`` timed repeats, then top the set-up
    slices up to :data:`SETUP_SAMPLES` samples with set-up-only passes.

    With ``warmup`` the first round is discarded; without it the first
    replay is timed like the rest (the per-slice minimum drops its cold
    slices anyway), which is what a short measuring window can afford.
    """
    rounds = [(repeats + warmup, False), (max(0, SETUP_SAMPLES - repeats), True)]
    for count, setup_only in rounds:
        for round_index in range(count):
            discard = warmup and round_index == 0 and not setup_only
            for run in runs:
                if setup_only:
                    repeat = run.run_setup_pass(gate)
                    kind = f"set-up {len(run.repeats) + len(run.setup_passes)}"
                else:
                    repeat = run.run_once(gate, discard=discard)
                    kind = "warm-up" if discard else f"repeat {len(run.repeats)}"
                if progress is not None:
                    progress(run, kind, repeat)
            if any(run.failures for run in runs):
                return  # a failed workload fails the invocation; stop early


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: WorkloadRun) -> dict[str, float]:
    """The timing, byte and quality metrics of one finished run.

    ``peak_rss_mb`` is added by the caller: it belongs to a process
    that has made one replay, not to the run.
    """
    workload = run.workload
    values = run.values()
    setup = sum(t for t, piece in zip(values, run.plan) if piece.setup)
    steady = sum(t for t, piece in zip(values, run.plan) if not piece.setup)
    latencies = [
        t * 1e3
        for t, piece in zip(values, run.plan)
        if piece.kind == BOUNDARY and not piece.setup
    ]
    counters = run.reference.counters
    return {
        "records_per_s": workload.steady_records / steady,
        "chunk_ms_p50": estimator.quantile(latencies, 0.50),
        "chunk_ms_p90": estimator.quantile(latencies, 0.90),
        "chunk_ms_mean": statistics.fmean(latencies),
        "wire_bytes_per_record": (counters["wire_bytes"] + counters["ack_bytes"])
        / workload.records,
        "holdout_ll_gap_nats": run.reference.evaluation["holdout_ll_gap_nats"],
        "model_state_kb": run.reference.evaluation["model_state_kb"],
        "setup_s": setup,
    }


def harness_stats(run: WorkloadRun) -> dict[str, float]:
    """How far to trust the run: its samples beside their composite."""
    samples, values = run.samples(), run.values()
    latencies = [p for p in run.plan if p.kind == BOUNDARY and not p.setup]
    return {
        "repeats": len(run.repeats),
        "raw_over_composite": estimator.raw_over_composite(samples, values),
        "disturbed_share": estimator.disturbed_share(samples, values),
        "cpu_over_wall": statistics.median(r.cpu_over_wall for r in run.repeats),
        "update_share": run.update_share(),
        "boundaries": len(latencies),
    }
