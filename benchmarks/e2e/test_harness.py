"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src pytest benchmarks/e2e -q``; not part of the
tier-1 ``testpaths``.  The estimator and span arithmetic are tested on
synthetic inputs; the harness itself is driven through ``--smoke``.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare, estimator, spans
from benchmarks.e2e.workloads import (
    BOUNDARY,
    INGEST,
    WORKLOADS,
    materialize,
    plan_slices,
    scenario,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


# ----------------------------------------------------------------------
# Workloads: slicing and seeding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_slices_cover_every_submission_once(name):
    workload = WORKLOADS[name].scaled(0.25)
    plan = plan_slices(workload)
    assert plan == plan_slices(workload)
    fed = [0] * workload.sites
    for piece in plan:
        if piece.kind == INGEST:
            for site in range(workload.sites):
                assert fed[site] == piece.r0
                fed[site] = piece.r1
        elif piece.kind == BOUNDARY:
            assert fed[piece.site] == piece.r0
            assert (piece.r0 + 1) % workload.chunk == 0
            fed[piece.site] = piece.r1
    assert fed == [workload.chunk * workload.chunks] * workload.sites
    boundaries = [p for p in plan if p.kind == BOUNDARY and not p.setup]
    assert len(boundaries) == workload.sites * (workload.chunks - 1)


def test_full_scale_has_enough_boundaries():
    for workload in WORKLOADS.values():
        assert workload.sites * (workload.chunks - 1) >= 120, workload.name
        assert workload.scaled(1.0) == workload


def test_same_seed_same_streams_other_seed_other_streams():
    workload = WORKLOADS["drift_merge"].scaled(0.25)
    first, again = materialize(workload, 7), materialize(workload, 7)
    other = materialize(workload, 11)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    # The chunk each regime's model is fitted on belongs to the
    # scenario; every other chunk is drawn from the seed.
    m = workload.chunk
    for segments, a, b in zip(scenario(workload), first.data, other.data):
        fit_chunks = set()
        start = 0
        for segment in segments:
            fit_chunks.add(start)
            start += segment.chunks
        assert start == workload.chunks and 0 in fit_chunks
        for chunk in range(workload.chunks):
            same = (a[chunk * m : (chunk + 1) * m] == b[chunk * m : (chunk + 1) * m])
            assert same.all() if chunk in fit_chunks else not same.any()
    assert [a.shape for a in first.data] == [b.shape for b in other.data]


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
def _synthetic_run(rng, truth, repeats, slow=1.7, flip=0.15):
    """Timings of ``repeats`` passes over ``truth`` on a host that flips
    between a quiet state and one ``slow`` x slower."""
    timings = []
    state = 1.0
    for _ in range(repeats):
        row = []
        for cost in truth:
            if rng.random() < flip:
                state = slow if state == 1.0 else 1.0
            row.append(cost * state * (1.0 + 0.03 * rng.random()))
        timings.append(row)
    return timings


def test_composite_recovers_truth_under_slow_periods():
    rng = random.Random(5)
    truth = [rng.uniform(0.001, 0.2) for _ in range(300)]
    timings = _synthetic_run(rng, truth, repeats=estimator.TRIM_FROM - 1)
    raw = statistics.median(sum(row) for row in timings)
    assert raw / sum(truth) > 1.2  # the raw picture is badly off
    values = estimator.composite(timings)
    assert sum(values) == pytest.approx(sum(truth), rel=0.03)
    recovered = sum(v / t < 1.04 for v, t in zip(values, truth))
    assert recovered >= 0.97 * len(truth)  # a few slices never ran quiet
    assert estimator.raw_over_composite(timings, values) > 1.2
    assert 0.2 < estimator.disturbed_share(timings, values) < 0.8
    with pytest.raises(ValueError):
        estimator.composite([[1.0], [1.0, 2.0]])


def test_rescaled_samples_recover_a_slice_only_seen_clean_on_a_slow_host():
    ref = estimator.YARDSTICK_REFERENCE_S
    # Slice 1 was disturbed in the repeat that ran at reference speed
    # and clean only in the one that ran on a 1.7x slower host: the
    # plain minimum is 1.3x off, each repeat's level brings it back.
    timings = [[1.0, 2.6], [1.7, 3.4]]
    readings = [[ref, ref], [1.7 * ref, 1.7 * ref]]
    assert estimator.composite(timings) == [1.0, 2.6]
    samples = estimator.rescale(timings, readings)
    assert estimator.composite(samples) == pytest.approx([1.0, 2.0])
    # One reading that came out high does not buy its sample a discount.
    noisy = [[ref, ref, 1.4 * ref], [ref, ref, ref]]
    flat = estimator.rescale([[1.0, 1.0, 1.0]] * 2, noisy)
    assert estimator.composite(flat) == pytest.approx([1.0, 1.0, 1.0])


def test_trust_statistics_do_not_carry_the_host_speed():
    # A host 1.5x slower than the yardstick's reference, nothing else
    # wrong: in one unit the samples sit on their composite.  Mixing raw
    # samples with a rescaled composite reads the host-speed ratio.
    ref = estimator.YARDSTICK_REFERENCE_S
    truth = [0.010, 0.200, 0.030]
    timings = [[1.5 * t for t in truth] for _ in range(4)]
    readings = [[1.5 * ref] * len(truth) for _ in range(4)]
    samples = estimator.rescale(timings, readings)
    values = estimator.composite(samples)
    assert values == pytest.approx(truth)
    assert estimator.raw_over_composite(samples, values) == pytest.approx(1.0)
    assert estimator.disturbed_share(samples, values) == 0.0
    assert estimator.raw_over_composite(timings, values) == pytest.approx(1.5)
    assert estimator.disturbed_share(timings, values) == pytest.approx(1.0)


def test_many_samples_drop_the_smallest():
    # Repeat 0 straddled a change of level and reads 20 % low after
    # rescaling.  With few repeats the minimum has to take it; from
    # TRIM_FROM samples on one such repeat no longer decides the value.
    few = [[0.8]] + [[1.0 + 0.01 * r] for r in range(1, estimator.TRIM_FROM - 1)]
    assert estimator.composite(few) == [0.8]
    many = few + [[1.3]]
    assert len(many) == estimator.TRIM_FROM
    assert estimator.composite(many) == [1.01]
    assert estimator.composite(few, prefixes=[[1.3]]) == [1.01]


def test_prefix_passes_only_lower_the_slices_they_sampled():
    repeats = [[5.0, 2.0, 9.0], [6.0, 3.0, 8.0]]
    assert estimator.composite(repeats, prefixes=[[4.0, 2.5], [7.0]]) == [4.0, 2.0, 8.0]
    with pytest.raises(ValueError):
        estimator.composite(repeats, prefixes=[[1.0, 1.0, 1.0, 1.0]])


def test_quantile_matches_linear_interpolation():
    assert estimator.quantile([4, 1, 3, 2], 0.5) == 2.5
    assert estimator.quantile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
    assert estimator.quantile([7.0], 0.9) == 7.0


class _FakeHost:
    """A clock plus a probe that reads quiet, then slow, then quiet."""

    def __init__(self, slow_from, slow_until):
        self.now = 0.0
        self.slow = (slow_from, slow_until)

    def clock(self):
        return self.now

    def probe(self):
        self.now += 0.001
        return 0.0017 if self.slow[0] <= self.now < self.slow[1] else 0.001


def test_gate_holds_until_quiet_and_respects_its_budget():
    host = _FakeHost(slow_from=0.1, slow_until=0.6)
    gate = estimator.QuietGate(host.probe, clock=host.clock, budget_s=5.0)
    while host.now < 0.1:
        assert gate.wait() == 0.0  # quiet: one reading, no wait
    waited = gate.wait()
    assert 0.45 < waited < 0.55 and host.now >= 0.6
    assert (gate.held, gate.gave_up) == (1, 0)
    assert gate.floor == pytest.approx(0.001)

    host = _FakeHost(slow_from=0.1, slow_until=1e9)
    gate = estimator.QuietGate(host.probe, clock=host.clock, budget_s=0.2)
    while host.now < 0.1:
        gate.wait()
    assert 0.19 < gate.wait() < 0.25 and gate.gave_up == 1
    assert gate.wait() == pytest.approx(0.0, abs=0.01)  # budget is spent

    # A host that is slow from the start reads as quiet: the gate only
    # knows the levels it has seen.
    host = _FakeHost(slow_from=0.0, slow_until=1e9)
    assert estimator.QuietGate(host.probe, clock=host.clock).wait() == 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_self_time_is_duration_minus_children():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    recorder = spans.SpanRecorder(clock=lambda: now[0])

    def leaf():
        tick(2.0)

    leaf = recorder.wrap("layer_b.leaf", leaf)

    def middle():
        tick(1.0)
        leaf()
        leaf()
        tick(0.5)

    middle = recorder.wrap("layer_a.middle", middle)

    def root():
        tick(0.25)
        middle()
        tick(0.25)

    root = recorder.wrap("layer_a.root", root)

    root()  # aggregated only
    recorder.keep_spans(9)
    root()  # kept as full spans
    # [calls, total, self, wrapped calls made]
    assert recorder.aggregate["layer_a.root"] == [2, 12.0, 1.0, 2]
    assert recorder.aggregate["layer_a.middle"] == [2, 11.0, 3.0, 4]
    assert recorder.aggregate["layer_b.leaf"] == [4, 8.0, 8.0, 0]
    assert recorder.boundary["layer_b.leaf"] == [2, 4.0, 4.0, 0]
    assert recorder.layer_self() == {"layer_a": 4.0, "layer_b": 8.0}
    assert recorder.self_time("layer_a.middle", boundary=False) == 1.5

    kept = recorder.span_dicts()
    assert [s["name"] for s in kept] == [
        "layer_a.root", "layer_a.middle", "layer_b.leaf", "layer_b.leaf",
    ]
    assert {s["chunk"] for s in kept} == {9}
    assert [s["parent"] for s in kept] == [-1, 0, 1, 1]
    own = spans.self_times(kept)
    assert own == {0: 0.5, 1: 1.5, 2: 2.0, 3: 2.0}
    assert sum(own.values()) == kept[0]["end"] - kept[0]["start"]

    # The wrappers' own cost comes out of the self times: each call
    # spent `inside` in its own span and `outside` in its caller's.
    recorder.overhead = (0.1, 0.05)
    assert recorder.self_time("layer_a.middle") == pytest.approx(3.0 - 0.2 - 0.2)
    assert recorder.self_time("layer_b.leaf") == pytest.approx(8.0 - 0.4)
    assert recorder.wrapper_seconds() == pytest.approx(8 * 0.15)


def test_installing_the_recorder_is_reversible():
    pytest.importorskip("repro")
    from repro.core import remote
    from repro.runtime.runtime import Runtime

    before = (remote.fit_test, remote.RemoteSite.process_record,
              vars(Runtime)["resume"])
    with spans.installed(spans.SpanRecorder()):
        assert remote.fit_test is not before[0]
        assert remote.RemoteSite.process_record is not before[1]
    after = (remote.fit_test, remote.RemoteSite.process_record,
             vars(Runtime)["resume"])
    assert before == after


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _report(value, correct=True, **settings):
    provenance = {"seed": 7, "repeats": 12, "scale": 1.0, "gate": {"mode": "on"}}
    provenance.update(settings)
    entry = {"correct": correct}
    if correct:
        entry["end_to_end"] = {"records_per_s": {
            "value": value, "unit": "1/s", "better": "higher", "bound": 0.08}}
    return {"provenance": provenance, "workloads": {"w": entry}}


def _compare(tmp_path, a, b, *extra):
    paths = []
    for name, report in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(report))
    return compare.main(paths + list(extra))


def test_compare_flags_disagreement_beyond_the_bound(tmp_path, capsys):
    assert _compare(tmp_path, _report(100.0), _report(103.0)) == 0
    assert _compare(tmp_path, _report(100.0), _report(103.0), "--fraction", "0.25") == 1
    assert _compare(tmp_path, _report(100.0), _report(120.0)) == 1
    assert "EXCEEDED" in capsys.readouterr().out


def test_compare_fails_a_workload_that_failed_or_is_missing(tmp_path):
    good, failed = _report(100.0), _report(100.0, correct=False)
    empty = {"provenance": good["provenance"], "workloads": {}}
    for a, b in ((failed, good), (good, failed), (good, empty), (empty, good)):
        rows = compare.compare_reports(a, b)
        assert [(r["metric"], r["ok"]) for r in rows] == [("correct", False)]
        assert _compare(tmp_path, a, b) == 1


def test_compare_refuses_reports_measured_differently(tmp_path, capsys):
    base = _report(100.0)
    for other in (
        _report(100.0, seed=11),
        _report(100.0, repeats=3),
        _report(100.0, scale=0.125),
        _report(100.0, gate={"mode": "off"}),
    ):
        assert _compare(tmp_path, base, other) == 2
    assert "not comparable" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The contract and the harness, end to end
# ----------------------------------------------------------------------
def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", n) for n in names)
    assert len(CONTRACT["end_to_end"]) == 9
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_smoke_report_names_match_the_contract(tmp_path):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert time.perf_counter() - started < 30.0
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == list(WORKLOADS)
    assert report["provenance"]["seed"] == 7
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["failures"])
        assert entry["attempted"] >= 1
        assert list(entry["end_to_end"]) == [m["name"] for m in CONTRACT["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in CONTRACT["per_layer"]]
        assert all(m["value"] > 0 for m in entry["end_to_end"].values()), name
        trace = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
        assert trace["workload"] == name and trace["spans"]
    steady = report["workloads"]["steady_ingest"]["per_layer"]
    assert steady["core.merging.busy_share"]["value"] == 0.0
    assert steady["harness.update_share"]["value"] == 0.0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_contract_prints_one_json_object_last(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "drift_merge", "--seed", "11", "--smoke",
               "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_exits_non_zero_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
