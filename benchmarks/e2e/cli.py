"""Command line of the end-to-end benchmark.

Three ways in:

``python -m benchmarks.e2e --seed 7``
    Everything: the four workloads interleaved A B C D A B C D ..., a
    memory run and a traced run per workload; prints every metric and
    writes ``out/report.json`` and ``out/trace-<workload>.json``.

``... --workload W --seed N --seconds S --trace 0|1``
    The driver contract of ``BENCHMARK.json``: one workload, as many
    repeats as fill ``S`` seconds, one JSON object on the last line
    of standard output (end-to-end metrics with ``--trace 0``, per-layer
    metrics with ``--trace 1``).

``... compare A.json B.json``
    Pairwise agreement of two reports against the declared bounds.

Exit status is non-zero when a correctness check fails; which one is
printed on standard error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import env

SMOKE_SCALE = 0.125
SMOKE_REPEATS = 2
DEFAULT_REPEATS = 12
#: Total seconds one invocation may spend waiting for a quiet host.
GATE_BUDGET_S = 90.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_contract() -> dict:
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """Attach the declared unit to every declared metric, in order."""
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in declared
    }


# ----------------------------------------------------------------------
# Memory: the high-water mark of a fresh process after one replay.  The
# single-workload form is such a process itself and reads its own mark;
# the full report replays four workloads in one process, so it sends a
# child per workload.
# ----------------------------------------------------------------------
def child_rss(name: str, seed: int, scale: float) -> int:
    """Body of the child: replay once, print the peak RSS in kB."""
    from benchmarks.e2e.harness import replay
    from benchmarks.e2e.workloads import Observed, materialize, plan_slices

    workload = _workload(name, scale)
    observed = Observed.create() if workload.observed else None
    repeat = replay(
        workload, plan_slices(workload), materialize(workload, seed),
        observed=observed,
    )
    if repeat.failures:
        _log("; ".join(repeat.failures))
        return 1
    print(repeat.peak_rss_kb)
    return 0


def child_rss_mb(name: str, seed: int, scale: float) -> float:
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--child-rss", name, "--seed", str(seed), "--scale", str(scale),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"memory run of {name} failed: {done.stderr.strip()}")
    return int(done.stdout.strip().splitlines()[-1]) / 1000.0


# ----------------------------------------------------------------------
# Shared pieces of the two measuring modes
# ----------------------------------------------------------------------
def _progress(run, kind, repeat) -> None:
    _log(
        f"  {run.label:<30} {kind:<10} {sum(repeat.timings):7.3f} s  "
        f"cpu/wall {repeat.cpu_over_wall:.3f}"
    )


def _make_gate(args, budget_s: float):
    """The quiet gate; ``--smoke`` does without one (raw host seconds)."""
    from benchmarks.e2e.estimator import QuietGate, make_yardstick

    if args.smoke:
        return None
    return QuietGate(make_yardstick(), budget_s=budget_s)


def _gate_provenance(gate) -> dict:
    """Gate mode and statistics.  The mode fixes the unit of every
    timing metric, so ``compare`` refuses reports that differ in it."""
    from benchmarks.e2e.estimator import YARDSTICK_REFERENCE_S

    if gate is None:
        return {"mode": "off", "timing_unit": "host seconds"}
    return {
        "mode": "on",
        "timing_unit": "seconds at the yardstick's reference speed",
        "yardstick_reference_ms": YARDSTICK_REFERENCE_S * 1e3,
        **gate.stats(),
    }


def _log_gate(gate) -> None:
    if gate is not None:
        stats = gate.stats()
        _log(
            f"quiet gate: {stats['readings']} readings, floor "
            f"{stats['floor_ms']:.3f} ms, median {stats['median_ms']:.3f} ms, "
            f"held {stats['held']} of {stats['passes']} passes for "
            f"{stats['waited_s']:.1f} s, gave up {stats['gave_up']}"
        )


def _workload(name: str, scale: float):
    from benchmarks.e2e.workloads import WORKLOADS

    return WORKLOADS[name].scaled(scale)


def _finish_workload(run, twin, gate, import_s, lines, *, seed, scale, want):
    """Checks, memory run, traced run and metrics of one measured workload.

    ``want`` selects the extras: ``"rss"`` (``peak_rss_mb``, from a
    child process), ``"own_rss"`` (the same, read off this process:
    ``run`` made its first replay), ``"trace"`` (a traced replay,
    written to ``out/trace-<name>.json``).
    Returns ``{"failures", "attempted"}`` plus, when nothing failed,
    ``"end_to_end"`` and (if traced) ``"per_layer"`` values by name.
    """
    from benchmarks.e2e import harness, layers

    name = run.workload.name
    result = {}
    failures = run.check() + (twin.failures if twin is not None else [])
    if not failures:
        result["end_to_end"] = harness.end_to_end(run)
    if not failures and "own_rss" in want:
        result["end_to_end"]["peak_rss_mb"] = run.reference.peak_rss_kb / 1000.0
    if not failures and "rss" in want:
        try:
            result["end_to_end"]["peak_rss_mb"] = child_rss_mb(name, seed, scale)
        except (RuntimeError, subprocess.SubprocessError) as error:
            failures.append(str(error))
    if not failures and "trace" in want:
        traced = layers.traced_repeat(run, env.OUT)
        (env.OUT / f"trace-{name}.json").write_text(
            json.dumps(layers.trace_payload(run, traced))
        )
        failures = run.check()
        if not failures:
            result["per_layer"] = layers.per_layer(
                run, traced, gate=gate, import_s=import_s,
                src_lines=lines, observer_off=twin,
            )
    for failure in failures:
        _log(f"FAILED {name}: {failure}")
    result["failures"] = failures
    result["attempted"] = run.attempted() + (twin.attempted() if twin else 0)
    return result


# ----------------------------------------------------------------------
# Driver contract: one workload, one JSON line
# ----------------------------------------------------------------------
def run_single(args, import_s: float) -> int:
    from benchmarks.e2e import harness

    contract = load_contract()
    scale = SMOKE_SCALE if args.smoke else 1.0
    run = harness.WorkloadRun(_workload(args.workload, scale), args.seed)
    twin = None
    if args.trace and run.workload.observed:
        twin = harness.WorkloadRun(run.workload, args.seed, observer_off=True)
    runs = [run] + ([twin] if twin is not None else [])
    # --seconds fixes the repeat count up front (the composite depends on
    # it); the gate may add at most an eighth of the window in waiting.
    timed = args.seconds is not None
    if args.smoke:
        repeats = SMOKE_REPEATS
    elif timed:
        repeats = run.workload.repeats_for(args.seconds / len(runs))
    else:
        repeats = DEFAULT_REPEATS
    gate = _make_gate(args, args.seconds / 8 if timed else GATE_BUDGET_S)
    harness.measure(runs, gate, repeats=repeats, warmup=not timed, progress=_progress)
    _log_gate(gate)
    result = _finish_workload(
        run, twin, gate, import_s, env.src_lines(), seed=args.seed, scale=scale,
        want={"trace"} if args.trace else {"own_rss"},
    )
    failures = result["failures"]
    metrics = {}
    if not failures:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = _with_units(result[section], contract[section])
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------
def run_all(args, import_s: float) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    contract = load_contract()
    started = time.time()
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    gate = _make_gate(args, GATE_BUDGET_S)
    runs = {name: harness.WorkloadRun(_workload(name, scale), args.seed)
            for name in WORKLOADS}
    twins = {
        name: harness.WorkloadRun(run.workload, args.seed, observer_off=True)
        for name, run in runs.items() if run.workload.observed
    }
    _log(f"timed sets: {repeats} repeats + 1 warm-up per workload, interleaved")
    harness.measure(
        list(runs.values()) + list(twins.values()), gate,
        repeats=repeats, progress=_progress,
    )
    _log_gate(gate)
    lines = env.src_lines()
    report = {
        "provenance": {
            **env.provenance(args.seed),
            "repeats": repeats,
            "scale": scale,
            "started_unix": started,
        },
        "workloads": {},
    }
    for spec in contract["workloads"]:
        name = spec["name"]
        _log(f"memory and traced runs: {name}")
        result = _finish_workload(
            runs[name], twins.get(name), gate, import_s, lines,
            seed=args.seed, scale=scale, want={"rss", "trace"},
        )
        failures = result["failures"]
        entry = {
            "why": spec["why"],
            "correct": not failures,
            "attempted": result["attempted"],
            "failed": len(failures),
            "failures": failures,
        }
        if not failures:
            for section in ("end_to_end", "per_layer"):
                entry[section] = {
                    m["name"]: {**m, "value": result[section][m["name"]]}
                    for m in contract[section]
                }
            entry["harness"] = harness.harness_stats(runs[name])
        report["workloads"][name] = entry
    report["provenance"]["wall_s"] = time.time() - started
    report["provenance"]["gate"] = _gate_provenance(gate)
    out_path = Path(args.out) if args.out else env.OUT / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1))
    print_report(report)
    print(f"\nreport: {out_path}")
    return 0 if all(e["correct"] for e in report["workloads"].values()) else 1


def print_report(report: dict) -> None:
    gate = report["provenance"]["gate"]
    print(f"timings in {gate['timing_unit']} (quiet gate {gate['mode']})")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['why']}")
        print(
            f"   correct={entry['correct']} attempted={entry['attempted']} "
            f"failed={entry['failed']}"
        )
        for failure in entry["failures"]:
            print(f"   FAILED: {failure}")
        if not entry["correct"]:
            continue
        print("   end to end" + " " * 24 + "value  unit   better  bound")
        for metric, m in entry["end_to_end"].items():
            print(
                f"   {metric:<26}{m['value']:>14.6g}  {m['unit']:<6} "
                f"{m['better']:<7} {m['bound']}"
            )
        print("   per layer (traced run)")
        for metric, m in entry["per_layer"].items():
            print(
                f"   {metric:<44}{m['value']:>14.6g}  {m['unit']:<6} {m['better']}"
            )


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the measuring window: as many repeats "
                        "(3 to 12, no warm-up) as fill it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="small scale, 2 repeats, no quiet gate")
    parser.add_argument("--out", help="where to write report.json")
    parser.add_argument("--child-rss", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    env.pin_or_reexec()
    import_s = env.import_program()
    if args.child_rss:
        return child_rss(args.child_rss, args.seed, args.scale)
    if args.workload:
        from benchmarks.e2e.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}")
        return run_single(args, import_s)
    return run_all(args, import_s)
