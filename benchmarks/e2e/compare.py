"""``python -m benchmarks.e2e compare A.json B.json``.

Prints, per workload and end-to-end metric, both values, their relative
disagreement and the declared bound, and exits 1 when any disagreement
exceeds ``fraction`` x its bound, or when a workload failed or is
missing on either side.  Two reports of the same code at the same seed
are expected to pass with ``--fraction 0.5`` on the timings and to
agree exactly on the byte counts and the quality gap -- that is the
agreement criterion the bounds were derived from.

Reports are only comparable when they measured the same thing the same
way: exit 2, before any row, when seed, repeat count, scale or gate
mode differ (the composite falls as repeats are added, and the gate
mode fixes the unit of every timing).
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["compare_reports", "main", "settings_mismatch"]

INF = float("inf")


def disagreement(a: float, b: float) -> float:
    """``|a - b|`` as a share of the smaller magnitude (0 when equal)."""
    if a == b:
        return 0.0
    smaller = min(abs(a), abs(b))
    return abs(a - b) / smaller if smaller else INF


def _settings(report: dict) -> dict:
    provenance = report.get("provenance", {})
    return {
        "seed": provenance.get("seed"),
        "repeats": provenance.get("repeats"),
        "scale": provenance.get("scale"),
        "gate mode": (provenance.get("gate") or {}).get("mode"),
    }


def settings_mismatch(a: dict, b: dict) -> list[str]:
    """The settings in which two reports differ, as printable lines."""
    ours, theirs = _settings(a), _settings(b)
    return [
        f"{key}: {ours[key]!r} against {theirs[key]!r}"
        for key in ours
        if ours[key] != theirs[key]
    ]


def _row(workload, metric, a, b, gap, bound, ok):
    return {"workload": workload, "metric": metric, "a": a, "b": b,
            "disagreement": gap, "bound": bound, "ok": ok}


def compare_reports(a: dict, b: dict, fraction: float = 1.0) -> list[dict]:
    """One row per (workload, end-to-end metric) of either report; a
    workload that failed or is missing on one side gets one failing row
    with the metric ``correct``."""
    rows = []
    names = list(a["workloads"]) + [n for n in b["workloads"] if n not in a["workloads"]]
    for name in names:
        sides = [report["workloads"].get(name) for report in (a, b)]
        states = [
            "missing" if side is None else bool(side.get("correct")) for side in sides
        ]
        if states != [True, True]:
            rows.append(_row(name, "correct", states[0], states[1], INF, 0.0, False))
            continue
        ours, theirs = (side["end_to_end"] for side in sides)
        for metric in list(ours) + [m for m in theirs if m not in ours]:
            if metric not in ours or metric not in theirs:
                present = ours.get(metric) or theirs[metric]
                rows.append(_row(
                    name, metric,
                    ours[metric]["value"] if metric in ours else "missing",
                    theirs[metric]["value"] if metric in theirs else "missing",
                    INF, present["bound"], False,
                ))
                continue
            bound = ours[metric]["bound"]
            gap = disagreement(ours[metric]["value"], theirs[metric]["value"])
            rows.append(_row(
                name, metric, ours[metric]["value"], theirs[metric]["value"],
                gap, bound, gap <= fraction * bound,
            ))
    return rows


def _cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument(
        "--fraction", type=float, default=1.0,
        help="share of each bound a disagreement may reach (default 1.0)",
    )
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    mismatch = settings_mismatch(a, b)
    if mismatch:
        print("reports are not comparable: " + "; ".join(mismatch), file=sys.stderr)
        return 2
    rows = compare_reports(a, b, args.fraction)
    if not rows:
        print("no workloads to compare", file=sys.stderr)
        return 2
    print(f"{'workload':<16}{'metric':<24}{'A':>14}{'B':>14}{'disagree':>10}{'bound':>8}")
    for row in rows:
        flag = "" if row["ok"] else "  EXCEEDED"
        print(
            f"{row['workload']:<16}{row['metric']:<24}{_cell(row['a']):>14}"
            f"{_cell(row['b']):>14}{row['disagreement']:>10.4f}{row['bound']:>8}{flag}"
        )
    bad = [row for row in rows if not row["ok"]]
    print(f"{len(rows) - len(bad)} of {len(rows)} within {args.fraction} x bound")
    return 1 if bad else 0
