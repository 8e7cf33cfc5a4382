"""repro.bench: the codec-cell byte table behind ``BENCH_comm.json``.

Bytes on the wire are an exact function of the stream, so they are
gated by equality (:mod:`repro.bench.comm`; ``repro bench --baseline
BENCH_comm.json``).  Nothing here measures time: that is
``benchmarks/e2e``'s job, and the amount of work a path does is pinned
by the counting tests (``DESIGN.md`` section 10.1).
"""

from __future__ import annotations

from repro.bench.comm import (
    COMM_CELLS,
    CommCell,
    compare_comm_reports,
    format_comm_report,
    run_comm_bench,
)

__all__ = [
    "COMM_CELLS",
    "CommCell",
    "compare_comm_reports",
    "format_comm_report",
    "run_comm_bench",
]
