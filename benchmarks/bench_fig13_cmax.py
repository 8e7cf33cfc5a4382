"""Figure 13: sensitivity to the maximal number of tests c_max.

The multi-test strategy tests a failing chunk against up to ``c_max-1``
archived models before re-clustering.  On a stream that alternates
between a pool of recurring distributions, a small ``c_max`` misses the
archived match and pays for a fresh EM run at every switch, while a
``c_max`` around the pool size reuses models cheaply.  The paper finds
``c_max = 3`` or 4 optimal, with efficiency dropping at both extremes.

The workload cycles through 4 recurring distributions (one chunk per
phase).  Shape targets: processing time at the sweet spot (3-5) is
clearly below ``c_max = 1``; EM-run counts collapse once ``c_max``
covers the cycle; very large ``c_max`` buys no further improvement
(time flat or slightly worse from extra tests).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import make_site_config, print_header, run_once, site_claims
from benchmarks.paper.evaluation.timing import measure_throughput
from repro.core.remote import RemoteSite
from repro.streams.synthetic import random_mixture

C_MAX_SWEEP = (1, 2, 3, 4, 5, 7)
CHUNK = 500
CYCLE = 4
ROUNDS = 6  # total chunks = CYCLE * ROUNDS
DIM = 4


def alternating_data() -> np.ndarray:
    """One chunk per phase, cycling through CYCLE distributions."""
    rng = np.random.default_rng(333)
    pool = [
        random_mixture(DIM, 5, rng, separation=4.0) for _ in range(CYCLE)
    ]
    blocks = []
    sample_rng = np.random.default_rng(334)
    for round_index in range(ROUNDS):
        for mixture in pool:
            blocks.append(mixture.sample(CHUNK, sample_rng)[0])
    return np.vstack(blocks)


def figure13() -> dict:
    data = alternating_data()
    times, clusterings, reactivations = [], [], []
    counters = {}
    for c_max in C_MAX_SWEEP:
        site = RemoteSite(
            0,
            make_site_config(dim=DIM, chunk=CHUNK, c_max=c_max),
            rng=np.random.default_rng(8),
        )
        result = measure_throughput(
            site.process_record, iter(data), max_records=data.shape[0]
        )
        times.append(result.seconds)
        clusterings.append(site.stats.n_clusterings)
        reactivations.append(site.stats.n_reactivations)
        counters.update(site_claims(f"c_max={c_max}", site))
    return {
        "times": times,
        "clusterings": clusterings,
        "reactivations": reactivations,
        "counters": counters,
    }


def bench_fig13_cmax(benchmark, claims):
    results = run_once(benchmark, figure13)
    claims(results["counters"])
    print_header("Figure 13: sensitivity to c_max (cycle of 4 distributions)")
    print(f"{'c_max':>6}  {'time (s)':>10}  {'EM runs':>8}  {'reactivations':>14}")
    for c_max, seconds, ems, reacts in zip(
        C_MAX_SWEEP,
        results["times"],
        results["clusterings"],
        results["reactivations"],
    ):
        print(f"{c_max:>6}  {seconds:>10.4f}  {ems:>8}  {reacts:>14}")

    times = dict(zip(C_MAX_SWEEP, results["times"]))
    ems = dict(zip(C_MAX_SWEEP, results["clusterings"]))

    # The sweet spot beats the single-test strategy decisively.
    sweet = min(times[3], times[4], times[5])
    assert sweet < times[1], "multi-test bought nothing"
    # Covering the cycle collapses the number of EM runs.
    assert ems[5] < ems[1] / 2
    # Once the cycle is covered, more tests stop helping.
    assert ems[7] <= ems[5]
    assert times[7] > sweet * 0.5  # flat-to-worse, never dramatically better
