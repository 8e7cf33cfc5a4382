"""Figure 12: sensitivity to the probability error δ.

δ enters the chunk-size formula ``M = -2d ln(δ(2-δ))/ε``: a larger δ
tolerates more probability error, shrinking the chunks.  The paper
varies δ from 0.01 to 0.1 and reports (a) quality stays high for small
δ and deteriorates at large δ (chunks of different distributions merge
more easily), while still beating SEM; (b) processing time decreases as
δ grows.

Shape targets: chunk size strictly decreasing in δ; quality at δ=0.01
beats quality at δ=0.1 and everything beats SEM; the EM work at the
largest δ (records clustered, ``em_runs × M``) is not meaningfully
above the work at the smallest.  The seconds are printed, not gated.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import fast_em, print_header, run_once
from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from benchmarks.paper.evaluation.timing import measure_throughput
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)
from repro.windows.horizon import horizon_mixture

DELTAS = (0.01, 0.02, 0.04, 0.1)
EPSILON = 0.02
TOTAL = 16_000
SEGMENT = 4000  # longer than the largest Theorem-1 chunk of the sweep
DIM = 4


N_SEEDS = 3


def figure12() -> dict:
    """Average quality/time over N_SEEDS runs (the paper averages 5)."""
    qualities = np.zeros(len(DELTAS))
    times = np.zeros(len(DELTAS))
    em_runs = [0] * len(DELTAS)
    sem_quality = 0.0
    chunk_sizes = []
    for seed in range(N_SEEDS):
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=DIM,
                n_components=5,
                segment_length=SEGMENT,
                p_new_distribution=0.5,
                separation=4.0,
            ),
            rng=np.random.default_rng(222 + seed),
        )
        data = take(stream, TOTAL)
        holdout, _ = stream.segments[-1].mixture.sample(
            2000, np.random.default_rng(5 + seed)
        )

        chunk_sizes = []
        for index, delta in enumerate(DELTAS):
            config = RemoteSiteConfig(
                dim=DIM, epsilon=EPSILON, delta=delta, em=fast_em()
            )
            site = RemoteSite(0, config, rng=np.random.default_rng(6 + seed))
            result = measure_throughput(
                site.process_record, iter(data), max_records=TOTAL
            )
            times[index] += result.seconds / N_SEEDS
            chunk_sizes.append(site.chunk)
            em_runs[index] += site.stats.n_clusterings
            qualities[index] += (
                horizon_mixture(site, SEGMENT).average_log_likelihood(holdout)
                / N_SEEDS
            )

        sem = ScalableEM(
            DIM,
            SEMConfig(n_components=5, buffer_size=1000, em=fast_em()),
            rng=np.random.default_rng(7 + seed),
        )
        sem.process_stream(data)
        sem_quality += (
            sem.current_model().average_log_likelihood(holdout) / N_SEEDS
        )
    return {
        "qualities": qualities.tolist(),
        "times": times.tolist(),
        "chunks": chunk_sizes,
        "sem": sem_quality,
        "em_runs": em_runs,
    }


def bench_fig12_delta(benchmark, claims):
    results = run_once(benchmark, figure12)
    # The records EM clustered at each δ: the work that sets the time.
    em_records = [
        runs * m for runs, m in zip(results["em_runs"], results["chunks"])
    ]
    claims(
        {
            "chunk_sizes": results["chunks"],
            "quality": results["qualities"],
            "sem_quality": results["sem"],
            "em_runs": results["em_runs"],
            "em_records": em_records,
        }
    )
    print_header("Figure 12: sensitivity to delta")
    print(f"{'delta':>8}  {'M':>6}  {'quality':>10}  {'time (s)':>10}")
    for delta, m, quality, seconds in zip(
        DELTAS, results["chunks"], results["qualities"], results["times"]
    ):
        print(f"{delta:>8}  {m:>6}  {quality:>10.3f}  {seconds:>10.4f}")
    print(f"SEM reference quality: {results['sem']:.3f}")

    chunks = results["chunks"]
    assert all(a > b for a, b in zip(chunks, chunks[1:])), "M not shrinking"
    qualities = results["qualities"]
    assert qualities[0] > qualities[-1]
    assert min(qualities) > results["sem"]
    # The paper reports time decreasing with δ.  In this implementation
    # the effect is weak -- smaller chunks mean cheaper but more
    # frequent EM runs, which largely cancels -- so we assert the weak
    # form on the work behind the time, which a loaded host cannot
    # perturb: the large-δ end never clusters meaningfully *more*
    # records than the small-δ end (see EXPERIMENTS.md).
    assert em_records[-1] <= em_records[0] * 1.15
