"""Figure 11: sensitivity to the error bound ε.

ε controls both the tolerance of the fit test and (through Theorem 1)
the chunk size ``M ∝ 1/ε``.  The paper varies ε from 0.01 to 0.1 on
synthetic data and reports:

* (a) clustering quality decreases markedly as ε grows (a looser test
  merges chunks from different distributions), while staying above SEM;
* (b) processing time is worst at the extremes and smallest at a
  moderate ε (≈0.04): small ε means few but expensive big-chunk EM
  runs, large ε means many small chunks and more frequent clustering.

The sweep uses Theorem 1 chunk sizing (no override) so ε genuinely
drives ``M``.  Shape targets: quality at ε=0.01 beats quality at ε=0.1;
quality decreases (weakly) along the sweep; the quality at every ε
stays above the SEM reference measured on the same stream.
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

EPSILONS = (0.01, 0.02, 0.04, 0.07, 0.1)
DELTA = 0.01
TOTAL = 16_000
SEGMENT = 4000  # longer than the largest Theorem-1 chunk of the sweep
DIM = 4


N_SEEDS = 3


def workload(seed: int) -> tuple[np.ndarray, object]:
    stream = EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=DIM,
            n_components=5,
            segment_length=SEGMENT,
            p_new_distribution=0.5,
            separation=4.0,
        ),
        rng=np.random.default_rng(111 + seed),
    )
    return take(stream, TOTAL), stream


def figure11() -> dict:
    """Average quality/time over N_SEEDS runs (the paper averages 5)."""
    qualities = np.zeros(len(EPSILONS))
    times = np.zeros(len(EPSILONS))
    em_runs = [0] * len(EPSILONS)
    sem_quality = 0.0
    chunk_sizes = []
    for seed in range(N_SEEDS):
        data, stream = workload(seed)
        holdout, _ = stream.segments[-1].mixture.sample(
            2000, np.random.default_rng(5 + seed)
        )
        chunk_sizes = []
        for index, epsilon in enumerate(EPSILONS):
            config = RemoteSiteConfig(
                dim=DIM, epsilon=epsilon, delta=DELTA, em=fast_em()
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


def bench_fig11_epsilon(benchmark, claims):
    results = run_once(benchmark, figure11)
    claims(
        {
            "chunk_sizes": results["chunks"],
            "quality": results["qualities"],
            "sem_quality": results["sem"],
            "em_runs": results["em_runs"],
        }
    )
    print_header("Figure 11: sensitivity to epsilon")
    print(f"{'epsilon':>8}  {'M':>6}  {'quality':>10}  {'time (s)':>10}")
    for eps, m, quality, seconds in zip(
        EPSILONS, results["chunks"], results["qualities"], results["times"]
    ):
        print(f"{eps:>8}  {m:>6}  {quality:>10.3f}  {seconds:>10.4f}")
    print(f"SEM reference quality: {results['sem']:.3f}")

    qualities = results["qualities"]
    # (a) small ε clearly beats large ε, and CluDistream stays above SEM.
    assert qualities[0] > qualities[-1]
    assert min(qualities) > results["sem"]
    # (b) the extremes are not the cheapest point of the sweep.
    times = results["times"]
    interior_min = min(times[1:-1])
    assert interior_min <= max(times[0], times[-1])
