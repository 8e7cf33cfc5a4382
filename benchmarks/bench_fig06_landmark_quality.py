"""Figure 6: cluster quality in a landmark window.

The paper compares CluDistream, SEM and sampling-based EM on the model
of *all data since the landmark*: CluDistream is best (slightly above
SEM) and the sampling-based method clearly worst, "since the sampling
may lose a lot of valuable clustering information".

Workload notes: the ordering SEM > sampling requires the regime the
paper operates in -- a modest number of distinct distributions
(``P_d = 0.1``-ish) and a model family large enough to represent the
landmark distribution (we give SEM and sampling ``K = 10``), with a
deliberately small reservoir.  Results are averaged over three seeded
runs, as the paper averages five.

Shape target: mean quality CluDistream ≥ SEM > sampling-EM.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import make_site_config, print_header, run_once
from benchmarks.paper.baselines.sampling import SamplingEM, SamplingEMConfig
from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite
from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)
from repro.windows.landmark import landmark_mixture

CHUNK = 500
TOTAL = 12_000
RESERVOIR = 100  # deliberately small: "sampling loses information"
LANDMARK_K = 10
N_RUNS = 3


def landmark_holdout(stream, n: int, rng) -> np.ndarray:
    """Fresh sample from the true landmark distribution (all segments,
    weighted by their lengths)."""
    segments = stream.segments
    lengths = np.array([s.length for s in segments], dtype=float)
    weights = lengths / lengths.sum()
    counts = rng.multinomial(n, weights)
    blocks = [
        segment.mixture.sample(count, rng)[0]
        for segment, count in zip(segments, counts)
        if count
    ]
    return np.vstack(blocks)


def one_run(seed: int) -> dict:
    em = EMConfig(n_components=LANDMARK_K, n_init=1, max_iter=40, tol=1e-3)
    stream = EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=4,
            n_components=5,
            segment_length=2000,
            p_new_distribution=0.25,
            separation=4.0,
        ),
        rng=np.random.default_rng(88 + seed),
    )
    data = take(stream, TOTAL)

    site = RemoteSite(
        0,
        make_site_config(dim=4, chunk=CHUNK),
        rng=np.random.default_rng(1 + seed),
    )
    sem = ScalableEM(
        4,
        SEMConfig(n_components=LANDMARK_K, buffer_size=CHUNK, em=em),
        rng=np.random.default_rng(2 + seed),
    )
    sampler = SamplingEM(
        4,
        SamplingEMConfig(
            reservoir_size=RESERVOIR, refit_interval=TOTAL, em=em
        ),
        rng=np.random.default_rng(3 + seed),
    )
    for row in data:
        site.process_record(row)
        sem.process_record(row)
        sampler.process_record(row)

    holdout = landmark_holdout(stream, 4000, np.random.default_rng(4 + seed))
    return {
        "CluDistream": landmark_mixture(site).average_log_likelihood(holdout),
        "SEM": sem.current_model().average_log_likelihood(holdout),
        "sampling-EM": sampler.current_model().average_log_likelihood(holdout),
    }


def figure6() -> list[dict]:
    return [one_run(seed) for seed in range(N_RUNS)]


def bench_fig06_landmark_quality(benchmark, claims):
    runs = run_once(benchmark, figure6)
    claims({name: [run[name] for run in runs] for name in runs[0]})
    print_header("Figure 6: landmark-window cluster quality (3-run average)")
    names = list(runs[0])
    means = {}
    for name in names:
        values = [run[name] for run in runs]
        means[name] = float(np.mean(values))
        rows = ", ".join(f"{value:.3f}" for value in values)
        print(f"  {name:>12}: runs [{rows}]  mean {means[name]:.3f}")

    # Shape: CluDistream best, sampling clearly worst.
    assert means["CluDistream"] > means["SEM"] - 0.05
    assert means["CluDistream"] > means["sampling-EM"]
    assert means["SEM"] > means["sampling-EM"]
