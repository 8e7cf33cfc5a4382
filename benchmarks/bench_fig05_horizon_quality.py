"""Figure 5: cluster quality in a horizon at different time points.

The paper streams evolving synthetic data into one remote site and
plots the average log likelihood of the model of the *current horizon*
at successive time points, for CluDistream and SEM.  CluDistream wins
because it keeps one model per distribution while SEM blends every
distribution the stream has visited into a single model.

Shape target: CluDistream's horizon quality beats SEM's at (almost)
every checkpoint after the first distribution change, and on average.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    make_site_config,
    fast_em,
    print_header,
    run_once,
)
from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from benchmarks.paper.evaluation.quality import QualitySeries
from repro.core.remote import RemoteSite
from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)
from repro.windows.horizon import horizon_mixture

CHUNK = 500
HORIZON = 2000
SEGMENT = 2000
TOTAL = 12_000
CHECK_EVERY = 2000


def figure5() -> QualitySeries:
    stream = EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=4,
            n_components=5,
            segment_length=SEGMENT,
            p_new_distribution=0.5,
            separation=4.0,
        ),
        rng=np.random.default_rng(77),
    )
    data = take(stream, TOTAL)

    site = RemoteSite(
        0, make_site_config(dim=4, chunk=CHUNK), rng=np.random.default_rng(1)
    )
    sem = ScalableEM(
        4,
        SEMConfig(n_components=5, buffer_size=CHUNK, em=fast_em()),
        rng=np.random.default_rng(2),
    )

    series = QualitySeries()
    holdout_rng = np.random.default_rng(3)
    for start in range(0, TOTAL, CHECK_EVERY):
        block = data[start : start + CHECK_EVERY]
        for row in block:
            site.process_record(row)
            sem.process_record(row)
        position = start + CHECK_EVERY
        # Fresh holdout from the distribution currently generating data.
        current_truth = stream.segment_at(position - 1).mixture
        holdout, _ = current_truth.sample(1500, holdout_rng)
        series.record(
            "CluDistream",
            position,
            horizon_mixture(site, HORIZON).average_log_likelihood(holdout),
        )
        series.record(
            "SEM",
            position,
            sem.current_model().average_log_likelihood(holdout),
        )
    return series


def bench_fig05_horizon_quality(benchmark, claims):
    series = run_once(benchmark, figure5)
    positions, clu = series.series("CluDistream")
    _, sem = series.series("SEM")
    claims(
        {
            "positions": positions,
            "cludistream_quality": clu,
            "sem_quality": sem,
            "cludistream_wins": series.wins("CluDistream", "SEM"),
        }
    )
    print_header(
        "Figure 5: average log likelihood of the horizon model over time"
    )
    print(f"{'updates':>10}  {'CluDistream':>12}  {'SEM':>12}")
    for position, a, b in zip(positions, clu, sem):
        print(f"{position:>10}  {a:>12.3f}  {b:>12.3f}")
    print(
        f"{'mean':>10}  {np.mean(clu):>12.3f}  {np.mean(sem):>12.3f}"
    )

    # Shape: CluDistream clearly outperforms SEM on evolving data.
    assert series.mean_quality("CluDistream") > series.mean_quality("SEM")
    assert series.wins("CluDistream", "SEM") >= 0.6
