"""Figure 7: cluster quality at the coordinator versus centralized SEM.

The paper runs CluDistream distributed (r sites + coordinator) and, for
comparison, applies SEM to *all* updates in a centralized environment.
CluDistream's coordinator model still wins: (a) NFD-like data in a
small horizon, (b) synthetic data in a larger horizon.

Shape target: the coordinator's global mixture scores at least as well
as centralized SEM on fresh holdout data from the currently active
distributions.
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
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.streams.base import interleave, take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

N_SITES = 4
RECORDS_PER_SITE = 6000
CHUNK = 500


def run_panel(make_stream, dim: int, holdout_of) -> dict:
    """Run CluDistream distributed and SEM centralized on equal data."""
    streams = {i: list(make_stream(i)) for i in range(N_SITES)}

    system = CluDistream(
        CluDistreamConfig(
            n_sites=N_SITES,
            site=make_site_config(dim=dim, chunk=CHUNK),
            coordinator=CoordinatorConfig(
                max_components=8, merge_method="moment"
            ),
        ),
        seed=0,
    )
    system.feed_streams(streams, max_records_per_site=RECORDS_PER_SITE)

    sem = ScalableEM(
        dim,
        SEMConfig(n_components=5, buffer_size=CHUNK, em=fast_em()),
        rng=np.random.default_rng(9),
    )
    sem.process_stream(interleave([streams[i] for i in range(N_SITES)]))

    holdout = holdout_of()
    return {
        "CluDistream (coordinator)": system.global_mixture().average_log_likelihood(
            holdout
        ),
        "SEM (centralized)": sem.current_model().average_log_likelihood(
            holdout
        ),
    }


def figure7() -> dict:
    results = {}

    # Panel (a): NFD-like net-flow streams.
    nfd_generators = {}

    def nfd_stream(i: int):
        generator = NetflowStreamGenerator(
            NetflowConfig(segment_length=2000, p_switch=0.1),
            rng=np.random.default_rng(400 + i),
        )
        nfd_generators[i] = generator
        return take(generator, RECORDS_PER_SITE)

    def nfd_holdout():
        return np.vstack(
            [nfd_generators[i].snapshot(500) for i in range(N_SITES)]
        )

    results["nfd"] = run_panel(nfd_stream, dim=6, holdout_of=nfd_holdout)

    # Panel (b): synthetic evolving streams.
    synthetic_streams = {}

    def synthetic_stream(i: int):
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=4,
                n_components=5,
                segment_length=2000,
                p_new_distribution=0.4,
                separation=4.0,
            ),
            rng=np.random.default_rng(500 + i),
        )
        synthetic_streams[i] = stream
        return take(stream, RECORDS_PER_SITE)

    def synthetic_holdout():
        rng = np.random.default_rng(6)
        blocks = [
            synthetic_streams[i].segments[-1].mixture.sample(500, rng)[0]
            for i in range(N_SITES)
        ]
        return np.vstack(blocks)

    results["synthetic"] = run_panel(
        synthetic_stream, dim=4, holdout_of=synthetic_holdout
    )
    return results


def bench_fig07_coordinator_quality(benchmark, claims):
    results = run_once(benchmark, figure7)
    claims(
        {
            f"{panel}.{name}": value
            for panel, qualities in results.items()
            for name, value in qualities.items()
        }
    )
    print_header("Figure 7: coordinator quality vs centralized SEM")
    for panel, qualities in results.items():
        print(f"\npanel: {panel}")
        for name, value in qualities.items():
            print(f"  {name:>26}: {value:10.3f}")
        assert (
            qualities["CluDistream (coordinator)"]
            > qualities["SEM (centralized)"] - 0.1
        ), f"coordinator lost clearly on panel {panel}"
    # On the evolving synthetic panel the win should be strict.
    synthetic = results["synthetic"]
    assert (
        synthetic["CluDistream (coordinator)"]
        > synthetic["SEM (centralized)"]
    )
