"""Figure 2: communication cost, CluDistream versus periodic SEM reporting.

Panel (a): NFD-like streams on r sites -- CluDistream's cumulative
uplink bytes grow much slower than the DBDC-style strategy of
periodically shipping each site's SEM model, "especially after a number
of updates when the model has learned the distribution".

Panel (b): synthetic streams -- same comparison, and additionally the
CluDistream cost grows as ``P_d`` rises from 0.1 to 0.5 while staying
below the periodic baseline.

Shape targets: periodic/CluDistream byte ratio well above 1 in both
panels; CluDistream bytes monotone-ish in ``P_d``; the CluDistream
curve flattens (late increments smaller than early ones) while the
periodic curve stays linear.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    make_site_config,
    fast_em,
    print_header,
    print_series,
    run_once,
)
from benchmarks.paper.baselines.periodic import PeriodicReporterConfig
from benchmarks.paper.baselines.sem import SEMConfig
from benchmarks.paper.evaluation.comm import compare_communication
from repro.streams.base import take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

N_SITES = 4
RECORDS_PER_SITE = 8000
CHUNK = 500


def periodic_config() -> PeriodicReporterConfig:
    return PeriodicReporterConfig(
        period=CHUNK,
        sem=SEMConfig(n_components=5, buffer_size=CHUNK, em=fast_em()),
    )


def netflow_streams(seed: int):
    return {
        i: take(
            NetflowStreamGenerator(
                NetflowConfig(segment_length=2000, p_switch=0.1),
                rng=np.random.default_rng(seed + i),
            ),
            RECORDS_PER_SITE,
        )
        for i in range(N_SITES)
    }


def synthetic_streams_factory(p_d: float):
    def factory(seed: int):
        return {
            i: take(
                EvolvingGaussianStream(
                    EvolvingStreamConfig(
                        dim=4,
                        n_components=5,
                        segment_length=2000,
                        p_new_distribution=p_d,
                    ),
                    rng=np.random.default_rng(seed + 31 * i),
                ),
                RECORDS_PER_SITE,
            )
            for i in range(N_SITES)
        }

    return factory


def figure2() -> dict:
    site = make_site_config(dim=4, chunk=CHUNK)
    netflow_site = make_site_config(dim=6, chunk=CHUNK)
    results = {}
    results["nfd"] = compare_communication(
        netflow_streams,
        n_sites=N_SITES,
        records_per_site=RECORDS_PER_SITE,
        site_config=netflow_site,
        periodic_config=periodic_config(),
        sample_every=1000,
        seed=100,
    )
    for p_d in (0.1, 0.3, 0.5):
        results[f"synthetic_pd={p_d}"] = compare_communication(
            synthetic_streams_factory(p_d),
            n_sites=N_SITES,
            records_per_site=RECORDS_PER_SITE,
            site_config=site,
            periodic_config=periodic_config(),
            sample_every=1000,
            seed=200,
        )
    return results


def bench_fig02_communication(benchmark, claims):
    results = run_once(benchmark, figure2)
    recorded = {}
    for panel, comparison in results.items():
        recorded[f"{panel}.cludistream_bytes"] = comparison.cludistream_bytes
        recorded[f"{panel}.periodic_bytes"] = comparison.periodic_bytes
        recorded[f"{panel}.ratio"] = comparison.ratio
        recorded[f"{panel}.cludistream_series"] = comparison.cludistream_series
        recorded[f"{panel}.periodic_series"] = comparison.periodic_series
        recorded[f"{panel}.positions"] = comparison.positions
    claims(recorded)
    print_header("Figure 2: cumulative communication cost (bytes)")
    for panel, comparison in results.items():
        print(f"\npanel: {panel}")
        print_series(
            "CluDistream",
            comparison.positions,
            comparison.cludistream_series,
            fmt="10.0f",
        )
        print_series(
            "periodic SEM",
            comparison.positions,
            comparison.periodic_series,
            fmt="10.0f",
        )
        print(
            f"totals: CluDistream={comparison.cludistream_bytes} B, "
            f"periodic={comparison.periodic_bytes} B, "
            f"ratio={comparison.ratio:.1f}x"
        )

    # Shape: CluDistream wins clearly on both workloads.
    assert results["nfd"].ratio > 2.0
    assert results["synthetic_pd=0.1"].ratio > 2.0

    # Shape: the CluDistream curve flattens after learning -- the second
    # half of the run adds fewer bytes than the first half.
    stable = results["synthetic_pd=0.1"].cludistream_series
    half = len(stable) // 2
    early = stable[half - 1]
    late = stable[-1] - stable[half - 1]
    assert late <= early

    # Shape: cost grows with P_d but stays below the periodic baseline.
    by_pd = [
        results[f"synthetic_pd={p}"].cludistream_bytes for p in (0.1, 0.3, 0.5)
    ]
    assert by_pd[0] < by_pd[2]
    for p in (0.1, 0.3, 0.5):
        comparison = results[f"synthetic_pd={p}"]
        assert comparison.cludistream_bytes < comparison.periodic_bytes
