"""Figure 9: processing time versus cluster number K and dimension d.

The paper generates synthetic data sets varying (a) the cluster number
``K`` from 10 to 40 at fixed ``d`` and updates, and (b) the dimension
``d`` from 10 to 40 at fixed ``K``, showing CluDistream's processing
time is linear in both.

Shape targets: time increases monotonically along each sweep and stays
near-linear (time at 4x parameter under ~12x of time at 1x -- EM is
O(nKd²) per iteration, so exact linearity in d is not expected for the
full-covariance variant the paper plots; diagonal covariance is the
``d``-linear regime, and that is what we sweep for panel (b)).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header, print_series, run_once, site_claims
from benchmarks.paper.evaluation.timing import measure_throughput
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

UPDATES = 3000
CHUNK = 500
K_SWEEP = (5, 10, 20)
D_SWEEP = (4, 8, 16)


def run_sweep(ks, ds) -> tuple[list[float], dict]:
    """Wall-clock seconds per (K, d) point, and the runs' counters."""
    times = []
    counters = {}
    for k, d in zip(ks, ds):
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=d,
                n_components=k,
                segment_length=2000,
                p_new_distribution=0.1,
                diagonal=True,
            ),
            rng=np.random.default_rng(10 + k + d),
        )
        data = take(stream, UPDATES)
        site = RemoteSite(
            0,
            RemoteSiteConfig(
                dim=d,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(
                    n_components=k,
                    n_init=1,
                    max_iter=30,
                    tol=1e-3,
                    diagonal=True,
                ),
                chunk_override=CHUNK,
            ),
            rng=np.random.default_rng(20 + k + d),
        )
        result = measure_throughput(
            site.process_record, iter(data), max_records=UPDATES
        )
        times.append(result.seconds)
        counters.update(site_claims(f"k={k}.d={d}", site))
    return times, counters


def figure9() -> dict:
    return {
        "vary_k": run_sweep(K_SWEEP, [4] * len(K_SWEEP)),
        "vary_d": run_sweep([5] * len(D_SWEEP), D_SWEEP),
    }


def bench_fig09_time_k_d(benchmark, claims):
    sweeps = run_once(benchmark, figure9)
    claims(
        {
            f"{label}.{key}": value
            for label, (_, counters) in sweeps.items()
            for key, value in counters.items()
        }
    )
    results = {label: times for label, (times, _) in sweeps.items()}
    print_header("Figure 9: processing time (s) vs K and vs d")
    print_series("vary K (d=4)", K_SWEEP, results["vary_k"], "10.4f")
    print_series("vary d (K=5)", D_SWEEP, results["vary_d"], "10.4f")

    for label, sweep, times in (
        ("K", K_SWEEP, results["vary_k"]),
        ("d", D_SWEEP, results["vary_d"]),
    ):
        # Monotone-ish growth (allow small wall-clock jitter).
        assert times[-1] > times[0] * 0.8, f"no growth along {label}"
        # Near-linear: 4x the parameter costs well under 12x the time.
        factor = times[-1] / max(times[0], 1e-4)
        scale = sweep[-1] / sweep[0]
        print(f"{label}: {scale:.0f}x parameter -> {factor:.1f}x time")
        assert factor < 3.0 * scale
