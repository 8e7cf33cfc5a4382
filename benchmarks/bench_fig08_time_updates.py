"""Figure 8: processing time versus updates, CluDistream versus SEM.

The paper shows both algorithms' processing time grows linearly as the
stream proceeds, with CluDistream clearly faster (>1000 updates/s vs
SEM's <400 on their hardware).  We time both consumers over increasing
update counts on (a) NFD-like and (b) synthetic streams.

Shape targets: both roughly linear in updates (time at 4x updates stays
within ~8x of time at 1x -- generous bounds for wall-clock noise), and
CluDistream faster than SEM on every workload.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    fast_em,
    make_site_config,
    print_header,
    print_series,
    run_once,
    site_claims,
)
from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from benchmarks.paper.evaluation.timing import measure_throughput
from repro.core.remote import RemoteSite
from repro.streams.base import take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

CHUNK = 500
UPDATE_COUNTS = (2000, 4000, 8000)


def data_for(panel: str, n: int) -> np.ndarray:
    if panel == "nfd":
        return take(
            NetflowStreamGenerator(
                NetflowConfig(segment_length=2000, p_switch=0.1),
                rng=np.random.default_rng(1),
            ),
            n,
        )
    stream = EvolvingGaussianStream(
        EvolvingStreamConfig(
            dim=4, n_components=5, segment_length=2000, p_new_distribution=0.1
        ),
        rng=np.random.default_rng(2),
    )
    return take(stream, n)


def time_algorithms(panel: str, dim: int) -> tuple[dict, dict]:
    """Wall-clock seconds per update count, and the runs' counters."""
    times = {"CluDistream": [], "SEM": []}
    counters = {}
    data = data_for(panel, max(UPDATE_COUNTS))
    for n in UPDATE_COUNTS:
        site = RemoteSite(
            0,
            make_site_config(dim=dim, chunk=CHUNK),
            rng=np.random.default_rng(3),
        )
        result = measure_throughput(
            site.process_record, iter(data[:n]), max_records=n
        )
        times["CluDistream"].append(result.seconds)
        counters.update(site_claims(f"{panel}.n={n}.site", site))

        sem = ScalableEM(
            dim,
            SEMConfig(n_components=5, buffer_size=CHUNK, em=fast_em()),
            rng=np.random.default_rng(4),
        )
        result = measure_throughput(
            sem.process_record, iter(data[:n]), max_records=n
        )
        times["SEM"].append(result.seconds)
        counters[f"{panel}.n={n}.sem.refits"] = sem.refits
        counters[f"{panel}.n={n}.sem.memory_bytes"] = sem.memory_bytes()
    return times, counters


def figure8() -> dict:
    return {
        "nfd": time_algorithms("nfd", dim=6),
        "synthetic": time_algorithms("synthetic", dim=4),
    }


def bench_fig08_time_updates(benchmark, claims):
    results = run_once(benchmark, figure8)
    claims({k: v for _, counters in results.values() for k, v in counters.items()})
    print_header("Figure 8: processing time (s) vs updates")
    for panel, (times, _) in results.items():
        print(f"\npanel: {panel}")
        print_series("CluDistream", UPDATE_COUNTS, times["CluDistream"], "10.4f")
        print_series("SEM", UPDATE_COUNTS, times["SEM"], "10.4f")
        clu = times["CluDistream"]
        sem = times["SEM"]
        # CluDistream faster than SEM at the full workload.
        assert clu[-1] < sem[-1], f"CluDistream slower than SEM on {panel}"
        # Roughly linear growth: 4x updates should cost well under 16x.
        assert clu[-1] < 8.0 * max(clu[0], 1e-4)
        assert sem[-1] < 8.0 * max(sem[0], 1e-4)
        rate = UPDATE_COUNTS[-1] / clu[-1]
        print(f"CluDistream throughput: {rate:,.0f} updates/s")
