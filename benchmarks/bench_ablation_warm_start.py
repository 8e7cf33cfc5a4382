"""Ablation: two ways to warm-start EM -- one pays, one does not.

Algorithm 1 re-clusters a failing chunk with EM.  There are two ways to
let the failing current model help:

* ``RemoteSiteConfig.warm_start`` -- refine the old model as an *extra
  candidate* next to the cold k-means++ restart and keep the better
  fit.  Measured on a drifting workload the cold start matches or beats
  the warm refinement on every re-clustering (the chosen models are
  bit-identical), so the extra candidate adds a full EM run per
  re-clustering for nothing.  That result is why the flag defaults to
  off.

* ``EMConfig.incremental`` -- the refit ladder (DESIGN section 14):
  failing chunks first try a few *stepwise* EM updates on the current
  model's sufficient statistics and fall back to the cold restart only
  when the warm fit flunks the epsilon test; passing chunks are
  absorbed into the suffstats instead of being discarded.  The warm
  work here is a handful of O(nK) updates, not a full extra EM run, so
  it displaces cold refits instead of duplicating them.

Shape targets: the candidate variant is bit-identical to cold and
measurably slower (the old negative result still holds); the ladder
variant resolves most refits without a cold restart and stays within
tolerance of the cold model's holdout quality.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from benchmarks.conftest import make_site_config, print_header, run_once
from benchmarks.paper.evaluation.metrics import matched_mean_error
from repro.core.remote import RemoteSite
from repro.streams.base import take
from repro.streams.drift import DriftConfig, DriftingGaussianStream

TOTAL = 10_000
CHUNK = 500
DIM = 4
K = 5

#: Max acceptable holdout log-likelihood gap, ladder vs cold (nats).
QUALITY_TOLERANCE = 0.5


def run_variant(
    data, truth_stream, *, warm_start: bool = False, incremental: bool = False
) -> dict:
    config = make_site_config(dim=DIM, k=K, chunk=CHUNK)
    config = dataclasses.replace(
        config,
        warm_start=warm_start,
        em=dataclasses.replace(config.em, incremental=incremental),
    )
    site = RemoteSite(0, config, rng=np.random.default_rng(11))
    start = time.perf_counter()
    site.process_stream(data)
    elapsed = time.perf_counter() - start
    current_truth = truth_stream.mixture_at(TOTAL)
    holdout, _ = current_truth.sample(2000, np.random.default_rng(12))
    fitted = site.current_model.mixture
    return {
        "seconds": elapsed,
        "quality": fitted.average_log_likelihood(holdout),
        "mean_error": matched_mean_error(fitted, current_truth),
        "em_runs": site.stats.n_clusterings,
        "warm_refits": site.stats.n_warm_refits,
        "cold_refits": site.stats.n_cold_refits,
        "absorbed": site.stats.n_absorbed,
        "model": fitted,
    }


def ablation() -> dict:
    stream = DriftingGaussianStream(
        DriftConfig(
            dim=DIM,
            n_components=K,
            drift_per_record=0.0005,
            separation=5.0,
        ),
        rng=np.random.default_rng(10),
    )
    data = take(stream, TOTAL)
    # The candidate variant runs first so the cold reference does not
    # absorb the process-wide warmup (BLAS thread pools, allocator);
    # the timing assertion compares candidate against cold.
    return {
        "candidate": run_variant(data, stream, warm_start=True),
        "cold": run_variant(data, stream),
        "ladder": run_variant(data, stream, incremental=True),
    }


def bench_ablation_warm_start(benchmark, claims):
    results = run_once(benchmark, ablation)
    claims(
        {
            f"{name}.{key}": row[key]
            for name, row in results.items()
            for key in (
                "quality",
                "mean_error",
                "em_runs",
                "warm_refits",
                "cold_refits",
                "absorbed",
            )
        }
    )
    print_header("Ablation: warm-start strategies under gradual drift")
    print(
        f"{'variant':>10}  {'time (s)':>9}  {'quality':>9}  "
        f"{'mean err':>9}  {'EM runs':>8}  {'warm':>5}  {'cold':>5}  "
        f"{'absorbed':>8}"
    )
    for name, row in results.items():
        print(
            f"{name:>10}  {row['seconds']:>9.3f}  {row['quality']:>9.3f}  "
            f"{row['mean_error']:>9.3f}  {row['em_runs']:>8}  "
            f"{row['warm_refits']:>5}  {row['cold_refits']:>5}  "
            f"{row['absorbed']:>8}"
        )

    cold = results["cold"]
    candidate = results["candidate"]
    ladder = results["ladder"]
    # The drift forced real work...
    assert cold["em_runs"] >= 3
    # ...on which the extra-candidate warm start never won: identical
    # outcomes at strictly higher cost (the old negative result).
    assert candidate["model"] == cold["model"]
    assert candidate["em_runs"] == cold["em_runs"]
    assert candidate["quality"] == cold["quality"]
    assert candidate["seconds"] > cold["seconds"]
    # The ladder is the warm start that pays: most failed fit tests
    # resolve on the warm rung (no cold restart), passing chunks feed
    # the suffstats, and holdout quality stays within tolerance.
    assert ladder["warm_refits"] > 0
    assert ladder["warm_refits"] >= ladder["cold_refits"]
    assert ladder["absorbed"] > 0
    assert ladder["quality"] >= cold["quality"] - QUALITY_TOLERANCE
