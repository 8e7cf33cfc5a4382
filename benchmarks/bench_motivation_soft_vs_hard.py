"""Motivation check: soft (EM) versus hard (k-means) stream clustering.

The paper's introduction rests on one claim: k-means-style algorithms
assign each record to exactly one cluster, and "when the cluster
boundaries overlap, this simplified approach may lose significant
amount of useful information".  This bench tests the claim head-on as a
function of cluster overlap:

* generate two-cluster streams whose centre gap shrinks from
  well-separated to heavily overlapping;
* fit the soft model (classical EM, the CluDistream engine) and the
  hard model (streaming divide-and-conquer k-means) on the same data;
* compare holdout density quality and label recovery (ARI).

Shape targets: with wide separation the two are comparable; as overlap
grows, the soft model's advantage in holdout log likelihood appears and
widens, and it never falls behind.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import fast_em, print_header, run_once
from benchmarks.paper.baselines.kmeans import StreamKMeans, StreamKMeansConfig
from benchmarks.paper.evaluation.metrics import adjusted_rand_index
from repro.core.em import fit_em
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture

GAPS = (6.0, 3.0, 2.0, 1.0)  # centre separation in units of σ=1
N_TRAIN = 6000
N_HOLDOUT = 6000


def truth_for(gap: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([-gap / 2.0, 0.0]), 1.0),
            Gaussian.spherical(np.array([gap / 2.0, 0.0]), 1.0),
        ),
    )


def one_gap(gap: float, seed: int) -> dict:
    truth = truth_for(gap)
    rng = np.random.default_rng(seed)
    train, _ = truth.sample(N_TRAIN, rng)
    holdout, labels = truth.sample(N_HOLDOUT, rng)

    em = fit_em(train, fast_em(2), np.random.default_rng(seed + 1))
    km = StreamKMeans(
        2,
        StreamKMeansConfig(k=2, chunk_size=1000, max_centroids=40),
        rng=np.random.default_rng(seed + 2),
    )
    km.process_stream(train)

    return {
        "em_quality": em.mixture.average_log_likelihood(holdout),
        "km_quality": km.as_mixture().average_log_likelihood(holdout),
        "em_ari": adjusted_rand_index(labels, em.mixture.assign(holdout)),
        "km_ari": adjusted_rand_index(labels, km.assign(holdout)),
    }


def motivation() -> dict:
    return {gap: one_gap(gap, seed=100 + int(gap * 10)) for gap in GAPS}


def bench_motivation_soft_vs_hard(benchmark, claims):
    results = run_once(benchmark, motivation)
    claims(
        {
            f"gap={gap}.{key}": value
            for gap, row in results.items()
            for key, value in row.items()
        }
    )
    print_header(
        "Motivation: soft (EM) vs hard (stream k-means) by cluster overlap"
    )
    print(
        f"{'gap/σ':>6}  {'EM quality':>11}  {'KM quality':>11}  "
        f"{'EM ARI':>7}  {'KM ARI':>7}"
    )
    advantages = {}
    for gap, row in results.items():
        advantages[gap] = row["em_quality"] - row["km_quality"]
        print(
            f"{gap:>6}  {row['em_quality']:>11.3f}  {row['km_quality']:>11.3f}  "
            f"{row['em_ari']:>7.3f}  {row['km_ari']:>7.3f}"
        )

    # Soft clustering never loses on density quality...
    assert all(adv > -0.01 for adv in advantages.values())
    # ...and its advantage grows as the clusters overlap.
    assert advantages[1.0] > advantages[6.0]
    assert advantages[1.0] > 0.02
    # With wide separation the two agree (both near-perfect ARI).
    assert results[6.0]["km_ari"] > 0.95
    assert results[6.0]["em_ari"] > 0.95
