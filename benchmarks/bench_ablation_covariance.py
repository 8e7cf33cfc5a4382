"""Ablation: full versus diagonal covariance Gaussians.

Theorem 3 notes that diagonal Gaussians shrink the covariance storage
from ``d²`` to ``d`` parameters.  The trade is expressiveness: on data
with correlated attributes the diagonal model fits worse.  This bench
measures both sides -- synopsis payload / site memory, and holdout
quality on correlated versus axis-aligned workloads.

Shape targets: diagonal payloads much smaller (factor ≈ (d²+d+1)/(2d+1));
diagonal quality matches full on axis-aligned data but clearly loses on
strongly correlated data.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header, run_once
from repro.core.em import EMConfig, fit_em
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture

DIM = 4
N_TRAIN = 3000
N_HOLDOUT = 2000


def correlated_mixture() -> GaussianMixture:
    """Two strongly correlated components."""
    base = np.full((DIM, DIM), 0.9) + 0.1 * np.eye(DIM)
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian(np.zeros(DIM), base),
            Gaussian(np.full(DIM, 5.0), base),
        ),
    )


def axis_aligned_mixture() -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian(np.zeros(DIM), np.diag([1.0, 0.5, 2.0, 0.8])),
            Gaussian(np.full(DIM, 5.0), np.diag([0.7, 1.2, 0.4, 1.5])),
        ),
    )


def fit_and_score(truth: GaussianMixture, diagonal: bool) -> float:
    rng = np.random.default_rng(11)
    train, _ = truth.sample(N_TRAIN, rng)
    holdout, _ = truth.sample(N_HOLDOUT, rng)
    config = EMConfig(n_components=2, n_init=2, max_iter=60, diagonal=diagonal)
    result = fit_em(train, config, np.random.default_rng(12))
    return result.mixture.average_log_likelihood(holdout)


def ablation() -> dict:
    qualities = {
        "correlated": {
            "full": fit_and_score(correlated_mixture(), diagonal=False),
            "diagonal": fit_and_score(correlated_mixture(), diagonal=True),
        },
        "axis-aligned": {
            "full": fit_and_score(axis_aligned_mixture(), diagonal=False),
            "diagonal": fit_and_score(axis_aligned_mixture(), diagonal=True),
        },
    }
    payloads = {
        "full": GaussianMixture(
            np.ones(5) / 5,
            tuple(Gaussian.spherical(np.zeros(DIM), 1.0) for _ in range(5)),
        ).payload_bytes(),
        "diagonal": GaussianMixture(
            np.ones(5) / 5,
            tuple(
                Gaussian.spherical(np.zeros(DIM), 1.0, diagonal=True)
                for _ in range(5)
            ),
        ).payload_bytes(),
    }
    return {"qualities": qualities, "payloads": payloads}


def bench_ablation_covariance(benchmark, claims):
    results = run_once(benchmark, ablation)
    claims(
        {
            **{
                f"payload_bytes.{name}": value
                for name, value in results["payloads"].items()
            },
            **{
                f"quality.{workload}.{name}": value
                for workload, row in results["qualities"].items()
                for name, value in row.items()
            },
        }
    )
    print_header("Ablation: full vs diagonal covariance")
    payloads = results["payloads"]
    print(
        f"synopsis payload (K=5, d={DIM}): full={payloads['full']} B, "
        f"diagonal={payloads['diagonal']} B "
        f"({payloads['full'] / payloads['diagonal']:.2f}x)"
    )
    for workload, row in results["qualities"].items():
        print(
            f"{workload:>14}: full={row['full']:.3f}  "
            f"diagonal={row['diagonal']:.3f}"
        )

    # Payload ratio follows Theorem 3's parameter counts.
    expected = (DIM * DIM + DIM + 1) / (2 * DIM + 1)
    assert payloads["full"] / payloads["diagonal"] == expected

    qualities = results["qualities"]
    # Correlated data: the diagonal restriction costs real likelihood.
    assert (
        qualities["correlated"]["full"]
        > qualities["correlated"]["diagonal"] + 0.3
    )
    # Axis-aligned data: nothing to lose.
    assert (
        abs(
            qualities["axis-aligned"]["full"]
            - qualities["axis-aligned"]["diagonal"]
        )
        < 0.2
    )
