"""Ablation: mixture-likelihood versus max-component fit statistic.

The proof of Theorem 2 "sharpens" the average-log-likelihood test by
replacing each record's mixture probability with its maximal weighted
component probability.  Both variants are implemented
(:class:`repro.core.testing.LikelihoodVariant`); this bench compares
their discrimination power: the gap in the ``J_fit`` statistic between
same-distribution and changed-distribution chunks.

Shape targets: both variants separate same from changed cleanly (the
changed-chunk statistic is an order of magnitude above the same-chunk
one); their same-distribution statistics agree closely on
well-separated clusters (the regime where the sharpening is exact).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_header, run_once
from repro.core.testing import LikelihoodVariant, average_log_likelihood
from repro.streams.synthetic import random_mixture

CHUNK = 1000
DIM = 4
N_TRIALS = 10


def ablation() -> dict:
    rng = np.random.default_rng(1)
    truth = random_mixture(DIM, 5, rng, separation=4.0)
    train, _ = truth.sample(CHUNK, rng)
    stats: dict[str, dict[str, list[float]]] = {
        variant.value: {"same": [], "changed": []}
        for variant in LikelihoodVariant
    }
    for variant in LikelihoodVariant:
        reference = average_log_likelihood(truth, train, variant)
        for _ in range(N_TRIALS):
            same, _ = truth.sample(CHUNK, rng)
            changed = same + 12.0
            stats[variant.value]["same"].append(
                abs(average_log_likelihood(truth, same, variant) - reference)
            )
            stats[variant.value]["changed"].append(
                abs(
                    average_log_likelihood(truth, changed, variant)
                    - reference
                )
            )
    return stats


def bench_ablation_test_variant(benchmark, claims):
    stats = run_once(benchmark, ablation)
    claims(
        {
            f"{variant}.{kind}": values
            for variant, rows in stats.items()
            for kind, values in rows.items()
        }
    )
    print_header("Ablation: J_fit statistic, mixture vs max-component")
    summaries = {}
    for variant, rows in stats.items():
        same = float(np.mean(rows["same"]))
        changed = float(np.mean(rows["changed"]))
        summaries[variant] = (same, changed)
        print(
            f"{variant:>14}: mean J_fit same={same:.4f}  "
            f"changed={changed:.2f}  separation={changed / max(same, 1e-9):.0f}x"
        )

    for variant, (same, changed) in summaries.items():
        assert changed > 10.0 * same, f"{variant} separates poorly"
    # Sharpened and full statistics agree on separated clusters.
    mixture_same = summaries[LikelihoodVariant.MIXTURE.value][0]
    sharp_same = summaries[LikelihoodVariant.MAX_COMPONENT.value][0]
    assert abs(mixture_same - sharp_same) < 0.05
