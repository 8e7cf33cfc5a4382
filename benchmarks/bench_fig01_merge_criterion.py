"""Figure 1: merge criterion ``M_merge`` versus ``J_merge``.

The paper fits 8 component models, computes both criteria for all 28
component pairs, min-max normalises each, and shows the two curves are
"very similar" on (a) the NFD data and (b) synthetic data.  We
reproduce both panels: fit an 8-component mixture, score every pair
with the data-driven ``J_merge`` and the synopsis-only ``M_merge``, and
report the normalised curves plus their rank agreement.

Shape target: strong positive rank correlation (the paper's conclusion
that ``M_merge`` is "a sufficiently good replacement" for ``J_merge``).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import fast_em, print_header, print_series, run_once
from benchmarks.paper.merging import j_merge, normalize_scores
from repro.core.em import fit_em
from repro.core.merging import m_merge
from repro.streams.base import take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.synthetic import random_mixture

K = 8
N_RECORDS = 4000


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation, implemented inline (no scipy.stats)."""
    rank_a = np.argsort(np.argsort(a))
    rank_b = np.argsort(np.argsort(b))
    return float(np.corrcoef(rank_a, rank_b)[0, 1])


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall rank correlation (tau-a: the scores carry no ties)."""
    i, j = np.triu_indices(len(a), k=1)
    return float(np.mean(np.sign(a[i] - a[j]) * np.sign(b[i] - b[j])))


def one_panel(data: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit K=8 components and score all 28 pairs with both criteria."""
    result = fit_em(data, fast_em(K), np.random.default_rng(seed))
    mixture = result.mixture
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    j_scores = np.array([j_merge(mixture, i, j, data) for i, j in pairs])
    m_scores = np.array(
        [m_merge(mixture.components[i], mixture.components[j]) for i, j in pairs]
    )
    return j_scores, m_scores


def figure1() -> dict:
    results = {}

    # Panel (a): NFD-like net-flow data.
    nfd = take(
        NetflowStreamGenerator(
            NetflowConfig(p_switch=0.0), rng=np.random.default_rng(1)
        ),
        N_RECORDS,
    )
    results["nfd"] = one_panel(nfd, seed=11)

    # Panel (b): synthetic Gaussian data.
    mixture = random_mixture(4, K, np.random.default_rng(2), separation=2.0)
    synthetic, _ = mixture.sample(N_RECORDS, np.random.default_rng(3))
    results["synthetic"] = one_panel(synthetic, seed=12)
    return results


def bench_fig01_merge_criterion(benchmark, claims):
    results = run_once(benchmark, figure1)
    recorded = {}
    for panel, (j_scores, m_scores) in results.items():
        recorded[f"{panel}.j_merge"] = j_scores
        recorded[f"{panel}.m_merge"] = m_scores
        recorded[f"{panel}.spearman"] = spearman(j_scores, m_scores)
        recorded[f"{panel}.kendall_tau"] = kendall_tau(j_scores, m_scores)
    claims(recorded)
    print_header(
        "Figure 1: M_merge vs J_merge over the 28 component pairs (K=8)"
    )
    for panel, (j_scores, m_scores) in results.items():
        order = np.argsort(m_scores)[::-1]
        j_curve = normalize_scores(j_scores[order])
        m_curve = normalize_scores(m_scores[order])
        rho = spearman(j_scores, m_scores)
        print(f"\npanel: {panel}  (pairs sorted by M_merge)")
        print_series("normalised M_merge", range(len(m_curve)), m_curve)
        print_series("normalised J_merge", range(len(j_curve)), j_curve)
        print(f"Spearman rank correlation: {rho:.3f}")
        # Paper shape: the curves track each other.
        assert rho > 0.5, f"criteria disagree on panel {panel} (rho={rho})"
        # The top M_merge pair must also be a top-quartile J_merge pair.
        top_pair = order[0]
        assert (
            np.argsort(np.argsort(j_scores))[top_pair]
            >= len(j_scores) * 0.5
        )
