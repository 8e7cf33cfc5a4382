"""Automatic selection of the component count K.

The paper fixes ``K`` per experiment but explicitly allows "any number
of distributions which can be potentially different on individual
nodes" -- it never says how a node should *choose* its ``K``.  This
module supplies the standard answer: fit candidate ``K`` values and
pick the one minimising the Bayesian Information Criterion::

    BIC(K) = -2 · L(K) + p(K) · ln(n)

where ``L`` is the total data log likelihood and ``p`` the number of
free parameters (``K-1`` weights, ``K·d`` means, ``K·d(d+1)/2`` or
``K·d`` covariance values).

:func:`select_k` sweeps a ``(k_min, k_max)`` range on one chunk and
returns the BIC winner, so a caller can size a site's ``K`` to its data
(``EMConfig(n_components=...)``): a chunk with three real clusters gets
a three-component model even when a neighbouring site needed seven.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.em import EMConfig, EMResult, fit_em

__all__ = ["KSelectionResult", "bic_score", "mixture_free_parameters", "select_k"]


def mixture_free_parameters(k: int, dim: int, diagonal: bool = False) -> int:
    """Free parameters of a ``K``-component, ``d``-dim Gaussian mixture.

    ``K - 1`` independent weights, ``K·d`` means, plus covariance
    parameters (``d`` per component when diagonal, ``d(d+1)/2`` for the
    symmetric full matrix).
    """
    if k < 1 or dim < 1:
        raise ValueError("k and dim must be positive")
    cov = dim if diagonal else dim * (dim + 1) // 2
    return (k - 1) + k * dim + k * cov


def bic_score(result: EMResult, n: int, dim: int, diagonal: bool) -> float:
    """BIC of a fitted mixture (lower is better)."""
    if n < 1:
        raise ValueError("n must be positive")
    k = result.mixture.n_components
    total_log_likelihood = result.log_likelihood * n
    penalty = mixture_free_parameters(k, dim, diagonal) * np.log(n)
    return float(-2.0 * total_log_likelihood + penalty)


@dataclass(frozen=True)
class KSelectionResult:
    """Outcome of a ``K`` sweep.

    Attributes
    ----------
    best:
        The winning EM fit.
    best_k:
        Its component count.
    scores:
        ``{k: BIC}`` over the sweep (for diagnostics and tests).
    """

    best: EMResult
    best_k: int
    scores: dict[int, float]


def select_k(
    data: np.ndarray,
    k_range: tuple[int, int],
    config: EMConfig | None = None,
    rng: np.random.Generator | None = None,
) -> KSelectionResult:
    """Fit every ``K`` in ``k_range`` (inclusive) and keep the BIC winner.

    Parameters
    ----------
    data:
        Records of shape ``(n, d)``.
    k_range:
        Inclusive ``(k_min, k_max)`` sweep bounds.
    config:
        Template EM settings; ``n_components`` is overridden per
        candidate.
    rng:
        Randomness shared across candidates.

    Returns
    -------
    KSelectionResult
    """
    k_min, k_max = k_range
    if k_min < 1 or k_max < k_min:
        raise ValueError("k_range must satisfy 1 <= k_min <= k_max")
    config = config or EMConfig()
    rng = rng if rng is not None else np.random.default_rng()
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, dim = data.shape
    if n <= k_max:
        raise ValueError(f"need more than k_max={k_max} records, got {n}")

    from dataclasses import replace

    scores: dict[int, float] = {}
    best: EMResult | None = None
    best_k = k_min
    best_score = np.inf
    for k in range(k_min, k_max + 1):
        candidate_config = replace(config, n_components=k)
        result = fit_em(data, candidate_config, rng)
        score = bic_score(result, n, dim, config.diagonal)
        scores[k] = score
        if score < best_score:
            best, best_k, best_score = result, k, score
    assert best is not None
    return KSelectionResult(best=best, best_k=best_k, scores=scores)
