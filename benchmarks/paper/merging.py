"""The Figure 1 merge-criterion comparison's two helpers.

SMEM's data-driven criterion ``J_merge(i, j) = Σ_x Pr(i|x) Pr(j|x)``
needs raw records, so the coordinator never uses it: it ranks pairs by
the synopsis-only ``M_merge`` of :mod:`repro.core.merging`.  Figure 1
compares the two rankings after min-max normalisation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.mixture import GaussianMixture

__all__ = ["j_merge", "normalize_scores"]


def j_merge(
    mixture: GaussianMixture, i: int, j: int, data: np.ndarray
) -> float:
    """SMEM's data-driven criterion ``Σ_x Pr(i|x) Pr(j|x)``.

    Needs raw records, so the coordinator never uses it in production;
    it exists as the reference for the Figure 1 comparison.
    """
    if i == j:
        raise ValueError("j_merge is defined for distinct components")
    posterior = mixture.posterior(data)
    return float(np.sum(posterior[:, i] * posterior[:, j]))


def normalize_scores(scores: Sequence[float]) -> np.ndarray:
    """Min-max normalisation used in the Figure 1 comparison.

    ``(s - min) / (max - min)``; a constant score list maps to zeros.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalise an empty score list")
    span = float(arr.max() - arr.min())
    if span <= 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span
