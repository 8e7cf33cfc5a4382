"""Tests for BIC-based component selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.selection import (
    bic_score,
    mixture_free_parameters,
    select_k,
)


def blobs(k: int, n: int, seed: int, gap: float = 8.0) -> GaussianMixture:
    centers = [np.array([gap * i, 0.0]) for i in range(k)]
    return GaussianMixture(
        np.full(k, 1.0 / k),
        tuple(Gaussian.spherical(center, 0.4) for center in centers),
    )


class TestFreeParameters:
    def test_full_covariance_count(self):
        # K=3, d=2: 2 weights + 6 means + 3*3 covariance values.
        assert mixture_free_parameters(3, 2) == 2 + 6 + 9

    def test_diagonal_count(self):
        assert mixture_free_parameters(3, 2, diagonal=True) == 2 + 6 + 6

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            mixture_free_parameters(0, 2)


class TestSelectK:
    def run_selection(self, true_k: int, seed: int = 0):
        truth = blobs(true_k, 0, seed)
        data, _ = truth.sample(1500, np.random.default_rng(seed))
        return select_k(
            data,
            (1, 6),
            EMConfig(n_components=1, n_init=2, max_iter=50, tol=1e-3),
            np.random.default_rng(seed + 1),
        )

    @pytest.mark.parametrize("true_k", [1, 2, 3, 4])
    def test_recovers_the_true_component_count(self, true_k):
        result = self.run_selection(true_k)
        assert result.best_k == true_k

    def test_scores_cover_the_whole_range(self):
        result = self.run_selection(2)
        assert sorted(result.scores) == [1, 2, 3, 4, 5, 6]

    def test_best_has_the_minimal_score(self):
        result = self.run_selection(3)
        assert result.scores[result.best_k] == min(result.scores.values())

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="k_range"):
            select_k(np.zeros((100, 2)), (3, 2))

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError, match="more than"):
            select_k(np.zeros((5, 2)), (1, 5))

    def test_bic_penalises_parameters(self):
        result = self.run_selection(1)
        # K=6 over-fits single-blob data: its BIC must exceed K=1's.
        assert result.scores[6] > result.scores[1]

    def test_bic_score_validation(self):
        result = self.run_selection(1)
        with pytest.raises(ValueError, match="n must"):
            bic_score(result.best, 0, 2, False)
