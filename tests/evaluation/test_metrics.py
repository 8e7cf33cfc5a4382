"""Tests for the cluster-recovery metrics."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.evaluation.metrics import (
    adjusted_rand_index,
    matched_mean_error,
    weight_recovery_error,
)
from repro.core.em import EMConfig, fit_em
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture


class TestAdjustedRandIndex:
    def test_identical_partitions_score_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_score_one(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_random_labels_score_near_zero(self, rng):
        a = rng.integers(4, size=5000)
        b = rng.integers(4, size=5000)
        assert abs(adjusted_rand_index(a, b)) < 0.02

    def test_partial_agreement_in_between(self):
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 1, 1])
        score = adjusted_rand_index(a, b)
        assert 0.0 < score < 1.0

    def test_single_cluster_vs_single_cluster(self):
        assert adjusted_rand_index(np.zeros(10), np.ones(10)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            adjusted_rand_index(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="empty"):
            adjusted_rand_index(np.array([]), np.array([]))

    def test_em_recovery_scored_by_ari(self, rng):
        truth = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([-5.0, 0.0]), 0.5),
                Gaussian.spherical(np.array([5.0, 0.0]), 0.5),
            ),
        )
        data, labels = truth.sample(1000, rng)
        result = fit_em(data, EMConfig(n_components=2, n_init=2), rng)
        predicted = result.mixture.assign(data)
        assert adjusted_rand_index(labels, predicted) > 0.95


class TestMeanMatching:
    def truth(self) -> GaussianMixture:
        return GaussianMixture(
            np.array([0.7, 0.3]),
            (
                Gaussian.spherical(np.array([0.0, 0.0]), 1.0),
                Gaussian.spherical(np.array([10.0, 0.0]), 1.0),
            ),
        )

    def test_perfect_fit_scores_zero(self):
        truth = self.truth()
        assert matched_mean_error(truth, truth) == pytest.approx(0.0)
        assert weight_recovery_error(truth, truth) == pytest.approx(0.0)

    def test_shifted_fit_scores_the_shift(self):
        truth = self.truth()
        shifted = GaussianMixture(
            truth.weights,
            tuple(
                Gaussian(c.mean + np.array([1.0, 0.0]), c.covariance)
                for c in truth.components
            ),
        )
        assert matched_mean_error(shifted, truth) == pytest.approx(1.0)

    def test_label_permutation_irrelevant(self):
        truth = self.truth()
        swapped = GaussianMixture(
            truth.weights[::-1].copy(), truth.components[::-1]
        )
        assert matched_mean_error(swapped, truth) == pytest.approx(0.0)
        # Reordering (weight, component) pairs is the same mixture.
        assert weight_recovery_error(swapped, truth) == pytest.approx(0.0)

    def test_misassigned_weights_counted(self):
        truth = self.truth()
        # Same components but the weights exchanged: each matched pair
        # is off by 0.4, so the TV distance is 0.4.
        miscalibrated = GaussianMixture(
            truth.weights[::-1].copy(), truth.components
        )
        assert weight_recovery_error(
            miscalibrated, truth
        ) == pytest.approx(0.4)

    def test_surplus_component_penalised_in_weights(self):
        truth = self.truth()
        extra = GaussianMixture(
            np.array([0.6, 0.2, 0.2]),
            truth.components
            + (Gaussian.spherical(np.array([50.0, 50.0]), 1.0),),
        )
        assert weight_recovery_error(extra, truth) > 0.1

    def test_dimension_mismatch_rejected(self, mixture_1d, mixture_2d):
        with pytest.raises(ValueError, match="different dimensions"):
            matched_mean_error(mixture_1d, mixture_2d)
