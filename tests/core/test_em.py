"""Tests for the classical EM trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import (
    EMConfig,
    fit_em,
    kmeans_plus_plus_centers,
)
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture


def two_cluster_data(rng: np.random.Generator, n: int = 600) -> np.ndarray:
    a = rng.normal([-5.0, 0.0], 0.5, size=(n // 2, 2))
    b = rng.normal([5.0, 0.0], 0.5, size=(n - n // 2, 2))
    return np.vstack([a, b])


class TestConfigValidation:
    def test_rejects_zero_components(self):
        with pytest.raises(ValueError, match="n_components"):
            EMConfig(n_components=0)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError, match="tol"):
            EMConfig(tol=-1.0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="init"):
            EMConfig(init="fancy")

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="n_init"):
            EMConfig(n_init=0)


class TestSeeding:
    def test_kmeanspp_returns_requested_centers(self, rng):
        data = rng.normal(size=(100, 3))
        centers = kmeans_plus_plus_centers(data, 4, rng)
        assert centers.shape == (4, 3)

    def test_kmeanspp_spreads_over_separated_clusters(self, rng):
        data = two_cluster_data(rng)
        centers = kmeans_plus_plus_centers(data, 2, rng)
        # One center per blob with overwhelming probability.
        signs = np.sign(centers[:, 0])
        assert set(signs.tolist()) == {-1.0, 1.0}

    def test_kmeanspp_rejects_k_above_n(self, rng):
        with pytest.raises(ValueError, match="cannot seed"):
            kmeans_plus_plus_centers(np.zeros((3, 2)), 5, rng)

    def test_kmeanspp_handles_duplicate_records(self, rng):
        data = np.zeros((20, 2))
        centers = kmeans_plus_plus_centers(data, 3, rng)
        assert centers.shape == (3, 2)


class TestFitting:
    def test_recovers_two_separated_clusters(self, rng):
        data = two_cluster_data(rng)
        result = fit_em(data, EMConfig(n_components=2, n_init=2), rng)
        means = sorted(c.mean[0] for c in result.mixture.components)
        assert means[0] == pytest.approx(-5.0, abs=0.3)
        assert means[1] == pytest.approx(5.0, abs=0.3)
        assert np.allclose(result.mixture.weights, [0.5, 0.5], atol=0.05)

    def test_likelihood_history_non_decreasing(self, rng):
        data = two_cluster_data(rng)
        result = fit_em(data, EMConfig(n_components=2, n_init=1), rng)
        history = np.array(result.history)
        assert np.all(np.diff(history) >= -1e-7)

    def test_converged_flag_set_on_easy_data(self, rng):
        data = two_cluster_data(rng)
        result = fit_em(
            data, EMConfig(n_components=2, max_iter=200, tol=1e-5), rng
        )
        assert result.converged

    def test_single_component_matches_sample_moments(self, rng):
        data = rng.normal(2.0, 1.5, size=(2000, 1))
        result = fit_em(data, EMConfig(n_components=1, n_init=1), rng)
        component = result.mixture.components[0]
        assert component.mean[0] == pytest.approx(data.mean(), abs=0.01)
        assert component.covariance[0, 0] == pytest.approx(
            data.var(), rel=0.05
        )

    def test_diagonal_mode_produces_diagonal_covariances(self, rng):
        data = two_cluster_data(rng)
        result = fit_em(
            data, EMConfig(n_components=2, diagonal=True, n_init=1), rng
        )
        for component in result.mixture.components:
            off = component.covariance - np.diag(np.diag(component.covariance))
            assert np.allclose(off, 0.0)

    def test_more_components_than_records_rejected(self, rng):
        with pytest.raises(ValueError, match="need at least"):
            fit_em(np.zeros((3, 2)), EMConfig(n_components=5), rng)

    def test_non_finite_data_rejected(self, rng):
        data = np.ones((10, 2))
        data[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_em(data, EMConfig(n_components=2), rng)

    def test_survives_duplicated_records(self, rng):
        # Degenerate chunk: all mass on two exact points.
        data = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
        result = fit_em(data, EMConfig(n_components=2, n_init=1), rng)
        assert np.isfinite(result.log_likelihood)


class TestWarmStart:
    def test_warm_start_at_truth_converges_fast(self, rng):
        data = two_cluster_data(rng)
        truth = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([-5.0, 0.0]), 0.25),
                Gaussian.spherical(np.array([5.0, 0.0]), 0.25),
            ),
        )
        result = fit_em(
            data,
            EMConfig(n_components=2, n_init=1, tol=1e-5),
            rng,
            initial=truth,
        )
        assert result.log_likelihood >= truth.average_log_likelihood(data) - 0.05

    def test_warm_start_dimension_mismatch_rejected(self, rng, mixture_1d):
        data = two_cluster_data(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_em(data, EMConfig(n_components=2), rng, initial=mixture_1d)


class TestEStepHelper:
    def test_returns_posteriors_and_likelihood(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(200, rng)
        e_step = mixture_2d.e_step(data)
        assert e_step.responsibilities.shape == (200, 3)
        assert e_step.log_likelihood == pytest.approx(
            mixture_2d.average_log_likelihood(data)
        )
