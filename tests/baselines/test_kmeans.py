"""Tests for the streaming k-means baseline."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.kmeans import (
    StreamKMeans,
    StreamKMeansConfig,
    lloyd_kmeans,
)
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture


def blobs(seed: int, n: int, centers=((-5.0, 0.0), (5.0, 0.0))) -> np.ndarray:
    rng = np.random.default_rng(seed)
    labels = rng.integers(len(centers), size=n)
    points = rng.normal(0.0, 0.5, size=(n, 2))
    for j, center in enumerate(centers):
        points[labels == j] += np.asarray(center)
    return points


class TestLloydKMeans:
    def test_recovers_separated_centers(self, rng):
        data = blobs(1, 600)
        result = lloyd_kmeans(data, 2, rng)
        xs = sorted(result.centers[:, 0])
        assert xs[0] == pytest.approx(-5.0, abs=0.3)
        assert xs[1] == pytest.approx(5.0, abs=0.3)

    def test_assignments_match_nearest_center(self, rng):
        data = blobs(2, 200)
        result = lloyd_kmeans(data, 2, rng)
        distances = np.sum(
            (data[:, None, :] - result.centers[None, :, :]) ** 2, axis=2
        )
        assert np.array_equal(result.assignments, np.argmin(distances, axis=1))

    def test_weighted_records_pull_centers(self, rng):
        data = np.array([[0.0], [10.0]])
        result = lloyd_kmeans(
            data, 1, rng, weights=np.array([9.0, 1.0]), max_iter=10
        )
        assert result.centers[0, 0] == pytest.approx(1.0)

    def test_inertia_decreases_with_more_clusters(self, rng):
        data = blobs(3, 400)
        one = lloyd_kmeans(data, 1, rng).inertia
        two = lloyd_kmeans(data, 2, rng).inertia
        assert two < one

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError, match="k must"):
            lloyd_kmeans(np.zeros((3, 2)), 5, rng)
        with pytest.raises(ValueError, match="weights"):
            lloyd_kmeans(np.zeros((3, 2)), 2, rng, weights=np.zeros(3))


class TestStreamKMeans:
    def make(self) -> StreamKMeans:
        return StreamKMeans(
            2,
            StreamKMeansConfig(k=2, chunk_size=300, max_centroids=20),
            rng=np.random.default_rng(4),
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamKMeansConfig(k=0)
        with pytest.raises(ValueError):
            StreamKMeansConfig(k=5, chunk_size=3)
        with pytest.raises(ValueError):
            StreamKMeansConfig(k=5, max_centroids=3)

    def test_recovers_centers_over_a_stream(self):
        model = self.make()
        model.process_stream(blobs(5, 3000))
        centers, masses = model.centers()
        xs = sorted(centers[:, 0])
        assert xs[0] == pytest.approx(-5.0, abs=0.5)
        assert xs[1] == pytest.approx(5.0, abs=0.5)
        assert masses.sum() == pytest.approx(3000, abs=300)

    def test_memory_bounded_by_conquer_step(self):
        model = StreamKMeans(
            2,
            StreamKMeansConfig(k=2, chunk_size=100, max_centroids=10),
            rng=np.random.default_rng(6),
        )
        model.process_stream(blobs(7, 5000))
        assert len(model._centroids) <= 10

    def test_as_mixture_is_a_valid_density(self):
        model = self.make()
        model.process_stream(blobs(8, 1500))
        mixture = model.as_mixture()
        assert mixture.n_components == 2
        holdout = blobs(9, 500)
        assert np.isfinite(mixture.average_log_likelihood(holdout))

    def test_assign_routes_to_nearest_center(self):
        model = self.make()
        model.process_stream(blobs(10, 1500))
        probes = np.array([[-5.0, 0.0], [5.0, 0.0]])
        labels = model.assign(probes)
        assert labels[0] != labels[1]

    def test_no_data_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            self.make().centers()

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            self.make().process_record(np.zeros(5))


class TestSoftVersusHardPremise:
    def test_em_beats_kmeans_density_on_overlapping_clusters(self, rng):
        """The paper's motivating claim, in miniature: on *overlapping*
        clusters the soft mixture model is a better density than the
        hard partition's."""
        from repro.core.em import EMConfig, fit_em

        truth = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian(np.array([-1.0, 0.0]), np.array([[1.5, 0.0], [0.0, 0.5]])),
                Gaussian(np.array([1.0, 0.0]), np.array([[0.5, 0.0], [0.0, 1.5]])),
            ),
        )
        data, _ = truth.sample(4000, rng)
        holdout, _ = truth.sample(4000, rng)

        em = fit_em(data, EMConfig(n_components=2, n_init=2), rng)
        km = StreamKMeans(
            2,
            StreamKMeansConfig(k=2, chunk_size=1000, max_centroids=20),
            rng=np.random.default_rng(11),
        )
        km.process_stream(data)
        em_quality = em.mixture.average_log_likelihood(holdout)
        km_quality = km.as_mixture().average_log_likelihood(holdout)
        assert em_quality > km_quality
