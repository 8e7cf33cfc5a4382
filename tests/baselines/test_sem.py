"""Tests for the Scalable EM baseline."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.suffstats import SufficientStats


def two_blob_stream(n: int, seed: int, centers=(-5.0, 5.0)):
    rng = np.random.default_rng(seed)
    labels = rng.integers(2, size=n)
    points = rng.normal(0.0, 0.5, size=(n, 2))
    points[:, 0] += np.where(labels == 0, centers[0], centers[1])
    return points


def fast_sem(dim: int = 2, buffer_size: int = 500) -> ScalableEM:
    return ScalableEM(
        dim,
        SEMConfig(
            n_components=2,
            buffer_size=buffer_size,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
        ),
        rng=np.random.default_rng(11),
    )


def one_discard_set(records: np.ndarray) -> SufficientStats:
    """One cluster's discard set, as SEM folds it: every record is the
    cluster's own (a one-component ``SufficientStats``)."""
    return SufficientStats.from_responsibilities(
        records, np.ones((records.shape[0], 1))
    )


class TestSufficientStatistics:
    def test_from_records_moments(self):
        records = np.array([[1.0, 0.0], [3.0, 2.0]])
        stats = one_discard_set(records)
        assert stats.counts.tolist() == [2.0]
        mean = stats.sums[0] / stats.counts[0]
        assert np.allclose(mean, [2.0, 1.0])
        scatter = stats.outers[0] / stats.counts[0] - np.outer(mean, mean)
        assert np.allclose(scatter, [[1.0, 1.0], [1.0, 1.0]])

    def test_absorb_is_additive(self):
        a = np.random.default_rng(0).normal(size=(50, 3))
        b = np.random.default_rng(1).normal(size=(30, 3))
        incremental = one_discard_set(a).merge(one_discard_set(b))
        direct = one_discard_set(np.vstack([a, b]))
        assert incremental.counts.tolist() == direct.counts.tolist()
        assert np.allclose(incremental.sums, direct.sums)
        assert np.allclose(incremental.outers, direct.outers)

    def test_empty_statistics_have_no_mean(self):
        stats = SufficientStats.zeros(1, 2)
        with pytest.raises(ValueError, match="starved"):
            stats.materialize()


class TestSEMConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SEMConfig(n_components=5, buffer_size=3)
        with pytest.raises(ValueError):
            SEMConfig(compression_radius=0.0)


class TestScalableEM:
    def test_refits_when_buffer_fills(self):
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(500, 1))
        assert sem.refits == 1
        assert sem.mixture is not None

    def test_recovers_stationary_clusters(self):
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(3000, 2))
        model = sem.current_model()
        means = sorted(c.mean[0] for c in model.components)
        assert means[0] == pytest.approx(-5.0, abs=0.5)
        assert means[1] == pytest.approx(5.0, abs=0.5)

    def test_compression_bounds_memory(self):
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(5000, 3))
        # Most confidently assigned records must be compressed away.
        assert sem.compressed > 3000
        assert sem.retained <= 500

    def test_memory_grows_sublinearly(self):
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(1000, 4))
        early = sem.memory_bytes()
        sem.process_stream(two_blob_stream(9000, 5))
        late = sem.memory_bytes()
        assert late < early * 3  # 10x the data, < 3x the memory

    def test_record_dimension_checked(self):
        sem = fast_sem()
        with pytest.raises(ValueError, match="dimension"):
            sem.process_record(np.zeros(5))

    def test_current_model_requires_data(self):
        sem = fast_sem()
        with pytest.raises(ValueError, match="no records"):
            sem.current_model()

    def test_single_model_blurs_changed_distribution(self):
        """The key SEM weakness Figures 5-7 exploit: one model must
        explain both the old and the new distribution."""
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(2000, 6, centers=(-5.0, 5.0)))
        sem.process_stream(two_blob_stream(2000, 7, centers=(20.0, 30.0)))
        model = sem.current_model()
        # Fresh data from the *new* distribution only:
        fresh = two_blob_stream(2000, 8, centers=(20.0, 30.0))
        sem_quality = model.average_log_likelihood(fresh)
        # A dedicated model of the new distribution:
        dedicated = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([20.0, 0.0]), 0.25),
                Gaussian.spherical(np.array([30.0, 0.0]), 0.25),
            ),
        )
        dedicated_quality = dedicated.average_log_likelihood(fresh)
        assert dedicated_quality > sem_quality

    def test_partial_buffer_refit_on_demand(self):
        sem = fast_sem(buffer_size=500)
        sem.process_stream(two_blob_stream(750, 9))  # 1 refit + 250 live
        model = sem.current_model()  # forces a refit of the partial buffer
        assert model is not None
        assert sem.refits >= 2
