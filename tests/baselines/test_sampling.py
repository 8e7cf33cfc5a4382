"""Tests for the reservoir sampler and sampling-based EM."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.sampling import (
    ReservoirSampler,
    SamplingEM,
    SamplingEMConfig,
)
from repro.core.em import EMConfig


class TestReservoirSampler:
    def test_fills_to_capacity_first(self):
        sampler = ReservoirSampler(10, rng=np.random.default_rng(0))
        for i in range(10):
            assert sampler.offer(np.array([float(i)]))
        assert len(sampler) == 10

    def test_never_exceeds_capacity(self):
        sampler = ReservoirSampler(10, rng=np.random.default_rng(1))
        for i in range(1000):
            sampler.offer(np.array([float(i)]))
        assert len(sampler) == 10
        assert sampler.seen == 1000

    def test_uniformity(self):
        """Every record has probability m/n of being in the sample."""
        hits = np.zeros(100)
        for seed in range(400):
            sampler = ReservoirSampler(20, rng=np.random.default_rng(seed))
            for i in range(100):
                sampler.offer(np.array([float(i)]))
            for value in sampler.sample.ravel():
                hits[int(value)] += 1
        rates = hits / 400
        assert rates.mean() == pytest.approx(0.2, abs=0.01)
        assert rates.max() < 0.3
        assert rates.min() > 0.1

    def test_empty_reservoir_has_no_sample(self):
        sampler = ReservoirSampler(5)
        with pytest.raises(ValueError, match="empty"):
            _ = sampler.sample

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirSampler(0)


class TestSamplingEM:
    def make(self) -> SamplingEM:
        return SamplingEM(
            2,
            SamplingEMConfig(
                reservoir_size=300,
                refit_interval=300,
                em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            ),
            rng=np.random.default_rng(2),
        )

    def stream(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        labels = rng.integers(2, size=n)
        points = rng.normal(0.0, 0.5, size=(n, 2))
        points[:, 0] += np.where(labels == 0, -4.0, 4.0)
        return points

    def test_refits_on_cadence(self):
        model = self.make()
        model.process_stream(self.stream(900, 1))
        assert model.refits == 3

    def test_recovers_stationary_clusters(self):
        model = self.make()
        model.process_stream(self.stream(3000, 2))
        mixture = model.current_model()
        means = sorted(c.mean[0] for c in mixture.components)
        assert means[0] == pytest.approx(-4.0, abs=0.5)
        assert means[1] == pytest.approx(4.0, abs=0.5)

    def test_memory_is_bounded(self):
        model = self.make()
        model.process_stream(self.stream(500, 3))
        early = model.memory_bytes()
        model.process_stream(self.stream(5000, 4))
        assert model.memory_bytes() <= early * 1.5

    def test_dimension_checked(self):
        model = self.make()
        with pytest.raises(ValueError, match="dimension"):
            model.process_record(np.zeros(3))

    def test_current_model_needs_enough_samples(self):
        model = self.make()
        model.process_record(np.zeros(2))
        with pytest.raises(ValueError, match="not enough"):
            model.current_model()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SamplingEMConfig(
                reservoir_size=2, em=EMConfig(n_components=5)
            )
        with pytest.raises(ValueError):
            SamplingEMConfig(refit_interval=0)
