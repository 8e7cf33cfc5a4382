"""Tests for the evolving synthetic Gaussian stream."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.base import take
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
    random_mixture,
)


class TestRandomMixture:
    def test_dimensions_and_component_count(self, rng):
        mixture = random_mixture(4, 5, rng)
        assert mixture.dim == 4
        assert mixture.n_components == 5

    def test_means_respect_separation(self, rng):
        mixture = random_mixture(3, 4, rng, scale=0.5, separation=4.0)
        means = [c.mean for c in mixture.components]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) >= 2.0

    def test_diagonal_mode(self, rng):
        mixture = random_mixture(3, 2, rng, diagonal=True)
        for component in mixture.components:
            off = component.covariance - np.diag(
                np.diag(component.covariance)
            )
            assert np.allclose(off, 0.0)

    def test_crowded_box_still_succeeds(self, rng):
        # Requested separation infeasible; accept-as-is fallback kicks in.
        mixture = random_mixture(1, 50, rng, box=1.0, separation=100.0)
        assert mixture.n_components == 50

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            random_mixture(2, 0, rng)
        with pytest.raises(ValueError):
            random_mixture(2, 2, rng, box=0.0)


class TestEvolvingStreamConfig:
    def test_paper_defaults(self):
        config = EvolvingStreamConfig()
        assert config.segment_length == 2000
        assert config.p_new_distribution == 0.1
        assert config.dim == 4
        assert config.n_components == 5

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            EvolvingStreamConfig(segment_length=0)
        with pytest.raises(ValueError):
            EvolvingStreamConfig(p_new_distribution=1.5)


class TestEvolvingStream:
    def test_records_have_configured_dimension(self):
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(dim=3), rng=np.random.default_rng(0)
        )
        block = take(stream, 10)
        assert block.shape == (10, 3)

    def test_reproducible_under_fixed_seed(self):
        config = EvolvingStreamConfig(dim=2, segment_length=100)
        a = take(EvolvingGaussianStream(config, np.random.default_rng(7)), 500)
        b = take(EvolvingGaussianStream(config, np.random.default_rng(7)), 500)
        assert np.array_equal(a, b)

    def test_segments_recorded_as_consumed(self):
        config = EvolvingStreamConfig(dim=2, segment_length=100)
        stream = EvolvingGaussianStream(config, np.random.default_rng(1))
        take(stream, 250)
        assert len(stream.segments) == 3
        assert stream.segments[0].start == 0
        assert stream.segments[2].end == 300

    def test_pd_zero_never_changes_distribution(self):
        config = EvolvingStreamConfig(
            dim=2, segment_length=50, p_new_distribution=0.0
        )
        stream = EvolvingGaussianStream(config, np.random.default_rng(2))
        take(stream, 500)
        assert len({s.segment_id for s in stream.segments}) == 1

    def test_pd_one_changes_every_segment(self):
        config = EvolvingStreamConfig(
            dim=2, segment_length=50, p_new_distribution=1.0
        )
        stream = EvolvingGaussianStream(config, np.random.default_rng(2))
        take(stream, 500)
        assert len({s.segment_id for s in stream.segments}) == len(stream.segments)

    def test_change_frequency_tracks_pd(self):
        config = EvolvingStreamConfig(
            dim=2, segment_length=10, p_new_distribution=0.3
        )
        stream = EvolvingGaussianStream(config, np.random.default_rng(3))
        take(stream, 5000)  # 500 segments
        changes = len({s.segment_id for s in stream.segments}) - 1
        rate = changes / (len(stream.segments) - 1)
        assert rate == pytest.approx(0.3, abs=0.07)

    def test_records_actually_follow_the_segment_mixture(self):
        config = EvolvingStreamConfig(
            dim=2, segment_length=2000, p_new_distribution=0.0
        )
        stream = EvolvingGaussianStream(config, np.random.default_rng(4))
        block = take(stream, 2000)
        mixture = stream.segments[0].mixture
        own = mixture.average_log_likelihood(block)
        shifted = mixture.average_log_likelihood(block + 30.0)
        assert own > shifted
