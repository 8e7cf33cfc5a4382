"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from benchmarks.paper.merging import normalize_scores
from repro.core.chunking import chunk_size, lemma1_tail_bound
from repro.core.events import EventTable
from repro.core.gaussian import Gaussian
from repro.core.merging import m_merge
from repro.core.mixture import GaussianMixture
from repro.numerics.linalg import mahalanobis_sq, spd_factorize
from tests.simulation.test_simulated import open_channel

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def gaussians(draw, dim: int = 2):
    """Random valid Gaussians with bounded, well-conditioned covariance."""
    mean = draw(
        arrays(np.float64, (dim,), elements=finite_floats)
    )
    diag = draw(
        arrays(
            np.float64,
            (dim,),
            elements=st.floats(min_value=0.1, max_value=10.0),
        )
    )
    raw = draw(
        arrays(
            np.float64,
            (dim, dim),
            elements=st.floats(min_value=-1.0, max_value=1.0),
        )
    )
    q, _ = np.linalg.qr(raw + 2.0 * np.eye(dim))
    cov = q @ np.diag(diag) @ q.T
    return Gaussian(mean, cov)


@st.composite
def mixtures(draw, dim: int = 2, max_components: int = 4):
    k = draw(st.integers(min_value=1, max_value=max_components))
    weights = draw(
        arrays(
            np.float64,
            (k,),
            elements=st.floats(min_value=0.05, max_value=1.0),
        )
    )
    components = tuple(draw(gaussians(dim)) for _ in range(k))
    return GaussianMixture(weights, components)


class TestGaussianProperties:
    @given(gaussians())
    @settings(max_examples=50, deadline=None)
    def test_log_pdf_finite_near_mean(self, gaussian):
        probe = gaussian.mean[None, :] + 0.1
        assert np.isfinite(gaussian.log_pdf(probe)[0])

    @given(gaussians())
    @settings(max_examples=50, deadline=None)
    def test_mahalanobis_non_negative(self, gaussian):
        points = gaussian.mean[None, :] + np.linspace(-3, 3, 7)[:, None]
        assert np.all(gaussian.mahalanobis_sq(points) >= 0.0)

    @given(gaussians(), gaussians())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_mahalanobis_symmetry(self, a, b):
        forward = a.symmetric_mahalanobis_sq(b)
        backward = b.symmetric_mahalanobis_sq(a)
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)

    @given(
        gaussians(),
        gaussians(),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_moments_mean_between_inputs(self, a, b, wa, wb):
        merged = a.merge_moments(b, wa, wb)
        low = np.minimum(a.mean, b.mean) - 1e-9
        high = np.maximum(a.mean, b.mean) + 1e-9
        assert np.all(merged.mean >= low)
        assert np.all(merged.mean <= high)

    @given(gaussians())
    @settings(max_examples=30, deadline=None)
    def test_serialization_round_trip(self, gaussian):
        assert Gaussian.from_dict(gaussian.to_dict()) == gaussian


class TestMixtureProperties:
    @given(mixtures())
    @settings(max_examples=50, deadline=None)
    def test_weights_normalised(self, mixture):
        assert mixture.weights.sum() == pytest.approx(1.0)

    @given(mixtures())
    @settings(max_examples=50, deadline=None)
    def test_posterior_rows_sum_to_one(self, mixture):
        points = np.stack([c.mean for c in mixture.components])
        posterior = mixture.posterior(points)
        assert np.allclose(posterior.sum(axis=1), 1.0)

    @given(mixtures())
    @settings(max_examples=30, deadline=None)
    def test_max_component_likelihood_bounded(self, mixture):
        points = np.stack([c.mean for c in mixture.components])
        sharp = mixture.max_component_log_likelihood(points)
        full = mixture.average_log_likelihood(points)
        assert sharp <= full + 1e-9

    @given(mixtures(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_samples_have_finite_density(self, mixture, n):
        points, labels = mixture.sample(n, np.random.default_rng(0))
        assert points.shape == (n, mixture.dim)
        assert np.all(labels < mixture.n_components)
        assert np.all(np.isfinite(mixture.log_pdf(points)))

    @given(mixtures())
    @settings(max_examples=30, deadline=None)
    def test_union_mass_conservation(self, mixture):
        union = mixture.union(mixture, 1.0, 3.0)
        assert union.n_components == 2 * mixture.n_components
        assert union.weights.sum() == pytest.approx(1.0)
        # Second copy carries 3x the mass of the first.
        first = union.weights[: mixture.n_components].sum()
        assert first == pytest.approx(0.25)


class TestChunkingProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=1e-4, max_value=0.99),
    )
    def test_chunk_size_positive(self, dim, epsilon, delta):
        assert chunk_size(dim, epsilon, delta) >= 1

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=1e-3, max_value=0.5),
        st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_chunk_size_monotone_in_dim(self, dim, epsilon, delta):
        assert chunk_size(dim + 1, epsilon, delta) >= chunk_size(
            dim, epsilon, delta
        )

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_lemma1_bound_is_probability(self, epsilon, m):
        assert 0.0 <= lemma1_tail_bound(epsilon, m) <= 1.0


class TestNumericsProperties:
    @given(
        arrays(
            np.float64,
            (3, 3),
            elements=st.floats(min_value=-5.0, max_value=5.0),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_regularize_always_yields_cholesky_able(self, raw):
        assume(np.all(np.isfinite(raw)))
        fixed = spd_factorize(raw @ raw.T - 2.0 * np.eye(3)).covariance
        np.linalg.cholesky(fixed)  # must not raise

    @given(gaussians(dim=3))
    @settings(max_examples=30, deadline=None)
    def test_mahalanobis_triangle_like_scaling(self, gaussian):
        # Scaling a displacement by t scales the squared distance by t².
        direction = np.ones(3)
        base = mahalanobis_sq(
            gaussian.mean + direction, gaussian.mean, gaussian.covariance
        )[0]
        scaled = mahalanobis_sq(
            gaussian.mean + 2.0 * direction, gaussian.mean, gaussian.covariance
        )[0]
        assert scaled == pytest.approx(4.0 * base, rel=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_normalize_scores_range(self, scores):
        result = normalize_scores(scores)
        assert np.all(result >= 0.0)
        assert np.all(result <= 1.0)

    @given(gaussians(), gaussians())
    @settings(max_examples=50, deadline=None)
    def test_m_merge_positive_and_symmetric(self, a, b):
        score = m_merge(a, b)
        assert score > 0.0
        assert score == pytest.approx(m_merge(b, a), rel=1e-6)


class TestEventTableProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_tiling_invariant(self, spans):
        table = EventTable()
        cursor = 0
        for length, model_id in spans:
            table.append(cursor, cursor + length, model_id)
            cursor += length
        assert table.horizon == cursor
        # Every record index maps to exactly the model of its span.
        probe = 0
        for length, model_id in spans:
            assert table.model_at(probe) == model_id
            probe += length

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=10),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=200),
    )
    def test_window_results_actually_overlap(self, lengths, start, size):
        table = EventTable()
        cursor = 0
        for index, length in enumerate(lengths):
            table.append(cursor, cursor + length, index)
            cursor += length
        for record in table.window(start, size):
            assert record.overlaps(start, start + size)


class TestCollectorProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60),
        st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    def test_monotone_series_for_non_negative_amounts(self, order, interval):
        # Three echo sites at 5 rec/s, fed in an arbitrary interleaving.
        channel, sites, _ = open_channel(
            n_sites=3, rate=5.0, sample_interval=interval
        )
        for which in order:
            channel.submit(sites[which], None)
        channel.engine.advance(channel.duration + 2 * interval)
        channel.finish()
        times, values = channel.cost_series()
        assert times == pytest.approx(
            [interval * (tick + 1) for tick in range(len(times))]
        )
        assert values == sorted(values)
        assert values[-1] == channel.accounting().payload_bytes


class TestReservoirProperties:
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=500),
    )
    def test_size_invariant(self, capacity, n):
        from benchmarks.paper.baselines.sampling import ReservoirSampler

        sampler = ReservoirSampler(capacity, rng=np.random.default_rng(0))
        for i in range(n):
            sampler.offer(np.array([float(i)]))
        assert len(sampler) == min(capacity, n)
        assert sampler.seen == n
