"""Tests for the Theorem 1 chunk-size machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.chunking import (
    chunk_size,
    iter_chunks,
    lemma1_tail_bound,
    window_error_bound,
)


class TestChunkSize:
    def test_paper_default_parameters(self):
        # d=4, ε=0.02, δ=0.01 -> ⌈-8 ln(0.0199)/0.02⌉ = 1567.
        assert chunk_size(4, 0.02, 0.01) == 1567

    def test_exact_formula(self):
        expected = math.ceil(-2 * 3 * math.log(0.05 * 1.95) / 0.1)
        assert chunk_size(3, 0.1, 0.05) == expected

    def test_grows_linearly_in_dimension(self):
        sizes = [chunk_size(d, 0.02, 0.01) for d in (1, 2, 4, 8)]
        ratios = [sizes[i + 1] / sizes[i] for i in range(3)]
        assert all(ratio == pytest.approx(2.0, rel=0.01) for ratio in ratios)

    def test_shrinks_with_epsilon(self):
        assert chunk_size(4, 0.1, 0.01) < chunk_size(4, 0.01, 0.01)

    def test_shrinks_with_delta(self):
        assert chunk_size(4, 0.02, 0.1) < chunk_size(4, 0.02, 0.001)

    def test_at_least_one(self):
        assert chunk_size(1, 1e9, 0.5) == 1

    @pytest.mark.parametrize(
        "dim,epsilon,delta",
        [(0, 0.1, 0.1), (2, 0.0, 0.1), (2, 0.1, 0.0), (2, 0.1, 1.0)],
    )
    def test_invalid_parameters_rejected(self, dim, epsilon, delta):
        with pytest.raises(ValueError):
            chunk_size(dim, epsilon, delta)


class TestLemma1:
    def test_bound_dominates_exact_gaussian_tail(self):
        for m in (10, 100, 1000):
            for epsilon in (0.01, 0.05, 0.2):
                exact = norm.sf(epsilon, scale=1.0 / math.sqrt(m))
                assert lemma1_tail_bound(epsilon, m) >= exact - 1e-12

    def test_bound_in_unit_interval(self):
        assert 0.0 <= lemma1_tail_bound(0.5, 50) <= 1.0

    def test_bound_decreases_in_m(self):
        values = [lemma1_tail_bound(0.1, m) for m in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_zero_epsilon_gives_one(self):
        assert lemma1_tail_bound(0.0, 10) == pytest.approx(1.0)


class TestWindowErrorBound:
    def test_half_of_chunk_size(self):
        assert window_error_bound(4, 0.02, 0.01) == pytest.approx(
            chunk_size(4, 0.02, 0.01) / 2.0
        )


class TestIterChunks:
    def test_groups_exact_multiples(self):
        records = [np.array([float(i)]) for i in range(9)]
        chunks = list(iter_chunks(records, 3))
        assert len(chunks) == 3
        assert all(chunk.shape == (3, 1) for chunk in chunks)
        assert chunks[1][0, 0] == 3.0

    def test_drops_trailing_partial_by_default(self):
        records = [np.array([float(i)]) for i in range(10)]
        chunks = list(iter_chunks(records, 4))
        assert len(chunks) == 2

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk size"):
            list(iter_chunks([], 0))

    def test_empirical_theorem1_guarantee(self, rng):
        """Theorem 1 holds empirically: sample means of M-sized chunks
        stay within ε of the true mean (in Mahalanobis terms) in well
        over 1-δ of trials."""
        dim, epsilon, delta = 2, 0.05, 0.05
        m = chunk_size(dim, epsilon, delta)
        cov = np.diag([2.0, 0.5])
        inv = np.linalg.inv(cov)
        failures = 0
        trials = 200
        root = np.linalg.cholesky(cov)
        for _ in range(trials):
            sample = rng.standard_normal((m, dim)) @ root.T
            mean = sample.mean(axis=0)
            distance = float(mean @ inv @ mean)
            if distance >= epsilon:
                failures += 1
        assert failures / trials <= delta
