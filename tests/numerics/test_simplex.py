"""Tests for the from-scratch Nelder-Mead implementation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.numerics.simplex import nelder_mead


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x**2))


def rosenbrock(x: np.ndarray) -> float:
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestConvergence:
    def test_sphere_1d(self):
        result = nelder_mead(sphere, np.array([3.0]))
        assert result.fun == pytest.approx(0.0, abs=1e-8)
        assert result.converged

    def test_sphere_5d(self):
        result = nelder_mead(sphere, np.full(5, 2.0), max_iter=2000)
        assert result.fun < 1e-6

    def test_rosenbrock_2d(self):
        result = nelder_mead(
            rosenbrock, np.array([-1.2, 1.0]), max_iter=5000
        )
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_shifted_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])

        def objective(x: np.ndarray) -> float:
            return float(np.sum((x - target) ** 2))

        result = nelder_mead(objective, np.zeros(3), max_iter=2000)
        assert np.allclose(result.x, target, atol=1e-4)


class TestRobustness:
    def test_non_finite_objective_regions_are_avoided(self):
        def objective(x: np.ndarray) -> float:
            if x[0] < 0.0:
                return float("nan")
            return float((x[0] - 2.0) ** 2)

        result = nelder_mead(objective, np.array([0.5]))
        assert result.x[0] == pytest.approx(2.0, abs=1e-4)

    def test_zero_start_coordinate_gets_absolute_step(self):
        result = nelder_mead(sphere, np.zeros(2))
        assert result.fun == pytest.approx(0.0, abs=1e-8)

    def test_iteration_budget_respected(self):
        result = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_iter=5)
        assert result.iterations <= 5
        assert not result.converged

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="zero-dimensional"):
            nelder_mead(sphere, np.array([]))

    def test_result_counts_evaluations(self):
        calls = []

        def objective(x: np.ndarray) -> float:
            calls.append(1)
            return sphere(x)

        result = nelder_mead(objective, np.array([1.0, 1.0]), max_iter=50)
        assert result.evaluations == len(calls)


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "start", [np.array([4.0, -3.0]), np.array([0.1, 0.1])]
    )
    def test_matches_scipy_on_quadratics(self, start):
        def objective(x: np.ndarray) -> float:
            return float(x[0] ** 2 + 3.0 * x[1] ** 2 + x[0] * x[1])

        ours = nelder_mead(objective, start, max_iter=2000)
        theirs = minimize(objective, start, method="Nelder-Mead")
        assert ours.fun == pytest.approx(theirs.fun, abs=1e-6)

    def test_vectorized_matches_scipy_too(self):
        def rows(points: np.ndarray) -> np.ndarray:
            x, y = points[:, 0], points[:, 1]
            return x**2 + 3.0 * y**2 + x * y

        start = np.array([4.0, -3.0])
        ours = nelder_mead(rows, start, max_iter=2000, vectorized=True)
        theirs = minimize(lambda p: float(rows(p[None, :])[0]), start,
                          method="Nelder-Mead")
        assert ours.fun == pytest.approx(theirs.fun, abs=1e-6)


class TestVectorized:
    """``vectorized=True`` batches evaluations; it does not change the search."""

    @staticmethod
    def ridge(x: np.ndarray) -> float:
        # Cusps along every axis and a forbidden half-space: reflections,
        # expansions, both contractions and a shrink all occur.
        if x[0] < -1.5:
            return float("inf")
        return float(np.sum(np.sqrt(np.abs(x))))

    def test_same_search_as_one_point_at_a_time(self):
        batch_sizes = []

        def rows(points: np.ndarray) -> np.ndarray:
            batch_sizes.append(points.shape[0])
            return np.array([self.ridge(point) for point in points])

        start = np.array([-1.2, 1.0, 0.5])
        scalar = nelder_mead(self.ridge, start, max_iter=400)
        batched = nelder_mead(rows, start, max_iter=400, vectorized=True)
        assert np.array_equal(batched.x, scalar.x)
        assert batched.fun == scalar.fun
        assert (batched.iterations, batched.evaluations, batched.converged) == (
            scalar.iterations,
            scalar.evaluations,
            scalar.converged,
        )
        # The initial simplex is one batch of n + 1, a shrink one batch
        # of n, everything else arrives alone.
        assert batch_sizes[0] == start.size + 1
        assert start.size in batch_sizes[1:]
        assert set(batch_sizes[1:]) == {1, start.size}
        assert sum(batch_sizes) == batched.evaluations

    def test_non_finite_rows_become_inf(self):
        def rows(points: np.ndarray) -> np.ndarray:
            values = (points[:, 0] - 2.0) ** 2
            values[points[:, 0] < 0.0] = np.nan
            return values

        result = nelder_mead(rows, np.array([0.5]), vectorized=True)
        assert result.x[0] == pytest.approx(2.0, abs=1e-4)
