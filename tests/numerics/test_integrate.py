"""Tests for the L1 density-distance estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.numerics.integrate import (
    monte_carlo_l1,
    trapezoid_grid,
)


def gaussian_density(mean: float, var: float):
    component = Gaussian(np.array([mean]), np.array([[var]]))

    def density(points: np.ndarray) -> np.ndarray:
        return component.pdf(points)

    return density


class TestTrapezoidGrid:
    def test_identical_densities_have_zero_distance(self):
        density = gaussian_density(0.0, 1.0)
        assert trapezoid_grid(density, density, [-8.0], [8.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_disjoint_densities_approach_two(self):
        far_apart = trapezoid_grid(
            gaussian_density(-20.0, 0.5),
            gaussian_density(20.0, 0.5),
            [-30.0],
            [30.0],
            points_per_dim=601,
        )
        assert far_apart == pytest.approx(2.0, abs=1e-3)

    def test_known_overlap_value(self):
        # For two unit-variance Gaussians with means ±μ the L1 distance
        # is 2(2Φ(μ) - 1); with μ = 1 this is ~1.36538.
        value = trapezoid_grid(
            gaussian_density(-1.0, 1.0),
            gaussian_density(1.0, 1.0),
            [-10.0],
            [10.0],
            points_per_dim=2001,
        )
        assert value == pytest.approx(1.3653790, abs=1e-4)

    def test_two_dimensional_grid(self):
        a = Gaussian(np.zeros(2), np.eye(2))
        b = Gaussian(np.array([0.5, 0.0]), np.eye(2))
        value = trapezoid_grid(
            a.pdf, b.pdf, [-7.0, -7.0], [7.5, 7.0], points_per_dim=121
        )
        assert 0.0 < value < 2.0

    def test_rejects_bad_bounds(self):
        density = gaussian_density(0.0, 1.0)
        with pytest.raises(ValueError, match="exceed"):
            trapezoid_grid(density, density, [1.0], [0.0])

    def test_rejects_huge_grids(self):
        a = Gaussian(np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match="grid too large"):
            trapezoid_grid(
                a.pdf, a.pdf, [-5] * 4, [5] * 4, points_per_dim=101
            )

class TestMonteCarlo:
    def test_agrees_with_grid_estimate(self):
        a = Gaussian(np.array([-1.0]), np.array([[1.0]]))
        b = Gaussian(np.array([1.0]), np.array([[1.0]]))
        proposal = GaussianMixture(np.array([0.5, 0.5]), (a, b))
        mc = monte_carlo_l1(
            a.pdf,
            b.pdf,
            sampler=lambda n, gen: proposal.sample(n, gen)[0],
            proposal_density=proposal.pdf,
            n_samples=40_000,
            rng=np.random.default_rng(3),
        )
        grid = trapezoid_grid(a.pdf, b.pdf, [-10.0], [10.0], points_per_dim=1001)
        assert mc == pytest.approx(grid, rel=0.05)

    def test_zero_for_identical_densities(self):
        a = Gaussian(np.zeros(1), np.eye(1))
        value = monte_carlo_l1(
            a.pdf,
            a.pdf,
            sampler=lambda n, gen: a.sample(n, gen),
            proposal_density=a.pdf,
            n_samples=100,
            rng=np.random.default_rng(0),
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_positive_budget(self):
        a = Gaussian(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_l1(
                a.pdf,
                a.pdf,
                sampler=lambda n, gen: a.sample(n, gen),
                proposal_density=a.pdf,
                n_samples=0,
            )
