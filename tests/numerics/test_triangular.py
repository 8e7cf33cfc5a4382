"""The NumPy forward substitution behind ``L⁻¹`` and whitening.

``repro.numerics.linalg._solve_factor`` replaced LAPACK ``trtrs`` (the
call behind ``scipy.linalg.solve_triangular``), so SciPy serves here as
the reference it is measured against -- imported by the tests only.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.numerics.linalg import (
    PIVOT_FLOOR,
    _solve_factor,
    inverse_cholesky_stack,
    spd_factorize,
    spd_factorize_stack,
)

DIMS = (1, 2, 4, 16, 64)

EPS = np.finfo(float).eps


def spd_factor(dim: int, seed: int, at_floor: bool = False) -> np.ndarray:
    """The Cholesky factor of a seeded SPD matrix; ``at_floor`` puts its
    last pivot at twice the regulariser's floor (``PIVOT_FLOOR`` times
    the root of the matrix scale), the smallest pivot it accepts."""
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(dim, dim))
    factor = np.linalg.cholesky(roots @ roots.T / dim + np.eye(dim))
    if at_floor:
        covariance = factor @ factor.T
        scale = max(np.trace(covariance) / dim, np.abs(covariance).max())
        factor[-1, -1] = 2.0 * PIVOT_FLOOR * np.sqrt(scale)
    return factor


def layout(array: np.ndarray) -> tuple[bool, bool]:
    return array.flags.c_contiguous, array.flags.f_contiguous


def condition(factor: np.ndarray) -> float:
    """``κ_∞(L) = ‖L‖_∞ ‖L⁻¹‖_∞``."""
    inverse = solve_triangular(factor, np.eye(len(factor)), lower=True)
    return np.abs(factor).sum(axis=1).max() * np.abs(inverse).sum(axis=1).max()


class TestAgainstLapack:
    """Forward substitution is backward stable: ``(L + ΔL) x̂ = b`` with
    ``|ΔL| ≤ d ε |L|`` to first order (Higham, Thm 8.5), so each solver's
    column is within ``d ε κ_∞(L)`` of the exact one, relative to its
    ∞-norm, and the two are within twice that of each other.  The test
    allows ``4 d ε κ_∞(L)``."""

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("at_floor", [False, True])
    def test_agrees_within_ulps_times_condition(self, dim, seed, at_floor):
        factor = spd_factor(dim, seed, at_floor)
        bound = 4.0 * dim * EPS * condition(factor)
        rhs = np.random.default_rng(100 + seed).normal(size=(dim, 50))
        for b in (np.eye(dim), rhs):
            ours = _solve_factor(factor, b)
            reference = solve_triangular(factor, b, lower=True)
            error = np.abs(ours - reference).max(axis=0)
            assert np.all(error <= bound * np.abs(reference).max(axis=0))

    @pytest.mark.parametrize("dim", DIMS)
    def test_the_layout_is_lapacks(self, dim):
        factor = spd_factor(dim, 0)
        rhs = np.random.default_rng(1).normal(size=(7, dim))
        for b in (np.eye(dim), rhs.T):
            ours = _solve_factor(factor, b)
            reference = solve_triangular(factor, b, lower=True)
            assert ours.shape == reference.shape
            assert layout(ours) == layout(reference) == (dim == 1, True)


class TestStackedSolve:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_member_j_is_the_single_solve_bit_for_bit(self, dim, members):
        factors = np.stack([spd_factor(dim, seed) for seed in range(members)])
        rhs = np.random.default_rng(dim).normal(size=(members, dim, 30))
        for stacked, b in (
            (_solve_factor(factors, np.eye(dim)), [np.eye(dim)] * members),
            (_solve_factor(factors, rhs), rhs),
        ):
            for member, factor, column in zip(stacked, factors, b):
                single = _solve_factor(factor, column)
                assert member.tobytes(order="A") == single.tobytes(order="A")
                assert layout(member) == layout(single)

    def test_the_stacked_inverses_are_the_components_caches(self):
        roots = [spd_factor(4, seed) for seed in range(3)]
        stack = np.stack([root @ root.T for root in roots])
        _, choleskys, _ = spd_factorize_stack(stack)
        singles = [spd_factorize(matrix) for matrix in stack]
        primed = singles[1].inverse_cholesky()
        inverses = inverse_cholesky_stack(choleskys, singles)
        for inverse, factors in zip(inverses, singles):
            assert np.array_equal(inverse, factors.inverse_cholesky())
            assert inverse.strides == factors.inverse_cholesky().strides
        # A cache already filled is kept, and holds the same bits; the
        # others now hold their member of the stack.
        assert singles[1].inverse_cholesky() is primed
        assert np.shares_memory(singles[0].inverse_cholesky(), inverses)


class TestIdentityAndNaN:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("at_floor", [False, True])
    def test_the_inverse_is_exactly_lower_triangular(self, dim, at_floor):
        factor = spd_factor(dim, 3, at_floor)
        inverse = _solve_factor(factor, np.eye(dim))
        assert not np.triu(inverse, 1).any()
        assert np.all(np.diag(inverse) > 0.0)
        stacked = _solve_factor(np.stack([factor, factor]), np.eye(dim))
        assert not np.triu(stacked, 1).any()

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_nan_reaches_what_it_reaches_through_lapack(self, dim):
        factor = spd_factor(dim, 4)
        rhs = np.random.default_rng(5).normal(size=(dim, 6))
        rhs[0, 0] = np.nan
        rhs[dim - 1, 1] = np.nan
        rhs[dim // 2, 2] = np.nan
        rhs[:, 3] = np.nan
        ours = _solve_factor(factor, rhs)
        reference = solve_triangular(factor, rhs, lower=True, check_finite=False)
        assert np.array_equal(np.isnan(ours), np.isnan(reference))
        # Down its column from the first NaN, and nowhere else.
        assert np.isnan(ours[:, 0]).all() and not np.isnan(ours[:, 4:]).any()
        assert np.isnan(ours[:, 1]).sum() == 1
