"""Tests for the robust covariance linear algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics.linalg import (
    ensure_spd,
    inverse_cholesky_stack,
    mahalanobis_sq,
    spd_factorize,
    spd_factorize_stack,
)


class TestEnsureSpd:
    def test_symmetrises_input(self):
        raw = np.array([[2.0, 0.5], [0.1, 1.0]])
        result = ensure_spd(raw)
        assert np.allclose(result, result.T)
        assert result[0, 1] == pytest.approx(0.3)

    def test_floors_zero_variance_diagonal(self):
        raw = np.diag([1.0, 0.0])
        result = ensure_spd(raw)
        assert result[1, 1] > 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ensure_spd(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ensure_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRegularize:
    def test_pd_matrix_unchanged_up_to_symmetry(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(spd_factorize(cov).covariance, cov)

    def test_indefinite_matrix_becomes_pd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        fixed = spd_factorize(cov).covariance
        eigenvalues = np.linalg.eigvalsh(fixed)
        assert np.all(eigenvalues > 0.0)

    def test_singular_matrix_becomes_pd(self):
        cov = np.ones((3, 3))  # rank one
        fixed = spd_factorize(cov).covariance
        np.linalg.cholesky(fixed)  # must not raise


class TestFactorization:
    def test_log_det_matches_numpy(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        expected = np.log(np.linalg.det(cov))
        assert spd_factorize(cov).log_det == pytest.approx(expected, rel=1e-9)

    def test_inverse_matches_numpy(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        assert np.allclose(spd_factorize(cov).inverse(), np.linalg.inv(cov))

    def test_inverse_is_cached(self):
        factors = spd_factorize(np.eye(3))
        assert factors.inverse() is factors.inverse()


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        points = np.array([[3.0, 4.0]])
        result = mahalanobis_sq(points, np.zeros(2), np.eye(2))
        assert result[0] == pytest.approx(25.0)

    def test_zero_at_the_mean(self):
        mean = np.array([1.0, 2.0, 3.0])
        cov = np.diag([1.0, 4.0, 9.0])
        assert mahalanobis_sq(mean, mean, cov)[0] == pytest.approx(0.0)

    def test_scales_with_inverse_variance(self):
        point = np.array([[2.0]])
        tight = mahalanobis_sq(point, np.zeros(1), np.array([[0.25]]))
        loose = mahalanobis_sq(point, np.zeros(1), np.array([[4.0]]))
        assert tight[0] == pytest.approx(16.0)
        assert loose[0] == pytest.approx(1.0)

    def test_batch_shape(self):
        points = np.random.default_rng(0).normal(size=(10, 3))
        result = mahalanobis_sq(points, np.zeros(3), np.eye(3))
        assert result.shape == (10,)
        assert np.all(result >= 0.0)

    def test_accepts_precomputed_factors(self):
        cov = np.array([[2.0, 0.0], [0.0, 1.0]])
        factors = spd_factorize(cov)
        direct = mahalanobis_sq(np.ones((1, 2)), np.zeros(2), cov)
        cached = mahalanobis_sq(np.ones((1, 2)), np.zeros(2), factors)
        assert direct[0] == pytest.approx(cached[0])


def degenerate_stack(dim: int, seed: int, factorable: bool = False) -> np.ndarray:
    """Random SPD members with one each near-singular, exactly singular,
    indefinite and zero-diagonal among them, so the per-member
    escalation runs beside members the shared first attempt accepts.
    ``factorable`` keeps only the near-singular one: LAPACK factors the
    whole stack and the pivot floor alone rejects that member."""
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(7, dim, dim))
    stack = roots @ roots.transpose(0, 2, 1) + np.eye(dim)
    near = roots[1].copy()
    near[:, 0] *= 1e-7
    stack[1] = near @ near.T
    if factorable:
        return stack
    stack[3] = np.outer(roots[3][0], roots[3][0])
    stack[4] = (roots[4] + roots[4].T) / 2.0 - 3.0 * np.eye(dim)
    stack[5] = stack[5] - np.diag(np.diag(stack[5]))
    return stack


class TestStackedFactorization:
    """``spd_factorize_stack`` is ``K`` ``spd_factorize`` calls, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 9, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("factorable", [False, True])
    def test_every_member_is_its_single_factorisation(self, dim, seed, factorable):
        stack = degenerate_stack(dim, seed, factorable)
        covariances, choleskys, log_dets = spd_factorize_stack(stack)
        inverses = inverse_cholesky_stack(choleskys, ())
        lifted = 0
        for j, matrix in enumerate(stack):
            single = spd_factorize(matrix)
            assert covariances[j].tobytes() == single.covariance.tobytes()
            assert choleskys[j].tobytes() == single.cholesky.tobytes()
            assert log_dets[j] == single.log_det
            whitener = single.inverse_cholesky()
            assert inverses[j].strides == whitener.strides
            assert np.array_equal(inverses[j], whitener)
            lifted += not np.array_equal(
                np.tril(covariances[j]), np.tril((matrix + matrix.T) / 2.0)
            )
        # The degenerate members were lifted, the others left alone.
        assert 1 <= lifted <= 4

    def test_one_cholesky_call_for_an_spd_stack(self, monkeypatch):
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: calls.append(a.shape) or real(a)
        )
        roots = np.random.default_rng(5).normal(size=(6, 3, 3))
        spd_factorize_stack(roots @ roots.transpose(0, 2, 1) + np.eye(3))
        assert calls == [(6, 3, 3)]

    def test_a_non_finite_member_raises_like_a_single_one(self):
        stack = degenerate_stack(3, 0)
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite") as single:
            spd_factorize(stack[2])
        with pytest.raises(ValueError, match="non-finite") as stacked:
            spd_factorize_stack(stack)
        assert str(stacked.value) == str(single.value)

    def test_one_member_and_an_empty_stack(self):
        covariances, choleskys, log_dets = spd_factorize_stack(np.array([[[4.0]]]))
        inverses = inverse_cholesky_stack(choleskys, ())
        assert choleskys.tolist() == [[[2.0]]] and inverses.tolist() == [[[0.5]]]
        assert log_dets.tolist() == [np.log(4.0)]
        empty = spd_factorize_stack(np.empty((0, 2, 2)))
        assert [part.shape for part in empty] == [(0, 2, 2), (0, 2, 2), (0,)]
        assert inverse_cholesky_stack(empty[1], ()).shape == (0, 2, 2)

    def test_the_stacks_are_read_only(self):
        stacks = spd_factorize_stack(np.eye(2)[None])
        for part in stacks + (inverse_cholesky_stack(stacks[1], ()),):
            assert not part.flags.writeable
