"""Property tests: the batched density kernels agree with the
per-component path.

The vectorised E-step/log-density kernels (`batch_log_pdf`, the
E-step's log-sum-exp) replaced a loop of per-component
``Gaussian.log_pdf`` calls.  These tests pin the agreement to 1e-10
absolute across randomly generated SPD covariances -- including
near-singular ones, where the regularisation path kicks in -- so the
optimisation can never silently change clustering decisions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gaussian import Gaussian
from repro.core.mixture import LOG_DENSITY_FLOOR, GaussianMixture
from repro.numerics.linalg import (
    LOG_2PI,
    batch_log_pdf,
    inverse_cholesky_stack,
    mahalanobis_sq,
)
from tests.numerics.density_oracle import batch_mahalanobis_sq

bounded_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def random_mixtures(draw, max_dim: int = 4, max_components: int = 5):
    """A mixture with random means and random SPD covariances."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_components))
    components = []
    for _ in range(k):
        mean = draw(arrays(np.float64, (dim,), elements=bounded_floats))
        raw = draw(
            arrays(
                np.float64,
                (dim, dim),
                elements=st.floats(min_value=-2.0, max_value=2.0),
            )
        )
        eigenvalues = draw(
            arrays(
                np.float64,
                (dim,),
                elements=st.floats(min_value=0.05, max_value=10.0),
            )
        )
        q, _ = np.linalg.qr(raw + 3.0 * np.eye(dim))
        cov = q @ np.diag(eigenvalues) @ q.T
        components.append(Gaussian(mean, cov))
    weights = draw(
        arrays(
            np.float64,
            (k,),
            elements=st.floats(min_value=0.05, max_value=1.0),
        )
    )
    return GaussianMixture(weights, tuple(components))


@st.composite
def mixtures_with_points(draw, max_points: int = 8):
    mixture = draw(random_mixtures())
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = draw(
        arrays(np.float64, (n, mixture.dim), elements=bounded_floats)
    )
    return mixture, points


@settings(max_examples=150, deadline=None)
@given(mixtures_with_points())
def test_batched_component_log_pdf_matches_per_component(case):
    """The (n, k) kernel equals k stacked Gaussian.log_pdf calls."""
    mixture, points = case
    batched = mixture.component_log_pdf(points)
    stacked = np.stack(
        [component.log_pdf(points) for component in mixture.components],
        axis=1,
    )
    assert batched.shape == stacked.shape
    np.testing.assert_allclose(batched, stacked, rtol=0.0, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(mixtures_with_points())
def test_mixture_log_pdf_matches_manual_logsumexp(case):
    """The mixture density equals the hand-rolled per-component path."""
    mixture, points = case
    stacked = np.stack(
        [component.log_pdf(points) for component in mixture.components],
        axis=1,
    )
    weighted = stacked + np.log(mixture.weights)[None, :]
    peak = np.max(weighted, axis=1, keepdims=True)
    manual = peak[:, 0] + np.log(np.sum(np.exp(weighted - peak), axis=1))
    manual = np.maximum(manual, LOG_DENSITY_FLOOR)
    np.testing.assert_allclose(
        mixture.log_pdf(points), manual, rtol=0.0, atol=1e-10
    )


@settings(max_examples=100, deadline=None)
@given(mixtures_with_points())
def test_batch_mahalanobis_matches_single(case):
    """The oracle's distance kernel (the row kernel's reference) against
    one triangular solve per component."""
    mixture, points = case
    inverse_choleskys = np.stack(
        [c.factors.inverse_cholesky() for c in mixture.components]
    )
    means = np.stack([c.mean for c in mixture.components])
    batched = batch_mahalanobis_sq(points, means, inverse_choleskys)
    for j, component in enumerate(mixture.components):
        singles = mahalanobis_sq(
            points, component.mean, component.factors
        )
        np.testing.assert_allclose(
            batched[:, j], singles, rtol=0.0, atol=1e-8
        )


def test_batched_kernel_near_singular_covariance():
    """Nearly rank-deficient Σ goes through the regularisation path on
    both sides and still agrees to 1e-10."""
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    cov = np.eye(3) * 1e-12 + 4.0 * np.outer(direction, direction)
    components = (
        Gaussian(np.zeros(3), cov),
        Gaussian(np.array([2.0, -1.0, 0.5]), np.eye(3)),
    )
    mixture = GaussianMixture(np.array([0.5, 0.5]), components)
    rng = np.random.default_rng(0)
    points = rng.normal(scale=3.0, size=(64, 3))
    stacked = np.stack(
        [component.log_pdf(points) for component in components], axis=1
    )
    # Log densities under the collapsed component reach ~1e13, so the
    # agreement bound is relative there (machine precision) and 1e-10
    # absolute everywhere the values are moderate.
    np.testing.assert_allclose(
        mixture.component_log_pdf(points), stacked, rtol=1e-9, atol=1e-10
    )


def test_batch_log_pdf_single_component_matches_gaussian():
    gaussian = Gaussian(
        np.array([1.0, -2.0]), np.array([[2.0, 0.6], [0.6, 1.0]])
    )
    points = np.array([[0.0, 0.0], [1.0, -2.0], [10.0, 10.0]])
    whitener = gaussian.factors.inverse_cholesky()
    rows = batch_log_pdf(
        points,
        np.ascontiguousarray(whitener).T,
        (whitener @ gaussian.mean)[None, :],
        np.array([2 * LOG_2PI + gaussian.log_det]),
    )
    assert rows.shape == (1, 3) and rows.flags.c_contiguous
    np.testing.assert_allclose(
        rows[0], gaussian.log_pdf(points), rtol=0.0, atol=1e-10
    )


@st.composite
def component_stacks(draw, max_dim: int = 5, max_components: int = 6):
    """``(means, covariances, diagonal)``: healthy members beside
    near-singular, singular, indefinite and zero-diagonal ones."""
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_components))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covariances = np.empty((k, dim, dim))
    for j in range(k):
        root = rng.normal(size=(dim, dim))
        kind = draw(
            st.sampled_from(["spd", "spd", "near", "singular", "indefinite", "hollow"])
        )
        if kind == "near":
            root[:, 0] *= 1e-6
        covariances[j] = root @ root.T + (kind == "spd") * np.eye(dim)
        if kind == "singular":
            covariances[j] = np.outer(root[0], root[0])
        elif kind == "indefinite":
            covariances[j] = (root + root.T) / 2.0
        elif kind == "hollow":
            np.fill_diagonal(covariances[j], 0.0)
    return rng.normal(scale=5.0, size=(k, dim)), covariances, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(component_stacks())
def test_a_stack_of_components_is_its_members_built_alone(case):
    """``Gaussian.stack`` / ``GaussianMixture.from_stacks`` against the
    constructor, bit for bit: Σ after the regulariser, ``L``, ``log|Σ|``,
    ``L⁻¹`` -- and with them every density the kernel stack yields."""
    means, covariances, diagonal = case
    components, (kernel_means, choleskys, log_dets) = Gaussian.stack(
        means, covariances, diagonal
    )
    whiteners = inverse_cholesky_stack(choleskys, [c.factors for c in components])
    alone = tuple(
        Gaussian(mean, covariance, diagonal=diagonal)
        for mean, covariance in zip(means, covariances)
    )
    for j, (built, single) in enumerate(zip(components, alone)):
        assert built == single and built.diagonal is single.diagonal
        assert built.covariance.tobytes() == single.covariance.tobytes()
        assert not built.mean.flags.writeable
        assert not built.covariance.flags.writeable
        assert built.factors.cholesky.tobytes() == single.factors.cholesky.tobytes()
        assert choleskys[j].tobytes() == single.factors.cholesky.tobytes()
        assert built.log_det == single.log_det == log_dets[j]
        whitener = single.factors.inverse_cholesky()
        assert built.factors.inverse_cholesky() is not whitener
        assert np.array_equal(built.factors.inverse_cholesky(), whitener)
        assert whiteners[j].strides == whitener.strides
    assert kernel_means.tobytes() == np.stack([c.mean for c in alone]).tobytes()
    weights = np.full(len(alone), 1.0 / len(alone))
    points = means + 0.5
    assert (
        GaussianMixture.from_stacks(weights, means, covariances, diagonal)
        .weighted_log_pdf(points)
        .tobytes()
        == GaussianMixture(weights, alone).weighted_log_pdf(points).tobytes()
    )


def test_a_stack_takes_variances_and_one_flag_per_member():
    variances = np.array([[1.0, 4.0], [-1e-3, 2.0]])
    components, _ = Gaussian.stack(np.zeros((2, 2)), variances, [True, False])
    for built, row, flag in zip(components, variances, [True, False]):
        single = Gaussian(np.zeros(2), np.diag(row), diagonal=flag)
        # A negative variance is floored without leaving a ``-0.0`` behind.
        assert built.covariance.tobytes() == single.covariance.tobytes()
    full = np.array([[[2.0, 0.5], [0.5, 1.0]]] * 2)
    mixed, _ = Gaussian.stack(np.zeros((2, 2)), full, [True, False])
    assert mixed[0] == Gaussian(np.zeros(2), full[0], diagonal=True)
    assert mixed[1] == Gaussian(np.zeros(2), full[1])
    with pytest.raises(ValueError, match="does not match"):
        Gaussian.stack(np.zeros((2, 2)), np.ones((2, 3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        Gaussian.stack(np.zeros((2, 2)), np.array([[1.0, np.nan], [1.0, 1.0]]))
