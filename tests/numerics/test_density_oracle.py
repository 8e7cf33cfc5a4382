"""The row kernel against the ``(n, K)`` kernel it replaced, bit for bit.

``GaussianMixture`` writes ``log(w_j p(x|j))`` as ``K`` contiguous rows
from constants it derives once, and ``EStep`` reduces those rows with
shifted values under ``log(tiny)`` floored to ``-inf`` before the
``exp``.  Against :mod:`tests.numerics.density_oracle` (the parent
kernel, every constant re-derived, no floor):

* the public ``(n, K)`` matrices, the floored log densities, their
  max-component form and ``AvgPr`` are the same bytes;
* a posterior entry moves only where the floor made it exactly 0, and
  there the oracle's entry was under ``tiny``.

Both sides reduce the same ``K`` rows left to right, so this holds at
every ``K``, past eight included; the association note of DESIGN.md
§10.2 (rows against ``numpy.sum`` over a strided axis) is
``tests/core/test_em_identity.py``'s, unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from tests.numerics.density_oracle import (
    oracle_component_log_pdf,
    oracle_e_step,
    oracle_weighted_log_pdf,
)

TINY = np.finfo(float).tiny


@st.composite
def mixtures_and_points(draw):
    """Mixtures at d = 1…8, K = 1…12, built stacked or one component at
    a time, with zero weights and near-singular members; n ∈ {0, 1, 7,
    500} points around and far from them, one row possibly at 1e6 or at
    1e200 (whose squared distance overflows: an all ``-inf`` row)."""
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([500, 7, 1, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = rng.normal(size=(k, dim, dim))
    near = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    roots[near, :, 0] *= 1e-6
    covariances = roots @ roots.transpose(0, 2, 1) + np.where(
        near, 0.0, 0.1
    )[:, None, None] * np.eye(dim)
    means = rng.normal(scale=3.0, size=(k, dim))
    weights = rng.random(k) + 0.05
    zero = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    weights[zero & (np.arange(k) > 0)] = 0.0
    if draw(st.booleans()):
        mixture = GaussianMixture.from_stacks(weights, means, covariances)
    else:
        mixture = GaussianMixture(
            weights, tuple(Gaussian(m, c) for m, c in zip(means, covariances))
        )
    spread = draw(st.sampled_from([10.0, 1.0, 40.0]))
    points = means[rng.integers(k, size=n)] + rng.normal(scale=spread, size=(n, dim))
    far = draw(st.sampled_from([None, 1e6, 1e200]))
    if far is not None and n:
        points[rng.integers(n), rng.integers(dim)] = far
    return mixture, points


@settings(max_examples=150, deadline=None)
@given(case=mixtures_and_points())
def test_row_kernel_is_the_oracle(case):
    mixture, points = case
    n, k = points.shape[0], mixture.n_components
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weighted = mixture.weighted_log_pdf(points)
        component = mixture.component_log_pdf(points)
        e_step = mixture.e_step(points)
        log_density = e_step.log_density
        responsibilities = e_step.responsibilities
        old_weighted = oracle_weighted_log_pdf(mixture, points)
        old_component = oracle_component_log_pdf(mixture, points)
        old = oracle_e_step(mixture, points)
    for new, reference in ((weighted, old_weighted), (component, old_component)):
        assert new.shape == (n, k) and new.flags.c_contiguous
        assert new.tobytes() == reference.tobytes()
    assert e_step.weighted.tobytes() == old_weighted.tobytes()
    assert log_density.tobytes() == old["log_density"].tobytes()
    assert e_step.max_log_density.tobytes() == old["max_log_density"].tobytes()
    if n:
        assert e_step.log_likelihood == old["log_likelihood"]
    else:
        with pytest.raises(ValueError, match="empty"):
            e_step.log_likelihood
    assert responsibilities.shape == (n, k) and responsibilities.flags.c_contiguous
    moved = responsibilities != old["responsibilities"]
    assert (responsibilities[moved] == 0.0).all()
    assert (old["responsibilities"][moved] < TINY).all()
    kept = ~moved
    assert (
        responsibilities[kept].tobytes()
        == old["responsibilities"][kept].tobytes()
    )


def test_the_floor_zeroes_subnormal_posteriors_only():
    """Two components 38 standard deviations apart in d = 1: at ``x``
    the far one's log posterior is ``38x - 722``, subnormal for ``x`` in
    (-0.59, 0.36), and 0 after the floor; the likelihood and the near
    component's posterior are the oracle's bytes."""
    mixture = GaussianMixture(
        [0.5, 0.5],
        (Gaussian(np.zeros(1), np.eye(1)), Gaussian(np.full(1, 38.0), np.eye(1))),
    )
    points = np.linspace(-0.5, 0.3, 17)[:, None]
    old = oracle_e_step(mixture, points)
    e_step = mixture.e_step(points)
    assert (0.0 < old["responsibilities"][:, 1]).all()
    assert (old["responsibilities"][:, 1] < TINY).all()
    assert (e_step.responsibilities[:, 1] == 0.0).all()
    assert (
        e_step.responsibilities[:, 0].tobytes()
        == old["responsibilities"][:, 0].tobytes()
    )
    assert e_step.log_density.tobytes() == old["log_density"].tobytes()
    assert e_step.log_likelihood == old["log_likelihood"]
