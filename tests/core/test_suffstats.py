"""Property tests for the sufficient-statistics layer (DESIGN §14).

The incremental pipeline replaces the M-step's centered arithmetic with
moment-form sufficient statistics ``(N, Σrx, Σrxxᵀ)``.  These tests pin
the two formulations together: materialising suffstats built from one
chunk's responsibilities must reproduce :func:`repro.core.em._m_step`
to 1e-10 absolute -- including near-singular covariances (a column
squeezed to 1e-3 scale) and diagonal mode -- so switching a site to the
incremental path can never silently change clustering decisions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.em import EMConfig, _chunk_global_var, _m_step
from repro.core.suffstats import SufficientStats
from repro.streams.synthetic import random_mixture

bounded_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def em_workloads(draw, max_dim: int = 4, max_components: int = 4):
    """A data chunk plus well-conditioned responsibilities.

    Responsibilities get a uniform floor before row-normalisation so no
    component starves: ``_m_step`` re-seeds starved components from the
    worst-density record (a path suffstats deliberately refuse to
    imitate -- :meth:`SufficientStats.materialize` raises instead).
    """
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_components))
    n = draw(st.integers(min_value=max(4, k + 1), max_value=40))
    data = draw(arrays(np.float64, (n, dim), elements=bounded_floats))
    raw = draw(
        arrays(
            np.float64,
            (n, k),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    resp = (raw + 0.25) / (raw + 0.25).sum(axis=1, keepdims=True)
    squeeze = draw(st.booleans())
    if squeeze:
        # Near-singular covariance: one axis collapses to 1e-3 scale.
        data = data.copy()
        data[:, 0] *= 1e-3
    return data, resp


def _reference_mixture(data, resp, config):
    """``_m_step`` reads the posteriors off a density pass; its log
    density only serves the starvation re-seed (never taken here)."""
    e_step = SimpleNamespace(responsibilities=resp)
    return _m_step(data, e_step, config, _chunk_global_var(data))


@pytest.mark.parametrize("diagonal", [False, True])
@settings(max_examples=60, deadline=None)
@given(workload=em_workloads())
def test_materialize_matches_m_step(workload, diagonal):
    data, resp = workload
    config = EMConfig(
        n_components=resp.shape[1], n_init=1, diagonal=diagonal
    )
    expected = _reference_mixture(data, resp, config)
    global_var = float(np.mean(np.var(data, axis=0))) or 1.0
    stats = SufficientStats.from_responsibilities(
        data, resp, diagonal=diagonal
    )
    actual = stats.materialize(
        covariance_ridge=config.covariance_ridge, global_var=global_var
    )
    np.testing.assert_allclose(
        actual.weights, expected.weights, atol=1e-10, rtol=0
    )
    for got, want in zip(actual.components, expected.components):
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-10, rtol=0)
        np.testing.assert_allclose(
            got.covariance, want.covariance, atol=1e-10, rtol=0
        )


@settings(max_examples=40, deadline=None)
@given(workload=em_workloads())
def test_merge_matches_concatenation(workload):
    data, resp = workload
    n = data.shape[0]
    half = n // 2
    merged = SufficientStats.from_responsibilities(
        data[:half], resp[:half]
    ).merge(SufficientStats.from_responsibilities(data[half:], resp[half:]))
    whole = SufficientStats.from_responsibilities(data, resp)
    np.testing.assert_allclose(merged.counts, whole.counts, atol=1e-10)
    np.testing.assert_allclose(merged.sums, whole.sums, atol=1e-10)
    np.testing.assert_allclose(merged.outers, whole.outers, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(workload=em_workloads(), factor=st.floats(min_value=0.1, max_value=5.0))
def test_scaling_preserves_materialized_model(workload, factor):
    data, resp = workload
    stats = SufficientStats.from_responsibilities(data, resp)
    scaled = stats.scaled(factor)
    assert scaled.total == pytest.approx(stats.total * factor)
    base = stats.materialize()
    same = scaled.materialize()
    np.testing.assert_allclose(same.weights, base.weights, atol=1e-12)
    for got, want in zip(same.components, base.components):
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-10)
        np.testing.assert_allclose(
            got.covariance, want.covariance, atol=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(workload=em_workloads())
def test_blend_conserves_target_mass(workload):
    data, resp = workload
    half = data.shape[0] // 2
    if half < 2:
        return
    old = SufficientStats.from_responsibilities(data[:half], resp[:half])
    batch = SufficientStats.from_responsibilities(data[half:], resp[half:])
    target = old.total + batch.total
    blended = old.blend(batch, 0.3, target=target)
    assert blended.total == pytest.approx(target)
    # Repeated passes over the SAME chunk must not inflate the mass:
    # the target pins it (the stepwise-EM invariant).
    again = blended.blend(batch, 0.3, target=target)
    assert again.total == pytest.approx(target)


def test_from_mixture_round_trips():
    rng = np.random.default_rng(7)
    mixture = random_mixture(dim=3, n_components=4, rng=rng)
    stats = SufficientStats.from_mixture(mixture, 500.0)
    back = stats.materialize()
    np.testing.assert_allclose(back.weights, mixture.weights, atol=1e-10)
    for got, want in zip(back.components, mixture.components):
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-10)
        np.testing.assert_allclose(
            got.covariance, want.covariance, atol=1e-9
        )


def test_materialize_rejects_starved_components():
    stats = SufficientStats.zeros(3, 2)
    with pytest.raises(ValueError, match="starved"):
        stats.materialize()


def test_serde_round_trip_exact():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((30, 3))
    resp = rng.dirichlet(np.ones(4), size=30)
    stats = SufficientStats.from_responsibilities(data, resp)
    assert SufficientStats.from_dict(stats.to_dict()) == stats
