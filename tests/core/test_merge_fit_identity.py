"""The log-Cholesky merge fit runs the *same search* as the per-vertex
``Gaussian`` objective it replaced.

Scoring vertices from ``L`` directly (and the initial simplex as one
batch) is only a cheaper way to compute the same numbers: every
comparison the simplex makes must come out as before, so the accepted
vertices, ``iterations`` and ``evaluations`` are identical and nothing
downstream -- merges, splits, the global mixture -- moves.  The old
objective is kept as ``tests.core.merge_fit_oracle``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.coordinator as coordinator_module
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.merging import fit_merged_component
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from tests.core.merge_fit_oracle import oracle_fit_merged_component

#: (label, gap in pooled sigmas, weight_i, diagonal inputs)
SHAPES = (
    ("overlapping", 0.4, 0.5, False),
    ("well-separated", 5.0, 0.5, False),
    ("asymmetric-weights", 2.0, 0.9, False),
    ("diagonal", 1.5, 0.35, True),
)
DIMS = (2, 4, 16)
SEEDS = (0, 1)


def _pair(seed: int, dim: int, gap: float, diagonal: bool):
    rng = np.random.default_rng([seed, dim])

    def covariance() -> np.ndarray:
        if diagonal:
            return np.diag(rng.uniform(0.3, 2.5, dim))
        root = rng.standard_normal((dim, dim))
        return root @ root.T / dim + 0.25 * np.eye(dim)

    comp_i = Gaussian(rng.standard_normal(dim), covariance(), diagonal=diagonal)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    comp_j = Gaussian(
        comp_i.mean + gap * direction, covariance(), diagonal=diagonal
    )
    return comp_i, comp_j


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("label, gap, weight_i, diagonal", SHAPES)
def test_fit_takes_the_same_steps_as_the_oracle(
    label, gap, weight_i, diagonal, dim, seed
):
    comp_i, comp_j = _pair(seed, dim, gap, diagonal)
    kwargs = dict(n_samples=256, max_iter=80)
    new = fit_merged_component(
        weight_i, comp_i, 1.0 - weight_i, comp_j,
        rng=np.random.default_rng(seed), **kwargs,
    )
    old = oracle_fit_merged_component(
        weight_i, comp_i, 1.0 - weight_i, comp_j,
        rng=np.random.default_rng(seed), **kwargs,
    )
    assert (new.iterations, new.evaluations) == (
        old.iterations,
        old.evaluations,
    )
    assert new.evaluations > new.iterations > 0
    assert new.loss == pytest.approx(old.loss, rel=1e-12, abs=0.0)
    assert new.moment_loss == old.moment_loss
    assert new.weight == old.weight
    np.testing.assert_allclose(
        new.component.mean, old.component.mean, rtol=0.0, atol=1e-10
    )
    np.testing.assert_allclose(
        new.component.covariance, old.component.covariance,
        rtol=0.0, atol=1e-10,
    )


def test_moment_method_reports_no_search():
    comp_i, comp_j = _pair(0, 2, 1.0, False)
    fit = fit_merged_component(0.5, comp_i, 0.5, comp_j, method="moment")
    assert (fit.iterations, fit.evaluations) == (0, 0)


# ----------------------------------------------------------------------
# Coordinator level: a seeded 4-site drift run
# ----------------------------------------------------------------------
def _regime(center: np.ndarray) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.6, 0.4]),
        (
            Gaussian.spherical(center, 0.4),
            Gaussian.spherical(center + np.array([0.0, 3.0]), 0.6),
        ),
    )


def _drift_run(monkeypatch, fit, jumps=(0, 1, 2), seed=11) -> CluDistream:
    """4 sites, each jumping through ``jumps`` (400 records a regime);
    simplex merges, cap 3."""
    monkeypatch.setattr(coordinator_module, "fit_merged_component", fit)
    config = CluDistreamConfig(
        n_sites=4,
        site=RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=200,
        ),
        coordinator=CoordinatorConfig(max_components=3, merge_samples=256),
    )
    system = CluDistream(config, seed=3)
    streams = {}
    for site in range(4):
        rng = np.random.default_rng([seed, site])
        parts = [
            _regime(np.array([4.0 * site + 9.0 * jump, -2.0 * jump])).sample(
                400, rng
            )[0]
            for jump in jumps
        ]
        streams[site] = list(np.concatenate(parts))
    system.feed_streams(streams, max_records_per_site=400 * len(jumps))
    return system


def _recurring_run(monkeypatch, fit) -> CluDistream:
    """:func:`_drift_run` with regime 0 recurring, so the sites' model-0
    counters grow again (weight updates) and Algorithm 2 splits for a
    real reason: a pool moved away from a leaf.  With no rounding left in
    the split test, the three-regime drift run splits no leaf."""
    return _drift_run(monkeypatch, fit, jumps=(0, 1, 0), seed=3)


def _drift_end(monkeypatch, fit) -> tuple[CluDistream, GaussianMixture, int]:
    """:func:`_recurring_run`, its final global mixture and the fits it ran.

    The mixture is read while ``fit`` is still the one installed: a
    father nobody read during the run is searched by this read.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    system = _recurring_run(monkeypatch, counting)
    return system, system.global_mixture(), len(calls)


def test_drift_run_ends_where_the_oracle_objective_ends(monkeypatch):
    """Both runs search the same fathers -- the ones read -- once each,
    and no more of them than there were merges."""
    new, mix_new, new_calls = _drift_end(monkeypatch, fit_merged_component)
    old, mix_old, old_calls = _drift_end(monkeypatch, oracle_fit_merged_component)

    assert 0 < new_calls == old_calls <= old.coordinator.stats.merges
    assert old.coordinator.stats.splits > 0
    assert new.coordinator.n_components == old.coordinator.n_components
    assert new.coordinator.stats.merges == old.coordinator.stats.merges
    assert new.coordinator.stats.splits == old.coordinator.stats.splits
    np.testing.assert_allclose(
        mix_new.weights, mix_old.weights, rtol=0.0, atol=1e-9
    )
    for comp_new, comp_old in zip(mix_new.components, mix_old.components):
        np.testing.assert_allclose(
            comp_new.mean, comp_old.mean, rtol=0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            comp_new.covariance, comp_old.covariance, rtol=0.0, atol=1e-9
        )
