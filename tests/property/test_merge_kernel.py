"""Property tests: the log-Cholesky merge-fit objective agrees with the
per-vertex ``Gaussian`` objective it replaced.

``fit_merged_component`` used to decode every simplex vertex into
``Gaussian(mean, L Lᵀ)`` and score it through ``Gaussian.pdf``; it now
scores vertices from ``L`` directly and sends only the ones the
constructor would alter or refuse through the constructor.  The old
objective lives on as ``tests.core.merge_fit_oracle``; these tests pin
the two together over random dimensions, component pairs and vertices --
including the vertices at the edges: log-diagonals outside the clip,
pivots around the regularisation floor, conditioning around the
kernel's own gate, and non-finite coordinates.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gaussian import Gaussian
from repro.core.merging import (
    _pack_parameters,
    _two_component_density,
    _vertex_objective,
)
from repro.core.mixture import GaussianMixture
from repro.numerics.linalg import (
    LOG_CHOLESKY_MAX_CONDITION,
    LOG_PIVOT_CLIP,
    PIVOT_FLOOR,
    log_cholesky_index,
    log_cholesky_l1_losses,
)
from tests.core.merge_fit_oracle import oracle_loss

EPS = float(np.finfo(float).eps)
N_SAMPLES = 48

#: What one drawn vertex is pushed towards.
KINDS = (
    "near",         # a simplex-sized step from the moment-matched seed
    "far",          # a large step: most coordinates move by O(1)
    "clip",         # log-diagonals beyond the ±30 clip
    "floor",        # one pivot within 4x of regularize_covariance's floor
    "gate",         # conditioning within 4x of the kernel's own gate
    "nonfinite",    # a NaN / ±inf covariance coordinate
    "huge",         # a finite coordinate whose square overflows
)


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim))
    return q @ np.diag(rng.uniform(0.05, 10.0, dim)) @ q.T


def _problem(seed: int, dim: int):
    """A merge-fit problem: CRN sample set, the two density vectors, seed θ."""
    rng = np.random.default_rng(seed)
    comp_i = Gaussian(rng.uniform(-5, 5, dim), _random_spd(rng, dim))
    comp_j = Gaussian(
        comp_i.mean + rng.uniform(-3, 3, dim), _random_spd(rng, dim)
    )
    weight_i, weight_j = rng.uniform(0.05, 1.0, 2)
    total = weight_i + weight_j
    proposal = GaussianMixture(
        np.array([weight_i / total, weight_j / total]), (comp_i, comp_j)
    )
    samples, _ = proposal.sample(N_SAMPLES, rng)
    proposal_values = proposal.pdf(samples)
    pair_values = _two_component_density(weight_i, comp_i, weight_j, comp_j)(
        samples
    )
    seed_theta = _pack_parameters(
        comp_i.merge_moments(comp_j, weight_i, weight_j)
    )
    return rng, total, samples, pair_values, proposal_values, seed_theta


def _vertex(rng: np.random.Generator, seed_theta, dim: int, kind: str):
    """One parameter row of the requested kind."""
    theta = seed_theta.copy()
    log_diag = slice(dim, 2 * dim)
    if kind == "near":
        theta *= 1.0 + 0.05 * rng.standard_normal(theta.size)
    else:
        theta += rng.standard_normal(theta.size) * rng.choice([0.3, 1.0])
    pivot = dim + int(rng.integers(dim))
    if kind == "clip":
        theta[pivot] = rng.choice([-1.0, 1.0]) * rng.uniform(
            LOG_PIVOT_CLIP, 3.0 * LOG_PIVOT_CLIP
        )
    elif kind in ("floor", "gate"):
        # Solve for the pivot that puts the vertex at a chosen multiple
        # of the threshold, the other coordinates held fixed.
        others = np.delete(np.exp(theta[log_diag]), pivot - dim)
        rest = float(np.sum(others**2) + np.sum(theta[2 * dim :] ** 2))
        rest = max(rest, 1e-3)
        multiple = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        if kind == "floor":
            theta[pivot] = np.log(multiple * PIVOT_FLOOR * np.sqrt(rest))
        else:
            theta[pivot] = 0.5 * np.log(
                multiple * rest / LOG_CHOLESKY_MAX_CONDITION
            )
    elif kind == "nonfinite":
        theta[dim + int(rng.integers(theta.size - dim))] = rng.choice(
            [np.nan, np.inf, -np.inf]
        )
    elif kind == "huge":
        theta[dim + int(rng.integers(theta.size - dim))] = rng.choice(
            [-1.0, 1.0]
        ) * 10.0 ** rng.uniform(150, 300)
    return theta


def _condition_bound(theta: np.ndarray, dim: int) -> float:
    """``‖L‖_F² ‖L⁻¹‖_F²`` of a finite vertex (``inf`` if singular)."""
    factor = np.zeros((dim, dim))
    entries = theta[dim:].copy()
    entries[:dim] = np.exp(
        np.clip(entries[:dim], -LOG_PIVOT_CLIP, LOG_PIVOT_CLIP)
    )
    factor[log_cholesky_index(dim)] = entries
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(factor)
        except np.linalg.LinAlgError:
            return np.inf
        return float(np.sum(factor**2) * np.sum(inverse**2))


vertex_batches = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(vertex_batches)
def test_objective_matches_the_per_vertex_gaussian_objective(case):
    seed, dim, kinds = case
    rng, total, samples, pair_values, proposal_values, seed_theta = _problem(
        seed, dim
    )
    thetas = np.stack([_vertex(rng, seed_theta, dim, k) for k in kinds])
    objective = _vertex_objective(total, samples, pair_values, proposal_values)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = objective(thetas)
        by_row = np.array([objective(row[None, :])[0] for row in thetas])
    # A batch is its rows, bit for bit.
    np.testing.assert_array_equal(batched, by_row)

    for theta, new in zip(thetas, batched):
        with warnings.catch_warnings():
            # The oracle multiplies L Lᵀ out and may overflow doing so.
            warnings.simplefilter("ignore")
            old = oracle_loss(
                theta, samples, pair_values, proposal_values, total
            )
        if not np.isfinite(old):
            assert not np.isfinite(new)
            continue
        # Decoding through the constructor re-factorises L Lᵀ, which
        # costs cond(Σ)·ε of the factor; the direct value does not pay it.
        tolerance = 1e-12 + 32.0 * EPS * min(
            _condition_bound(theta, dim), LOG_CHOLESKY_MAX_CONDITION
        )
        assert abs(new - old) <= tolerance * abs(old), (kinds, new, old)


@settings(max_examples=100, deadline=None)
@given(vertex_batches)
def test_declined_rows_are_exactly_the_constructor_value(case):
    """Whatever the kernel declines is scored by the old code path itself."""
    seed, dim, kinds = case
    rng, total, samples, pair_values, proposal_values, seed_theta = _problem(
        seed, dim
    )
    thetas = np.stack([_vertex(rng, seed_theta, dim, k) for k in kinds])
    kernel = log_cholesky_l1_losses(
        thetas,
        np.ascontiguousarray(samples.T),
        pair_values / proposal_values,
        total / proposal_values,
        log_cholesky_index(dim),
    )
    objective = _vertex_objective(total, samples, pair_values, proposal_values)
    values = objective(thetas)
    for theta, direct, value in zip(thetas, kernel, values):
        if not np.isnan(direct):
            assert _condition_bound(theta, dim) <= 1.01 * LOG_CHOLESKY_MAX_CONDITION
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = oracle_loss(
                theta, samples, pair_values, proposal_values, total
            )
        assert value == old or (np.isinf(value) and np.isinf(old))


def test_well_conditioned_vertices_agree_to_1e_12():
    """Around the seed -- where a search spends its time -- the two
    objectives are equal to rounding, far inside the 1e-12 budget."""
    worst = 0.0
    for seed in range(40):
        dim = 1 + seed % 8
        rng, total, samples, pair_values, proposal_values, seed_theta = (
            _problem(seed, dim)
        )
        thetas = np.stack(
            [_vertex(rng, seed_theta, dim, "near") for _ in range(12)]
        )
        objective = _vertex_objective(
            total, samples, pair_values, proposal_values
        )
        new = objective(thetas)
        old = np.array(
            [
                oracle_loss(t, samples, pair_values, proposal_values, total)
                for t in thetas
            ]
        )
        worst = max(worst, float(np.max(np.abs(new - old) / old)))
    assert worst <= 1e-12
