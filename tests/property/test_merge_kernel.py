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

The kernel is an object with two bodies -- one for a single row, one
for a batch walked in blocks -- over workspaces it keeps between calls.
The second half of this file pins that none of that shows: a row is
scored to the same bits whichever body scores it, however a batch is
cut, and whatever the buffers held before.
"""

from __future__ import annotations

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.numerics.linalg as linalg
from repro.core.gaussian import Gaussian
from repro.core.merging import (
    _pack_parameters,
    _two_component_density,
    _VertexObjective,
)
from repro.core.mixture import GaussianMixture
from repro.numerics.linalg import (
    LOG_CHOLESKY_MAX_CONDITION,
    LOG_PIVOT_CLIP,
    PIVOT_FLOOR,
    LogCholeskyL1Loss,
    log_cholesky_index,
)
from repro.numerics.simplex import nelder_mead
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


def _problem(seed: int, dim: int, n_samples: int = N_SAMPLES):
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
    samples, _ = proposal.sample(n_samples, rng)
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


def _kernel(total, samples, pair_values, proposal_values):
    """The kernel object ``_VertexObjective`` builds for this problem."""
    return LogCholeskyL1Loss(
        np.ascontiguousarray(samples.T),
        pair_values / proposal_values,
        total / proposal_values,
        log_cholesky_index(samples.shape[1]),
    )


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
    objective = _VertexObjective(total, samples, pair_values, proposal_values)

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
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernel(total, samples, pair_values, proposal_values)(thetas)
    objective = _VertexObjective(total, samples, pair_values, proposal_values)
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
        objective = _VertexObjective(
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


# ----------------------------------------------------------------------
# One kernel, two bodies, kept workspaces
# ----------------------------------------------------------------------
def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _score(kernel: LogCholeskyL1Loss, thetas: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel(thetas)


def _row_by_row(kernel: LogCholeskyL1Loss, thetas: np.ndarray) -> np.ndarray:
    """Every row on its own: ``(1, p)`` is what selects the row body."""
    return np.concatenate([_score(kernel, row[None, :]) for row in thetas])


def _fresh_kernel(seed: int, dim: int, n_samples: int = N_SAMPLES):
    """A kernel nothing has been scored on yet, and vertices to score."""
    rng, total, samples, pair_values, proposal_values, seed_theta = _problem(
        seed, dim, n_samples
    )
    kernel = _kernel(total, samples, pair_values, proposal_values)

    def vertices(kinds) -> np.ndarray:
        return np.stack([_vertex(rng, seed_theta, dim, k) for k in kinds])

    return kernel, vertices


vertex_batches_of_two_or_more = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.lists(st.sampled_from(KINDS), min_size=2, max_size=7),
)


@settings(max_examples=150, deadline=None)
@given(vertex_batches_of_two_or_more)
def test_row_body_is_the_batch_body_bit_for_bit(case):
    seed, dim, kinds = case
    kernel, vertices = _fresh_kernel(seed, dim)
    thetas = vertices(kinds)
    batch = _score(kernel, thetas)
    rows = _row_by_row(kernel, thetas)
    # The same rows are declined, and the others carry the same bits.
    np.testing.assert_array_equal(np.isnan(batch), np.isnan(rows))
    np.testing.assert_array_equal(_bits(batch), _bits(rows))


@settings(max_examples=100, deadline=None)
@given(vertex_batches_of_two_or_more, st.integers(min_value=1, max_value=3))
def test_a_batch_walked_in_blocks_is_the_batch_whole(case, block_rows):
    seed, dim, kinds = case
    whole_kernel, vertices = _fresh_kernel(seed, dim)
    thetas = vertices(kinds)
    row_bytes = 8 * N_SAMPLES * (2 * dim + 1)
    with mock.patch.object(
        linalg, "LOG_CHOLESKY_WORKSPACE_BYTES", block_rows * row_bytes
    ):
        blocked_kernel, _ = _fresh_kernel(seed, dim)
    assert blocked_kernel._block_rows == block_rows
    assert whole_kernel._block_rows >= len(kinds)
    np.testing.assert_array_equal(
        _bits(_score(blocked_kernel, thetas)),
        _bits(_score(whole_kernel, thetas)),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        ),
        min_size=2,
        max_size=8,
    ),
)
def test_a_result_does_not_depend_on_what_the_buffers_held(seed, schedule):
    """Two live kernels of different ``d`` and ``n`` take turns -- single
    rows after batches, regular rows after declined ones -- and every
    call returns what a kernel that has scored nothing returns."""
    shapes = ((3, 48), (5, 31))
    live = [_fresh_kernel(seed, dim, n)[0] for dim, n in shapes]
    for which, kinds in schedule:
        fresh, vertices = _fresh_kernel(seed, *shapes[which])
        thetas = vertices(kinds)
        np.testing.assert_array_equal(
            _bits(_score(live[which], thetas)), _bits(_score(fresh, thetas))
        )


def test_regular_row_after_a_declined_row():
    """The declined row leaves ``L`` and ``L⁻¹`` full of ``inf``/``nan``;
    the next row must not see them."""
    kernel, vertices = _fresh_kernel(5, 4)
    regular = vertices(["near"])
    expected = _score(kernel, regular)
    assert np.isfinite(expected).all()
    for kind in ("nonfinite", "huge", "clip", "near"):
        declined = vertices([kind])
        _score(kernel, declined)
        np.testing.assert_array_equal(
            _bits(_score(kernel, regular)), _bits(expected)
        )


@pytest.mark.parametrize("kind", ["huge", "nonfinite"])
@pytest.mark.parametrize("rows", [1, 3])
def test_direct_call_at_overflowing_vertices_is_silent(kind, rows):
    """A search enters ``errstate`` once and calls ``score``; anyone else
    calls the objective, which guards itself."""
    for seed in range(20):
        rng, total, samples, pair_values, proposal_values, seed_theta = (
            _problem(seed, 1 + seed % 5)
        )
        objective = _VertexObjective(
            total, samples, pair_values, proposal_values
        )
        thetas = np.stack(
            [_vertex(rng, seed_theta, 1 + seed % 5, kind) for _ in range(rows)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = objective(thetas)
        assert values.shape == (rows,)
        assert not np.isnan(values).any()


def test_search_phase_of_a_16_dimensional_fit_stays_under_a_megabyte():
    """Building the objective and running the search at d = 16, n = 512:
    the initial batch is 153 rows, which as one batch was 2 x 10 MB of
    whitening temporaries."""
    dim, n_samples = 16, 512
    _, total, samples, pair_values, proposal_values, seed_theta = _problem(
        3, dim, n_samples
    )
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        objective = _VertexObjective(
            total, samples, pair_values, proposal_values
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = nelder_mead(
                objective.score, seed_theta, max_iter=40, vectorized=True
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert result.evaluations >= seed_theta.size + 1 + 40
    assert peak - before <= 1 << 20
