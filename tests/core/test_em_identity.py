"""Computing once changes no result on the model path.

``Gaussian`` keeps the Cholesky factor that accepted its covariance,
``GaussianMixture.e_step`` makes one density pass per (model, chunk)
that the fit test, the absorption, the reference statistics and each EM
iterate's next M-step share, and the absorb step's second moments are
one batched product.  ``tests.core.em_oracle`` keeps the path as it was
-- every consumer evaluating the densities for itself -- and this suite
drives both over the same inputs:

* the primitives (``spd_factorize``, the E-step, the pool of one leaf)
  are **bit-identical** to the reference on random inputs, near-singular
  Σ, zero weights and rows no component can explain included;
* ``fit_em`` / ``incremental_em`` / ``absorb_chunk`` return the same
  bytes, histories and iteration counts, or raise the same error;
* classic sites follow a **bit-identical** trajectory -- messages,
  checkpoint (models, reference statistics, counters, event table, rng)
  after every chunk -- and so do incremental sites once the moment
  kernel is held fixed; against the ``einsum`` reference kernel the
  incremental trajectory keeps every id, counter and event exactly and
  every float to 1e-9 relative.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import (
    EMConfig,
    absorb_chunk,
    fit_em,
    incremental_em,
)
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import get_codec
from repro.core.suffstats import SufficientStats
from repro.core.testing import LikelihoodVariant
from repro.io.checkpoint import snapshot_site
from repro.numerics.linalg import spd_factorize
from tests.core import em_oracle
from tests.core.test_refit_ladder import CHUNK, DIM, far_mixture, regime_chunk
from tests.core.em_oracle import (
    assert_close,
    einsum_moments,
    oracle_absorb_chunk,
    oracle_incremental_em,
    oracle_log_pdf,
    oracle_model_path,
    oracle_posterior,
    oracle_spd_factorize,
)

ENCODE = get_codec("cds1").encode


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
@st.composite
def covariances(draw, max_dim: int = 5):
    """SPD, near-singular, singular and indefinite symmetric matrices."""
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["spd", "near", "singular", "indefinite", "tiny"]))
    root = rng.normal(size=(dim, dim))
    if kind == "spd":
        return root @ root.T + np.eye(dim)
    if kind == "near":
        root[:, 0] *= 10.0 ** -draw(st.integers(3, 9))
        return root @ root.T
    if kind == "singular":
        root[:, -1] = root[:, 0]
        return root.T @ root
    if kind == "tiny":
        return (root @ root.T) * 1e-13
    return (root + root.T) / 2.0


@settings(max_examples=200, deadline=None)
@given(matrix=covariances())
def test_factor_once_is_factor_twice(matrix):
    factors = spd_factorize(matrix)
    covariance, cholesky, log_det = oracle_spd_factorize(matrix)
    assert factors.covariance.tobytes() == covariance.tobytes()
    assert factors.cholesky.tobytes() == cholesky.tobytes()
    assert factors.log_det == log_det


@st.composite
def mixtures_and_points(draw):
    """A random mixture -- some Σ near-singular, some weights zero --
    and points from its bulk, its far tail and beyond every density."""
    dim = draw(st.integers(1, 4))
    # Up to seven: the widest mixture whose row sums add in numpy's order.
    k = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = []
    for _ in range(k):
        root = rng.normal(size=(dim, dim))
        if draw(st.booleans()):
            root[:, 0] *= 1e-4
        components.append(Gaussian(rng.normal(scale=3.0, size=dim), root @ root.T))
    weights = rng.random(k) + 0.05
    if k > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, k - 1))] = 0.0
    mixture = GaussianMixture(weights, tuple(components))
    points, _ = mixture.sample(draw(st.integers(1, 30)), rng)
    far = draw(st.sampled_from([None, 60.0, 1e6, 1e200]))
    if far is not None:
        points[draw(st.integers(0, points.shape[0] - 1))] = far
    return mixture, points


@settings(max_examples=200, deadline=None)
@given(case=mixtures_and_points())
def test_e_step_is_log_pdf_and_posterior(case):
    mixture, points = case
    # 1e200 overflows the squared distance: an all ``-inf`` row.
    with np.errstate(over="ignore", invalid="ignore"):
        e_step = mixture.e_step(points)
        log_density = oracle_log_pdf(mixture, points)
        posterior = oracle_posterior(mixture, points)
    assert e_step.log_density.tobytes() == log_density.tobytes()
    assert e_step.responsibilities.tobytes() == posterior.tobytes()
    assert e_step.log_likelihood == float(np.mean(log_density))
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.max(mixture.weighted_log_pdf(points), axis=1)
    assert e_step.max_log_density.tobytes() == np.maximum(peak, -745.0).tobytes()
    # The public views read the same pass.
    with np.errstate(over="ignore", invalid="ignore"):
        assert mixture.log_pdf(points).tobytes() == log_density.tobytes()
        assert mixture.posterior(points).tobytes() == posterior.tobytes()
        assert mixture.average_log_likelihood(points) == e_step.log_likelihood


@pytest.mark.parametrize("k", [8, 12, 17])
def test_wide_mixtures_sum_their_rows_in_another_order(k):
    """From eight components on the bits may move, by an association and
    no more: ``numpy.sum`` adds a strided axis of eight or more terms in
    blocks of eight, the row reduction adds the ``K`` rows strictly left
    to right.  Each total is a sum of ``K`` non-negative terms, so the
    two orders differ by at most a few ulp (5 measured at K = 17; 8 is
    the bound), and so does everything divided by or logged from it.
    The peak -- a maximum -- is exact at every ``K``."""
    rng = np.random.default_rng(k)
    components = tuple(
        Gaussian(rng.normal(scale=2.0, size=3), np.eye(3) * rng.uniform(0.5, 2.0))
        for _ in range(k)
    )
    mixture = GaussianMixture(rng.random(k) + 0.05, components)
    points, _ = mixture.sample(400, rng)
    e_step = mixture.e_step(points)
    log_density = oracle_log_pdf(mixture, points)
    posterior = oracle_posterior(mixture, points)
    for new, old in (
        (e_step.log_density, log_density),
        (e_step.responsibilities, posterior),
    ):
        assert np.all(np.abs(new - old) <= 8 * np.spacing(np.abs(old)))
    peak = np.max(mixture.weighted_log_pdf(points), axis=1)
    assert e_step.max_log_density.tobytes() == np.maximum(peak, -745.0).tobytes()


def test_unexplained_row_falls_back_to_the_weights():
    mixture = GaussianMixture(
        [0.25, 0.75],
        (Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.ones(2), np.eye(2))),
    )
    points = np.array([[0.0, 0.0], [1e200, 0.0]])
    with np.errstate(over="ignore"):
        e_step = mixture.e_step(points)
    assert np.isneginf(e_step.weighted[1]).all()
    assert e_step.responsibilities[1].tolist() == [0.25, 0.75]
    assert e_step.log_density[1] == -745.0
    assert e_step.max_log_density[1] == -745.0


@settings(max_examples=100, deadline=None)
@given(matrix=covariances(), seed=st.integers(0, 2**32 - 1))
def test_pool_of_one_leaf_is_its_moment_match(matrix, seed):
    """What ``pooled_gaussian`` computed for a singleton: weight 1 times
    the leaf's moments, through the constructor again."""
    mean = np.random.default_rng(seed).normal(size=matrix.shape[0])
    leaf = Gaussian(mean, matrix)
    means = np.stack([leaf.mean])
    weights = np.ones(1)
    pooled_mean = weights @ means
    deltas = means - pooled_mean
    pooled = Gaussian(
        pooled_mean,
        np.einsum("k,kij->ij", weights, np.stack([leaf.covariance]))
        + np.einsum("k,ki,kj->ij", weights, deltas, deltas),
    )
    assert GaussianMixture.single(leaf).pooled_gaussian() == pooled


# ----------------------------------------------------------------------
# fit_em / incremental_em / absorb_chunk
# ----------------------------------------------------------------------
def mixture_bytes(mixture: GaussianMixture) -> bytes:
    return mixture.weights.tobytes() + b"".join(
        c.mean.tobytes() + c.covariance.tobytes() for c in mixture.components
    )


def em_outcome(result):
    return (
        mixture_bytes(result.mixture),
        result.log_likelihood,
        result.n_iter,
        result.converged,
        result.history,
    )


def incremental_outcome(call):
    try:
        result = call()
    except (ValueError, np.linalg.LinAlgError) as error:
        return type(error).__name__, str(error)
    return (
        mixture_bytes(result.mixture),
        json.dumps(result.stats.to_dict()),
        result.log_likelihood,
        result.n_steps,
        result.history,
    )


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("n_init", [1, 3])
def test_cold_fit_is_identical(diagonal, n_init):
    rng = np.random.default_rng(5)
    data = np.concatenate([regime_chunk(rng, 0.0), regime_chunk(rng, 0.0)])
    config = EMConfig(n_components=3, n_init=n_init, max_iter=30, diagonal=diagonal)
    new = fit_em(data, config, np.random.default_rng(9))
    with oracle_model_path():
        old = fit_em(data, config, np.random.default_rng(9))
    assert em_outcome(new) == em_outcome(old)
    assert new.n_iter > 1


@pytest.mark.parametrize("zero_weight", [False, True])
def test_warm_fit_reseeds_starved_components_identically(zero_weight):
    data = regime_chunk(np.random.default_rng(6), 0.0)
    config = EMConfig(n_components=3, n_init=1, max_iter=25)
    em_oracle.RESEEDS.clear()
    new = fit_em(
        data, config, np.random.default_rng(1), warm_start=far_mixture(zero_weight)
    )
    assert not em_oracle.RESEEDS
    with oracle_model_path():
        old = fit_em(
            data, config, np.random.default_rng(1), warm_start=far_mixture(zero_weight)
        )
    assert em_oracle.RESEEDS, "the stream never starved a component"
    assert em_outcome(new) == em_outcome(old)


@pytest.mark.parametrize("diagonal", [False, True])
def test_incremental_em_is_identical_under_one_kernel(diagonal):
    rng = np.random.default_rng(12)
    config = EMConfig(n_components=3, n_init=1, diagonal=diagonal)
    mixture = fit_em(regime_chunk(rng, 0.0), config, rng).mixture
    drifted = regime_chunk(rng, 0.8)
    kernel = SufficientStats.from_responsibilities
    assert incremental_outcome(
        lambda: incremental_em(drifted, mixture, config)
    ) == incremental_outcome(
        lambda: oracle_incremental_em(drifted, mixture, config, moments=kernel)
    )
    assert incremental_outcome(
        lambda: absorb_chunk(drifted, mixture, config)
    ) == incremental_outcome(
        lambda: oracle_absorb_chunk(drifted, mixture, config, moments=kernel)
    )


def test_absorb_reads_the_pass_it_is_handed():
    rng = np.random.default_rng(13)
    config = EMConfig(n_components=3, n_init=1)
    mixture = fit_em(regime_chunk(rng, 0.0), config, rng).mixture
    chunk = regime_chunk(rng, 0.1)
    handed = absorb_chunk(chunk, mixture, config, e_step=mixture.e_step(chunk))
    alone = absorb_chunk(chunk, mixture, config)
    assert incremental_outcome(lambda: handed) == incremental_outcome(lambda: alone)
    # ... and returns the pass of the *updated* mixture.
    updated = handed.mixture.e_step(chunk)
    assert handed.e_step.weighted.tobytes() == updated.weighted.tobytes()
    assert handed.log_likelihood == updated.log_likelihood
    with pytest.raises(ValueError, match="not a pass of"):
        absorb_chunk(chunk, mixture, config, e_step=mixture.e_step(chunk[:-1]))


@pytest.mark.parametrize(
    "case", ["zero_weight", "unexplained_row", "starved", "dimension", "nan"]
)
def test_incremental_functions_fail_identically(case):
    """Whatever the reference raised -- a starved component at
    materialisation, moments that overflowed -- is still raised."""
    rng = np.random.default_rng(14)
    config = EMConfig(n_components=3, n_init=1)
    mixture = fit_em(regime_chunk(rng, 0.0), config, rng).mixture
    chunk = regime_chunk(rng, 0.0)
    kwargs = {}
    if case == "zero_weight":
        mixture = GaussianMixture([0.0, 0.5, 0.5], mixture.components)
    elif case == "unexplained_row":
        chunk[3] = 1e200
    elif case == "starved":
        mixture = far_mixture()
        kwargs["stats"] = SufficientStats.from_mixture(mixture, 1e-9)
    elif case == "dimension":
        chunk = chunk[:, :2]
    elif case == "nan":
        chunk[0, 0] = np.nan
    kernel = SufficientStats.from_responsibilities
    with np.errstate(all="ignore"):
        for new, old in (
            (incremental_em, oracle_incremental_em),
            (absorb_chunk, oracle_absorb_chunk),
        ):
            got = incremental_outcome(lambda: new(chunk, mixture, config, **kwargs))
            want = incremental_outcome(
                lambda: old(chunk, mixture, config, moments=kernel, **kwargs)
            )
            assert got == want
            if case != "starved":
                assert got[0] == "ValueError"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 400),
    k=st.integers(1, 5),
    dim=st.integers(1, 6),
)
def test_moment_kernel_matches_the_einsum(seed, n, k, dim):
    rng = np.random.default_rng(seed)
    data = rng.normal(scale=5.0, size=(n, dim)) + rng.normal(scale=20.0, size=dim)
    resp = rng.dirichlet(np.full(k, 0.3), size=n)
    new = SufficientStats.from_responsibilities(data, resp)
    old = einsum_moments(data, resp)
    assert new.counts.tobytes() == old.counts.tobytes()
    assert new.sums.tobytes() == old.sums.tobytes()
    # float64 sums of n products in another order: n·ε of the scale.
    scale = np.abs(old.outers).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(new.outers - old.outers) <= 4e-16 * n * scale)


# ----------------------------------------------------------------------
# Site trajectories
# ----------------------------------------------------------------------
def site_config(
    *, incremental: bool, variant=LikelihoodVariant.MIXTURE, **overrides
) -> RemoteSiteConfig:
    em = dict(n_components=3, n_init=1, max_iter=30, incremental=incremental)
    em.update(overrides.pop("em", {}))
    base = dict(
        dim=DIM,
        epsilon=0.05,
        delta=0.05,
        c_max=3,
        em=EMConfig(**em),
        variant=variant,
        chunk_override=CHUNK,
    )
    base.update(overrides)
    return RemoteSiteConfig(**base)


def drift_stream(seed: int, *, missing: bool = False) -> list[np.ndarray]:
    """Passing chunks, slow drift, abrupt jumps and a revisited regime:
    every transition of Algorithm 1 and every rung of the ladder."""
    rng = np.random.default_rng(seed)
    chunks = []
    for offset in (0.0, 0.0, 0.0, 0.4, 0.8, 6.0, 6.0, 0.0, 0.0, 12.0, 12.3, 6.0):
        chunks.append(regime_chunk(rng, offset))
    if missing:
        for index in (1, 4, 6, 9):
            holes = rng.random(chunks[index].shape) < 0.05
            holes[:, 0] = False
            chunks[index][holes] = np.nan
    return chunks


def trajectory(
    config: RemoteSiteConfig, chunks, record=ENCODE
) -> tuple[list, RemoteSite]:
    """Messages and checkpoint after every chunk."""
    site = RemoteSite(4, config, rng=np.random.default_rng(21))
    steps = []
    for chunk in chunks:
        messages = [record(m) for m in site.process_chunk(chunk.copy())]
        steps.append((messages, json.dumps(snapshot_site(site), sort_keys=True)))
    return steps, site


def message_fields(message) -> dict:
    fields = {"kind": type(message).__name__, **vars(message)}
    if "mixture" in fields:
        fields["mixture"] = fields["mixture"].to_dict()
    return fields


CLASSIC = {
    "plain": dict(),
    "warm_start_reseeds": dict(warm_start=True),
    "diagonal": dict(em=dict(diagonal=True)),
    "max_component": dict(variant=LikelihoodVariant.MAX_COMPONENT),
    "missing": dict(handle_missing=True),
    "in_sample_reference": dict(reference_holdout=0.0),
    "verbatim_test": dict(adaptive_test=False, epsilon=0.6),
}

INCREMENTAL = {
    "plain": dict(),
    "diagonal": dict(em=dict(diagonal=True)),
    "max_component": dict(variant=LikelihoodVariant.MAX_COMPONENT),
    "missing": dict(handle_missing=True),
}


class TestClassicSitesAreBitIdentical:
    @pytest.mark.parametrize("name", sorted(CLASSIC))
    def test_trajectory(self, name):
        config = site_config(incremental=False, **CLASSIC[name])
        chunks = drift_stream(17, missing=name == "missing")
        em_oracle.RESEEDS.clear()
        with oracle_model_path():
            old, oracle = trajectory(config, chunks)
        new, site = trajectory(config, chunks)
        assert new == old
        assert vars(site.stats) == vars(oracle.stats)
        assert site.stats.n_clusterings >= 3
        assert site.stats.n_tests_passed >= 2
        if name == "plain":
            assert site.stats.n_reactivations >= 1
        if name == "warm_start_reseeds":
            assert em_oracle.RESEEDS, "no refit starved a component"


class TestIncrementalSites:
    @pytest.mark.parametrize("name", sorted(INCREMENTAL))
    def test_bit_identical_once_the_kernel_is_held_fixed(self, name):
        """The data flow alone: same moments kernel on both sides."""
        config = site_config(incremental=True, **INCREMENTAL[name])
        chunks = drift_stream(17, missing=name == "missing")
        with oracle_model_path(moments=SufficientStats.from_responsibilities):
            old, oracle = trajectory(config, chunks)
        new, site = trajectory(config, chunks)
        assert new == old
        assert vars(site.stats) == vars(oracle.stats)
        assert site.stats.n_absorbed >= 2
        assert site.stats.n_warm_refits >= 1
        assert site.stats.n_cold_refits >= 1

    @pytest.mark.parametrize("name", sorted(INCREMENTAL))
    def test_within_rounding_of_the_einsum_kernel(self, name):
        config = site_config(incremental=True, **INCREMENTAL[name])
        chunks = drift_stream(17, missing=name == "missing")
        with oracle_model_path():
            old, oracle = trajectory(config, chunks, record=message_fields)
        new, site = trajectory(config, chunks, record=message_fields)
        assert vars(site.stats) == vars(oracle.stats)
        for (new_messages, new_state), (old_messages, old_state) in zip(new, old):
            assert_close(new_messages, old_messages)
            assert_close(json.loads(new_state), json.loads(old_state))
