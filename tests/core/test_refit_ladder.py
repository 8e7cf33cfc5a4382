"""Integration tests for the refit ladder (DESIGN §14).

A failed fit test resolves on exactly one rung:

1. **reactivate** -- an archived model still explains the chunk;
2. **warm** -- a few stepwise EM updates on the current model's
   sufficient statistics pass the epsilon acceptance test;
3. **cold** -- full re-clustering, the pre-ladder behaviour.

The tests here drive seeded drift streams through a
:class:`~repro.core.remote.RemoteSite` and pin the escalation policy:
trackable drift resolves warm, basin jumps escalate to cold, archived
regimes reactivate without a single new Cholesky factorisation, and the
incremental site's model quality stays within a pinned tolerance of the
cold-only site (the CI quality gate).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.em as em_module
import repro.core.gaussian as gaussian_module
import repro.core.mixture as mixture_module
import repro.numerics.linalg as linalg_module
from repro.core.em import INCREMENTAL_STEPS, EMConfig, fit_em, incremental_em
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import get_codec
from repro.core.suffstats import SufficientStats
from repro.core.testing import average_log_likelihood
from repro.streams.synthetic import random_mixture

DIM = 3
CHUNK = 90


def make_config(**overrides) -> RemoteSiteConfig:
    em = EMConfig(
        n_components=3, n_init=1, max_iter=30, incremental=True
    )
    base = dict(
        dim=DIM,
        epsilon=0.05,
        delta=0.05,
        c_max=3,
        em=em,
        chunk_override=CHUNK,
    )
    base.update(overrides)
    return RemoteSiteConfig(**base)


def regime_chunk(rng: np.random.Generator, offset: float) -> np.ndarray:
    """One chunk of three well-separated clusters shifted by ``offset``."""
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 0.0], [-4.0, 0.0, 4.0]])
    assignments = rng.integers(0, 3, size=CHUNK)
    return centers[assignments] + offset + rng.normal(0, 0.5, (CHUNK, DIM))


def far_mixture(zero_weight: bool = False) -> GaussianMixture:
    """Three components nowhere near ``regime_chunk(rng, 0)``: whichever
    is relatively closest takes every record, the others starve."""
    weights = [0.0, 0.5, 0.5] if zero_weight else [0.2, 0.3, 0.5]
    return GaussianMixture(
        weights,
        tuple(
            Gaussian(np.full(DIM, 40.0 + 25.0 * j), np.eye(DIM))
            for j in range(3)
        ),
    )


def jump_stream(rng: np.random.Generator) -> list[np.ndarray]:
    """Abrupt basin jumps: the warm rung must flunk the epsilon test."""
    chunks = []
    for offset in (0.0, 6.0, 0.0, 12.0, 6.0):
        for _ in range(2):
            chunks.append(regime_chunk(rng, offset))
    return chunks


def drift_stream(rng: np.random.Generator, n_chunks: int = 15):
    """Steady trackable drift: the warm rung should usually win."""
    offset = 0.0
    for _ in range(n_chunks):
        yield regime_chunk(rng, offset)
        offset += 0.9


def run_site(chunks, config, seed: int = 123) -> RemoteSite:
    site = RemoteSite(0, config, rng=np.random.default_rng(seed))
    for chunk in chunks:
        site.process_chunk(chunk)
    return site


def count_calls(monkeypatch, owner, name: str) -> dict:
    """Count calls of ``owner.name`` from here on (the real one runs)."""
    calls = {"n": 0}
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestEscalation:
    def test_abrupt_jumps_escalate_to_cold(self):
        site = run_site(
            jump_stream(np.random.default_rng(99)), make_config()
        )
        # Basin jumps leave the warm fit far below the moment-matched
        # single-Gaussian baseline, so the epsilon acceptance test
        # rejects it and the ladder falls through to a cold refit.
        assert site.stats.n_cold_refits > 0

    def test_steady_drift_resolves_warm(self):
        site = run_site(drift_stream(np.random.default_rng(42)), make_config())
        assert site.stats.n_warm_refits > 0
        # Trackable drift is the warm rung's home turf: it should
        # resolve at least as many refits as cold escalation.
        assert site.stats.n_warm_refits >= site.stats.n_cold_refits
        # Warm installs are still model installs.
        assert site.stats.n_clusterings >= site.stats.n_warm_refits

    def test_classic_mode_never_uses_ladder_counters(self):
        config = make_config(
            em=dataclasses.replace(make_config().em, incremental=False)
        )
        site = run_site(jump_stream(np.random.default_rng(99)), config)
        assert site.stats.n_warm_refits == 0
        assert site.stats.n_cold_refits == 0
        assert site.stats.n_absorbed == 0


class TestReactivation:
    def two_regime_site(self, config) -> tuple[RemoteSite, np.ndarray]:
        """A site whose first model is archived, plus a chunk that the
        archived model (and not the current one) explains.

        ``epsilon`` is loose enough that same-regime chunk-to-chunk
        AvgPr noise (~0.1 nats at n=90) cannot flunk the archived
        model's test, while the ~40-nat regime gap still fails the
        current model decisively.
        """
        config = dataclasses.replace(config, epsilon=0.5)
        rng = np.random.default_rng(7)
        site = RemoteSite(0, config, rng=np.random.default_rng(11))
        for _ in range(2):
            site.process_chunk(regime_chunk(rng, 0.0))
        site.process_chunk(regime_chunk(rng, 9.0))
        assert len(site.all_models) > 1
        return site, regime_chunk(rng, 0.0)

    def test_reactivation_restores_archived_model(self):
        site, revisit = self.two_regime_site(make_config())
        before = site.stats.n_reactivations
        site.process_chunk(revisit)
        assert site.stats.n_reactivations == before + 1

    def test_c_max_one_disables_rung_one(self):
        site, revisit = self.two_regime_site(make_config(c_max=1))
        site.process_chunk(revisit)
        assert site.stats.n_reactivations == 0
        # The failed test still resolved -- on a higher rung.
        assert (
            site.stats.n_warm_refits + site.stats.n_cold_refits
        ) >= 2

    def test_reactivation_never_refactorizes(self, monkeypatch):
        """Candidate evaluation reuses the archived models' cached
        Cholesky factors: reactivating must cost zero factorisations."""
        site, revisit = self.two_regime_site(make_config())
        calls = count_calls(monkeypatch, gaussian_module, "spd_factorize")
        before = site.stats.n_reactivations
        site.process_chunk(revisit)
        assert site.stats.n_reactivations == before + 1
        assert calls["n"] == 0

    def test_multi_test_against_a_deep_archive_never_calls_cholesky(
        self, monkeypatch
    ):
        """``c_max = 4``: the current model and two archived ones are
        tested on factors they already hold, whichever entry point
        (single or stacked) built them."""
        site, revisit = self.two_regime_site(make_config(c_max=4))
        site.process_chunk(regime_chunk(np.random.default_rng(8), 18.0))
        assert len(site.all_models) == 3
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        tests = site.stats.n_tests
        site.process_chunk(revisit)
        assert site.stats.n_tests == tests + 3
        assert site.stats.n_reactivations == 1
        assert calls["n"] == 0


class TestFactorOnce:
    """One Cholesky per ``Gaussian``: the factor that accepts Σ is the
    factor the component keeps."""

    def test_spd_covariance_is_factorised_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        root = rng.normal(size=(DIM, DIM))
        covariance = root @ root.T + np.eye(DIM)
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        component = Gaussian(rng.normal(size=DIM), covariance)
        assert calls["n"] == 1
        # Everything derived later comes from that one factor.
        component.factors.inverse_cholesky()
        component.log_pdf(rng.normal(size=(5, DIM)))
        assert calls["n"] == 1

    def test_pool_of_one_leaf_is_the_leaf(self, monkeypatch):
        leaf = Gaussian(np.arange(3.0), np.diag([1.0, 2.0, 3.0]))
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        assert GaussianMixture.single(leaf).pooled_gaussian() is leaf
        assert calls["n"] == 0

    def test_pool_of_a_diagonal_leaf_is_still_a_full_gaussian(self):
        leaf = Gaussian(np.zeros(2), np.diag([1.0, 4.0]), diagonal=True)
        pooled = GaussianMixture.single(leaf).pooled_gaussian()
        assert not pooled.diagonal
        assert np.array_equal(pooled.covariance, leaf.covariance)


class TestOneFactorisationPerMixture:
    """A mixture's ``K`` covariances are one ``(K, d, d)`` stack to the
    regulariser: one ``cholesky`` call whatever ``K``, and the
    whitening stack filled by one triangular solve at the first density
    pass."""

    @pytest.fixture(params=[2, 5])
    def fitted(self, request):
        rng = np.random.default_rng(request.param)
        centers = rng.normal(scale=6.0, size=(request.param, DIM))
        data = centers[rng.integers(0, len(centers), 200)] + rng.normal(
            scale=0.5, size=(200, DIM)
        )
        config = EMConfig(n_components=len(centers), n_init=1, max_iter=5)
        return data, config, fit_em(data, config, rng).mixture

    def test_materialize(self, fitted, monkeypatch):
        data, _, mixture = fitted
        stats = SufficientStats.from_mixture(mixture, float(len(data)))
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        stats.materialize(covariance_ridge=1e-6, global_var=1.0)
        assert calls["n"] == 1

    def test_m_step(self, fitted, monkeypatch):
        data, config, mixture = fitted
        e_step = mixture.e_step(data)
        starving = far_mixture().e_step(data)
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        updated = em_module._m_step(data, e_step, config, 1.0)
        assert calls["n"] == 1
        # ... starved members included: they ride in the same stack.
        reseeded = em_module._m_step(data, starving, make_config().em, 1.0)
        assert calls["n"] == 2
        assert updated.n_components == mixture.n_components
        assert reseeded.n_components == 3

    def test_cds1_decode_and_checkpoint_load(self, fitted, monkeypatch):
        _, _, mixture = fitted
        codec = get_codec("cds1")
        payload = codec.encode(
            ModelUpdateMessage(
                site_id=0, model_id=1, time=2, mixture=mixture,
                count=200, reference_likelihood=-3.0,
            )
        )
        blob = mixture.to_dict()
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        assert codec.decode(payload).mixture == mixture
        assert calls["n"] == 1
        assert GaussianMixture.from_dict(blob) == mixture
        assert calls["n"] == 2

    def test_built_mixtures_hold_their_kernel_stack(self, fitted, monkeypatch):
        data, _, mixture = fitted
        stacks = count_calls(monkeypatch, np, "stack")
        mixture.e_step(data)
        assert stacks["n"] == 0

    def test_passing_incremental_chunk_never_calls_a_per_component_solve(
        self, monkeypatch
    ):
        """The absorbed model arrives with its factor stack, and its
        first pass forms every ``L⁻¹`` in one solve of that stack."""
        site, chunk = TestOneDensityPassPerModelAndChunk().settled_site(
            make_config()
        )
        solved = []
        real = linalg_module._solve_factor

        def recording(factor, rhs):
            solved.append(factor.shape)
            return real(factor, rhs)

        monkeypatch.setattr(linalg_module, "_solve_factor", recording)
        site.process_chunk(chunk)
        assert site.stats.n_absorbed == 1
        k = site.current_model.mixture.n_components
        assert solved == [(k, DIM, DIM)]


class TestOneDensityPassPerModelAndChunk:
    """Every consumer of ``log(w_j p(x|j))`` reads the pass the previous
    one made; the batched kernel runs once per (model, chunk)."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return count_calls(monkeypatch, mixture_module, "batch_log_pdf")

    def settled_site(self, config) -> tuple[RemoteSite, np.ndarray]:
        """A site with a model, and a chunk that model explains."""
        config = dataclasses.replace(config, epsilon=0.5)
        rng = np.random.default_rng(7)
        site = RemoteSite(0, config, rng=np.random.default_rng(11))
        site.process_chunk(regime_chunk(rng, 0.0))
        return site, regime_chunk(rng, 0.0)

    def test_passing_incremental_chunk_is_two_passes(self, passes):
        """The fit test's, shared with the absorption, and the updated
        model's, shared with the reference statistics."""
        site, chunk = self.settled_site(make_config())
        passes["n"] = 0
        site.process_chunk(chunk)
        assert site.stats.n_absorbed == 1
        assert passes["n"] == 2

    def test_passing_classic_chunk_is_one_pass(self, passes):
        classic = dataclasses.replace(make_config().em, incremental=False)
        site, chunk = self.settled_site(make_config(em=classic))
        passes["n"] = 0
        site.process_chunk(chunk)
        assert site.stats.n_tests_passed == 1
        assert passes["n"] == 1

    def test_install_takes_both_reference_statistics_from_one_pass(
        self, passes
    ):
        site = RemoteSite(0, make_config(), rng=np.random.default_rng(11))
        site.process_chunk(regime_chunk(np.random.default_rng(7), 0.0))
        fit_passes = site._last_fit_iterations + 1
        assert passes["n"] == fit_passes + 1

    def test_density_and_posterior_are_one_batched_pass_each_at_k8(
        self, passes, monkeypatch
    ):
        """No per-component loop behind any reading of the density,
        at a ``K`` past NumPy's pairwise-summation switch."""
        rng = np.random.default_rng(5)
        mixture = random_mixture(dim=4, n_components=8, rng=rng)
        points, _ = mixture.sample(400, rng)
        loops = count_calls(monkeypatch, Gaussian, "log_pdf")
        for reading in (
            mixture.log_pdf,
            mixture.posterior,
            lambda chunk: average_log_likelihood(mixture, chunk),
        ):
            passes["n"] = 0
            reading(points)
            assert passes["n"] == 1
        assert loops["n"] == 0

    def test_pass_derives_no_mixture_constants(self, passes, monkeypatch):
        """The row kernel's constants (the ``L⁻¹μ`` shift ``einsum``, the
        whitening stack, ``log w`` under ``errstate``) are derived at a
        mixture's first pass; from its second on, a fit test's read of
        the pass is one ``einsum`` (the squared norms), no ``errstate``,
        no ``log`` of the weights, and no ``(n, K)`` → ``(K, n)`` copy:
        the reduction reads the kernel's rows where they were written."""
        rng = np.random.default_rng(5)
        data = regime_chunk(rng, 0.0)
        mixture = fit_em(data, make_config().em, rng).mixture
        chunk = regime_chunk(rng, 0.0)
        einsums = count_calls(monkeypatch, np, "einsum")
        errstates = count_calls(monkeypatch, np, "errstate")
        copies = [
            count_calls(monkeypatch, np, name)
            for name in ("array", "ascontiguousarray")
        ]
        logged = []
        log = np.log
        monkeypatch.setattr(
            np, "log", lambda x, *a, **k: logged.append(x) or log(x, *a, **k)
        )

        def read():
            e_step = mixture.e_step(chunk)
            return e_step.log_density, e_step.max_log_density, e_step.log_likelihood

        # fit_em made this mixture's first pass (its last iterate's).
        for _ in range(2):
            passes["n"] = einsums["n"] = errstates["n"] = 0
            logged.clear()
            read()
            assert passes["n"] == 1
            assert einsums["n"] == 1
            assert errstates["n"] == 0
            assert not any(x is mixture.weights for x in logged)
            assert sum(count["n"] for count in copies) == 0
        # A new mixture over the same components derives them once.
        fresh = GaussianMixture(mixture.weights, mixture.components)
        for expected in ((2, 1), (1, 0)):
            einsums["n"] = errstates["n"] = 0
            fresh.e_step(chunk).log_density
            assert (einsums["n"], errstates["n"]) == expected

    @pytest.mark.parametrize("warm", [False, True])
    def test_fit_em_is_one_pass_per_iterate(self, passes, warm):
        data = regime_chunk(np.random.default_rng(7), 0.0)
        config = make_config().em
        # Far from the data: the re-seed of the components it starves
        # reads the same pass as the M-step.
        result = fit_em(
            data,
            config,
            np.random.default_rng(3),
            warm_start=far_mixture() if warm else None,
        )
        assert result.n_iter > 1
        assert passes["n"] == result.n_iter + 1

    def test_incremental_em_is_one_pass_per_iterate(self, passes):
        rng = np.random.default_rng(7)
        config = make_config().em
        mixture = fit_em(regime_chunk(rng, 0.0), config, rng).mixture
        passes["n"] = 0
        result = incremental_em(regime_chunk(rng, 0.5), mixture, config)
        assert result.n_steps == INCREMENTAL_STEPS
        assert passes["n"] == INCREMENTAL_STEPS + 1


class TestQualityGate:
    #: Max acceptable holdout AvgPr gap, incremental vs cold (nats).
    #: Pinned here -- CI invokes this test, the tolerance lives in code.
    TOLERANCE = 0.5

    def test_incremental_matches_cold_avgpr(self):
        rng = np.random.default_rng(31)
        chunks = list(drift_stream(rng, n_chunks=12))
        holdout = regime_chunk(np.random.default_rng(32), 0.9 * 11)

        cold_config = make_config(
            em=dataclasses.replace(make_config().em, incremental=False)
        )
        cold = run_site(chunks, cold_config)
        warm = run_site(chunks, make_config())

        cold_avgpr = average_log_likelihood(
            cold.current_model.mixture, holdout
        )
        warm_avgpr = average_log_likelihood(
            warm.current_model.mixture, holdout
        )
        assert warm_avgpr >= cold_avgpr - self.TOLERANCE
