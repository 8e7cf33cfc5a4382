"""Tests for the merge/split criteria and the merged-component fit."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.gaussian as gaussian_module
import repro.core.merging as merging_module
from benchmarks.paper.merging import j_merge, normalize_scores
from repro.core.gaussian import Gaussian
from repro.core.merging import (
    _pack_parameters,
    accuracy_loss,
    fit_merged_component,
    m_merge,
    m_remerge,
    m_split,
    pairwise_m_merge,
    rank_merge_pairs,
)
from repro.core.mixture import GaussianMixture
from repro.numerics.linalg import LogCholeskyL1Loss
from tests.core.test_refit_ladder import count_calls


def four_component_mixture() -> GaussianMixture:
    """Two close pairs: (0,1) nearly overlap, (2,3) nearly overlap."""
    components = (
        Gaussian.spherical(np.array([0.0, 0.0]), 1.0),
        Gaussian.spherical(np.array([0.5, 0.0]), 1.0),
        Gaussian.spherical(np.array([10.0, 10.0]), 1.0),
        Gaussian.spherical(np.array([10.5, 10.0]), 1.0),
    )
    return GaussianMixture(np.full(4, 0.25), components)


class TestMergeCriteria:
    def test_m_merge_larger_for_closer_components(self):
        mixture = four_component_mixture()
        close = m_merge(mixture.components[0], mixture.components[1])
        far = m_merge(mixture.components[0], mixture.components[2])
        assert close > far

    def test_m_merge_symmetric(self):
        mixture = four_component_mixture()
        a, b = mixture.components[0], mixture.components[2]
        assert m_merge(a, b) == pytest.approx(m_merge(b, a))

    def test_m_merge_caps_identical_means(self):
        a = Gaussian.spherical(np.zeros(2), 1.0)
        b = Gaussian.spherical(np.zeros(2), 2.0)
        assert np.isfinite(m_merge(a, b))

    def test_rank_merge_pairs_has_k_choose_2_entries(self):
        pairs = rank_merge_pairs(four_component_mixture())
        assert len(pairs) == 6  # C(4, 2)
        scores = [score for _, _, score in pairs]
        assert scores == sorted(scores, reverse=True)

    def test_top_ranked_pair_is_an_overlapping_one(self):
        pairs = rank_merge_pairs(four_component_mixture())
        top = {pairs[0][:2], pairs[1][:2]}
        assert top == {(0, 1), (2, 3)}

    def test_pairwise_matrix_upper_triangular(self):
        scores = pairwise_m_merge(four_component_mixture())
        assert np.allclose(np.tril(scores), 0.0)


class TestJMergeComparison:
    def test_j_merge_ranks_like_m_merge_on_clusterable_data(self, rng):
        """The Figure 1 claim: M_merge is a good surrogate for J_merge."""
        mixture = four_component_mixture()
        data, _ = mixture.sample(4000, rng)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        j_scores = [j_merge(mixture, i, j, data) for i, j in pairs]
        m_scores = [
            m_merge(mixture.components[i], mixture.components[j])
            for i, j in pairs
        ]
        # Rank correlation: both criteria order the six pairs the same
        # way at the top (the two overlapping pairs first).
        top_by_j = {pairs[k] for k in np.argsort(j_scores)[-2:]}
        top_by_m = {pairs[k] for k in np.argsort(m_scores)[-2:]}
        assert top_by_j == top_by_m

    def test_j_merge_requires_distinct_components(self, rng):
        mixture = four_component_mixture()
        data, _ = mixture.sample(100, rng)
        with pytest.raises(ValueError, match="distinct"):
            j_merge(mixture, 1, 1, data)


class TestSplitCriteria:
    def test_m_split_reciprocal_of_m_remerge(self):
        mixture = four_component_mixture()
        outlier = Gaussian.spherical(np.array([30.0, 0.0]), 1.0)
        split = m_split(outlier, mixture)
        remerge = m_remerge(outlier, mixture)
        assert split * remerge == pytest.approx(1.0)

    def test_far_component_has_large_m_split(self):
        mixture = four_component_mixture()
        near = Gaussian.spherical(np.array([5.0, 5.0]), 1.0)
        far = Gaussian.spherical(np.array([100.0, 100.0]), 1.0)
        assert m_split(far, mixture) > m_split(near, mixture)


class TestNormalization:
    def test_normalized_scores_span_unit_interval(self):
        result = normalize_scores([3.0, 7.0, 5.0])
        assert result.min() == pytest.approx(0.0)
        assert result.max() == pytest.approx(1.0)

    def test_constant_scores_map_to_zero(self):
        assert np.allclose(normalize_scores([2.0, 2.0, 2.0]), 0.0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_scores([])


class TestAccuracyLoss:
    def test_zero_when_merging_identical_components(self):
        component = Gaussian.spherical(np.zeros(2), 1.0)
        loss = accuracy_loss(
            0.5, component, 0.5, component, component, n_samples=500
        )
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_positive_for_distinct_components(self, rng):
        a = Gaussian.spherical(np.array([-3.0]), 1.0)
        b = Gaussian.spherical(np.array([3.0]), 1.0)
        merged = a.merge_moments(b, 0.5, 0.5)
        loss = accuracy_loss(0.5, a, 0.5, b, merged, n_samples=4000, rng=rng)
        assert loss > 0.1

    def test_rejects_non_positive_weights(self):
        component = Gaussian.spherical(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="positive"):
            accuracy_loss(0.0, component, 0.5, component, component)


class TestMergedComponentFit:
    def test_simplex_never_worse_than_moment_matching(self, rng):
        a = Gaussian.spherical(np.array([-2.0, 0.0]), 1.0)
        b = Gaussian.spherical(np.array([2.0, 0.0]), 1.5)
        fit = fit_merged_component(0.6, a, 0.4, b, rng=rng)
        assert fit.loss <= fit.moment_loss + 1e-12
        assert fit.weight == pytest.approx(1.0)

    def test_overlapping_components_merge_with_small_loss(self, rng):
        a = Gaussian.spherical(np.array([0.0, 0.0]), 1.0)
        b = Gaussian.spherical(np.array([0.2, 0.0]), 1.0)
        fit = fit_merged_component(0.5, a, 0.5, b, rng=rng)
        assert fit.loss < 0.05

    def test_moment_method_skips_the_search(self, rng):
        a = Gaussian.spherical(np.array([-1.0]), 1.0)
        b = Gaussian.spherical(np.array([1.0]), 1.0)
        fit = fit_merged_component(0.5, a, 0.5, b, method="moment", rng=rng)
        assert fit.iterations == 0
        assert fit.loss == pytest.approx(fit.moment_loss)
        expected = a.merge_moments(b, 0.5, 0.5)
        assert np.allclose(fit.component.mean, expected.mean)

    def test_unknown_method_rejected(self):
        a = Gaussian.spherical(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="method"):
            fit_merged_component(0.5, a, 0.5, a, method="magic")

    def test_fitted_component_is_valid_gaussian(self, rng):
        a = Gaussian(np.array([0.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        b = Gaussian(np.array([3.0, 1.0]), np.array([[1.0, -0.2], [-0.2, 2.0]]))
        fit = fit_merged_component(1.0, a, 2.0, b, rng=rng)
        eigenvalues = np.linalg.eigvalsh(fit.component.covariance)
        assert np.all(eigenvalues > 0.0)
        assert fit.weight == pytest.approx(3.0)

    def test_observer_counts_iterations_and_evaluations(self, rng):
        from repro.obs.observer import Observer

        observer = Observer()
        a = Gaussian.spherical(np.array([-1.0, 0.0]), 1.0)
        b = Gaussian.spherical(np.array([1.5, 0.0]), 0.5)
        first = fit_merged_component(
            0.5, a, 0.5, b, n_samples=256, max_iter=30, rng=rng,
            observer=observer,
        )
        second = fit_merged_component(
            0.3, a, 0.7, b, n_samples=256, max_iter=30, rng=rng,
            observer=observer,
        )
        registry = observer.registry
        assert first.evaluations > first.iterations > 0
        assert (
            registry.counter("merge.simplex_iterations").value
            == first.iterations + second.iterations
        )
        assert (
            registry.counter("merge.simplex_evaluations").value
            == first.evaluations + second.evaluations
        )
        # profile.simplex ÷ evaluations is the cost of one vertex.
        assert registry.histogram("profile.simplex").count == 2

    def test_moment_method_leaves_the_simplex_counters_alone(self, rng):
        from repro.obs.observer import Observer

        observer = Observer()
        a = Gaussian.spherical(np.array([-1.0]), 1.0)
        b = Gaussian.spherical(np.array([1.0]), 1.0)
        fit = fit_merged_component(
            0.5, a, 0.5, b, method="moment", rng=rng, observer=observer
        )
        assert fit.evaluations == 0
        assert "merge.simplex_evaluations" not in str(
            observer.registry.snapshot()
        )


class TestFitComputesOnce:
    """One Cholesky per ``Gaussian`` holds for a whole simplex fit: the
    search factorises nothing, builds no ``Gaussian``, and sends every
    single vertex through the kernel's row body."""

    DIM = 3
    N_PARAMETERS = 2 * DIM + DIM * (DIM - 1) // 2

    @pytest.fixture
    def fit(self):
        """Fits of a well-conditioned pair (built before anything is
        counted): no vertex is declined, nothing shrinks."""
        a = Gaussian(
            np.array([0.0, 1.0, -1.0]),
            np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        )
        b = Gaussian(np.array([1.5, 0.0, 0.5]), np.diag([1.0, 2.0, 0.8]))

        def run(max_iter: int):
            return fit_merged_component(
                0.6, a, 0.4, b, n_samples=256, max_iter=max_iter,
                rng=np.random.default_rng(4),
            )

        return run

    def test_pack_parameters_reads_the_kept_factor(self, monkeypatch):
        component = Gaussian(np.zeros(2), np.array([[2.0, 0.6], [0.6, 1.0]]))
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        theta = _pack_parameters(component)
        assert calls["n"] == 0
        chol = np.linalg.cholesky(component.covariance)
        expected = np.concatenate(
            [component.mean, np.log(np.diag(chol)), chol[np.tril_indices(2, -1)]]
        )
        assert np.array_equal(theta, expected)

    def test_cholesky_count_does_not_grow_with_the_search(
        self, fit, monkeypatch
    ):
        counts = {}
        for max_iter in (5, 80):
            calls = count_calls(monkeypatch, np.linalg, "cholesky")
            assert fit(max_iter).iterations == max_iter
            counts[max_iter] = calls["n"]
        # The moment-matched seed and the fitted father.
        assert counts == {5: 2, 80: 2}

    def test_no_gaussian_is_built_inside_the_search(self, fit, monkeypatch):
        built = count_calls(monkeypatch, gaussian_module, "spd_factorize")
        inside = []
        search = merging_module.nelder_mead

        def watched(*args, **kwargs):
            before = built["n"]
            result = search(*args, **kwargs)
            inside.append(built["n"] - before)
            return result

        monkeypatch.setattr(merging_module, "nelder_mead", watched)
        result = fit(80)
        assert result.evaluations > result.iterations == 80
        assert inside == [0]

    def test_single_vertices_take_the_row_body(self, fit, monkeypatch):
        """One batch for the initial simplex, then one row at a time --
        never a batch of one."""
        rows, batches = [], []
        row_body, batch_body = LogCholeskyL1Loss._row, LogCholeskyL1Loss._batch

        def counted_row(self, theta):
            rows.append(theta.shape)
            return row_body(self, theta)

        def counted_batch(self, thetas):
            batches.append(thetas.shape[0])
            return batch_body(self, thetas)

        monkeypatch.setattr(LogCholeskyL1Loss, "_row", counted_row)
        monkeypatch.setattr(LogCholeskyL1Loss, "_batch", counted_batch)
        result = fit(80)
        assert batches == [self.N_PARAMETERS + 1]
        assert len(rows) == result.evaluations - (self.N_PARAMETERS + 1) > 80
        assert set(rows) == {(self.N_PARAMETERS,)}
