"""Tests for the J_fit test criterion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gaussian import Gaussian
from repro.core.mixture import LOG_DENSITY_FLOOR, EStep, GaussianMixture
from repro.core.testing import (
    LikelihoodVariant,
    _average,
    adaptive_threshold,
    average_log_likelihood,
    fit_test,
    log_density_spread,
    reference_statistics,
)


@settings(max_examples=200, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.integers(1, 1200),
        elements=st.one_of(
            st.floats(-800.0, 60.0), st.just(LOG_DENSITY_FLOOR)
        ),
    )
)
def test_the_average_is_np_mean(values):
    """``np.add.reduce(values) / n`` is ``np.mean``'s own arithmetic on a
    float64 vector -- the same pairwise sum, the same division -- for the
    fit test's average and ``EStep.log_likelihood`` alike."""
    assert _average(values) == float(np.mean(values))
    e_step = EStep(np.ones(1), np.zeros((values.size, 1)))
    e_step._log_density = values
    assert e_step.log_likelihood == float(np.mean(values))


class TestAverageLogLikelihood:
    def test_mixture_variant_matches_definition(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(300, rng)
        assert average_log_likelihood(mixture_2d, data) == pytest.approx(
            mixture_2d.average_log_likelihood(data)
        )

    def test_max_component_variant(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(300, rng)
        sharpened = average_log_likelihood(
            mixture_2d, data, LikelihoodVariant.MAX_COMPONENT
        )
        assert sharpened <= average_log_likelihood(mixture_2d, data)

    def test_variants_close_for_separated_clusters(self, mixture_2d, rng):
        # With well-separated clusters one component dominates each
        # record, so the sharpened average nearly equals the full one.
        data, _ = mixture_2d.sample(500, rng)
        full = average_log_likelihood(mixture_2d, data)
        sharp = average_log_likelihood(
            mixture_2d, data, LikelihoodVariant.MAX_COMPONENT
        )
        assert full - sharp < 0.05


class TestFitTest:
    def test_same_distribution_chunk_fits(self, mixture_2d, rng):
        train, _ = mixture_2d.sample(1500, rng)
        reference = mixture_2d.average_log_likelihood(train)
        chunk, _ = mixture_2d.sample(1500, rng)
        result = fit_test(mixture_2d, chunk, reference, epsilon=0.2)
        assert result.fits
        assert result.j_fit <= 0.2

    def test_shifted_distribution_fails(self, mixture_2d, rng):
        train, _ = mixture_2d.sample(1500, rng)
        reference = mixture_2d.average_log_likelihood(train)
        chunk, _ = mixture_2d.sample(1500, rng)
        result = fit_test(mixture_2d, chunk + 15.0, reference, epsilon=0.2)
        assert not result.fits
        assert result.j_fit > 0.2

    def test_statistic_is_absolute_difference(self, mixture_2d, rng):
        chunk, _ = mixture_2d.sample(500, rng)
        likelihood = mixture_2d.average_log_likelihood(chunk)
        result = fit_test(mixture_2d, chunk, likelihood - 0.5, epsilon=0.1)
        assert result.j_fit == pytest.approx(0.5)
        assert result.chunk_likelihood == pytest.approx(likelihood)
        assert result.reference_likelihood == pytest.approx(likelihood - 0.5)

    def test_boundary_is_inclusive(self, mixture_2d, rng):
        chunk, _ = mixture_2d.sample(500, rng)
        likelihood = mixture_2d.average_log_likelihood(chunk)
        probe = fit_test(mixture_2d, chunk, likelihood - 0.1, epsilon=1.0)
        # Re-test with ε set to exactly the observed statistic: the
        # criterion is ``J_fit ≤ ε``, so this must pass.
        result = fit_test(
            mixture_2d, chunk, likelihood - 0.1, epsilon=probe.j_fit
        )
        assert result.fits

    def test_invalid_epsilon_rejected(self, mixture_2d, rng):
        chunk, _ = mixture_2d.sample(10, rng)
        with pytest.raises(ValueError, match="epsilon"):
            fit_test(mixture_2d, chunk, 0.0, epsilon=0.0)

    def test_non_finite_reference_rejected(self, mixture_2d, rng):
        chunk, _ = mixture_2d.sample(10, rng)
        with pytest.raises(ValueError, match="finite"):
            fit_test(mixture_2d, chunk, float("-inf"), epsilon=0.1)

    def test_adaptive_threshold_controls_false_positives(
        self, mixture_2d, rng
    ):
        """Same-distribution chunks rarely fail the adaptive test -- the
        property δ is supposed to control."""
        from repro.core.chunking import chunk_size

        epsilon, delta = 0.02, 0.01
        m = chunk_size(2, epsilon, delta)
        train, _ = mixture_2d.sample(m, rng)
        reference = mixture_2d.average_log_likelihood(train)
        sigma = log_density_spread(mixture_2d, train)
        threshold = adaptive_threshold(epsilon, delta, sigma, m)
        failures = 0
        trials = 100
        for _ in range(trials):
            chunk, _ = mixture_2d.sample(m, rng)
            if not fit_test(mixture_2d, chunk, reference, threshold).fits:
                failures += 1
        assert failures / trials <= 3 * delta + 0.02

    def test_adaptive_threshold_never_below_epsilon(self):
        assert adaptive_threshold(0.5, 0.01, 0.0, 100) == pytest.approx(0.5)
        assert adaptive_threshold(0.01, 0.01, 2.0, 100) > 0.01

    def test_adaptive_threshold_shrinks_with_chunk_size(self):
        small = adaptive_threshold(1e-6, 0.05, 1.0, 100)
        large = adaptive_threshold(1e-6, 0.05, 1.0, 10_000)
        assert large < small

    def test_adaptive_threshold_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            adaptive_threshold(0.0, 0.01, 1.0, 10)
        with pytest.raises(ValueError):
            adaptive_threshold(0.1, 1.5, 1.0, 10)
        with pytest.raises(ValueError):
            adaptive_threshold(0.1, 0.01, -1.0, 10)
        with pytest.raises(ValueError):
            adaptive_threshold(0.1, 0.01, 1.0, 0)

    def test_log_density_spread_positive_on_real_data(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(500, rng)
        assert log_density_spread(mixture_2d, data) > 0.0

    def test_log_density_spread_needs_two_records(self, mixture_2d):
        with pytest.raises(ValueError, match="two records"):
            log_density_spread(mixture_2d, np.zeros((1, 2)))

    def test_still_detects_gross_changes_with_adaptive_threshold(
        self, mixture_2d, rng
    ):
        from repro.core.chunking import chunk_size

        epsilon, delta = 0.02, 0.01
        m = chunk_size(2, epsilon, delta)
        train, _ = mixture_2d.sample(m, rng)
        reference = mixture_2d.average_log_likelihood(train)
        sigma = log_density_spread(mixture_2d, train)
        threshold = adaptive_threshold(epsilon, delta, sigma, m)
        shifted, _ = mixture_2d.sample(m, rng)
        result = fit_test(mixture_2d, shifted + 8.0, reference, threshold)
        assert not result.fits


class TestReferenceStatistics:
    """``AvgPr_0`` and ``σ̂`` describe one vector of per-record values."""

    def outlier_chunk(self, rng) -> tuple[GaussianMixture, np.ndarray]:
        """50 records of a standard normal, one of them 60 σ out: its
        log density (-1802) is far below the floor."""
        mixture = GaussianMixture.single(Gaussian(np.zeros(2), np.eye(2)))
        data = rng.normal(size=(50, 2))
        data[0] = [60.0, 0.0]
        return mixture, data

    def test_max_component_spread_is_of_the_floored_values(self, rng):
        mixture, data = self.outlier_chunk(rng)
        maxima = np.max(mixture.weighted_log_pdf(data), axis=1)
        assert maxima.min() < LOG_DENSITY_FLOOR
        floored = np.maximum(maxima, LOG_DENSITY_FLOOR)
        variant = LikelihoodVariant.MAX_COMPONENT
        spread = log_density_spread(mixture, data, variant)
        assert spread == float(np.std(floored))
        assert average_log_likelihood(mixture, data, variant) == float(
            np.mean(floored)
        )
        # The unfloored maxima, which the mean never saw, would widen
        # the adaptive tolerance several times over.
        loose = adaptive_threshold(0.02, 0.01, float(np.std(maxima)), 50)
        assert adaptive_threshold(0.02, 0.01, spread, 50) < loose / 2.0

    def test_variants_agree_on_a_single_component(self, rng):
        """With K = 1 the maximal component *is* the mixture."""
        mixture, data = self.outlier_chunk(rng)
        assert reference_statistics(
            mixture, data, LikelihoodVariant.MAX_COMPONENT
        ) == reference_statistics(mixture, data, LikelihoodVariant.MIXTURE)

    @pytest.mark.parametrize("variant", list(LikelihoodVariant))
    @pytest.mark.parametrize("missing", [False, True])
    def test_is_the_likelihood_and_the_spread(
        self, mixture_2d, rng, variant, missing
    ):
        data, _ = mixture_2d.sample(120, rng)
        if missing:
            data[::7, 1] = np.nan
        expected = (
            average_log_likelihood(mixture_2d, data, variant),
            log_density_spread(mixture_2d, data, variant),
        )
        assert reference_statistics(mixture_2d, data, variant) == expected
        if not missing:
            handed = reference_statistics(
                mixture_2d, data, variant, e_step=mixture_2d.e_step(data)
            )
            assert handed == expected

    def test_fit_test_hands_on_its_density_pass(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(80, rng)
        result = fit_test(mixture_2d, data, -3.0, 0.5)
        assert result.e_step.log_likelihood == result.chunk_likelihood
        # A site that only tests never pays for the responsibilities.
        assert result.e_step._responsibilities is None
        assert np.array_equal(
            result.e_step.responsibilities, mixture_2d.posterior(data)
        )
        # It is not part of the outcome.
        assert result == fit_test(mixture_2d, data.copy(), -3.0, 0.5)
        assert "e_step" not in repr(result)

    def test_marginal_test_has_no_pass_to_hand_on(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(80, rng)
        data[3, 0] = np.nan
        assert fit_test(mixture_2d, data, -3.0, 0.5).e_step is None
