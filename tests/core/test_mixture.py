"""Tests for Gaussian mixture models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture, union_by_mass


class TestConstruction:
    def test_weights_are_normalised(self, mixture_2d: GaussianMixture):
        assert mixture_2d.weights.sum() == pytest.approx(1.0)

    def test_unnormalised_weights_accepted(self):
        mixture = GaussianMixture(
            np.array([2.0, 6.0]),
            (
                Gaussian.spherical(np.zeros(1), 1.0),
                Gaussian.spherical(np.ones(1), 1.0),
            ),
        )
        assert np.allclose(mixture.weights, [0.25, 0.75])

    def test_normalisation_is_bitwise_idempotent(self):
        # Checkpoint restore rebuilds mixtures from their own serialised
        # weights (which sum to 1 +/- 1ulp); re-normalising must not
        # shift them, or resumed runs diverge from uninterrupted ones.
        components = tuple(
            Gaussian.spherical(np.full(1, float(i)), 1.0) for i in range(3)
        )
        raw = np.array([3.0, 5.0, 7.0])
        first = GaussianMixture(raw, components)
        rebuilt = GaussianMixture(first.weights.copy(), components)
        assert np.array_equal(rebuilt.weights, first.weights)
        # A weight vector one ulp off an exact sum of one must also be
        # kept bitwise (the serialised-state case).
        off = np.array([0.5, np.nextafter(0.5, 1.0)])
        mixture = GaussianMixture(off.copy(), components[:2])
        assert np.array_equal(mixture.weights, off)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights for"):
            GaussianMixture(
                np.array([1.0]),
                (
                    Gaussian.spherical(np.zeros(1), 1.0),
                    Gaussian.spherical(np.ones(1), 1.0),
                ),
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMixture(
                np.array([-0.5, 1.5]),
                (
                    Gaussian.spherical(np.zeros(1), 1.0),
                    Gaussian.spherical(np.ones(1), 1.0),
                ),
            )

    @pytest.mark.parametrize(
        "weights",
        [[np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]],
        ids=["nan", "inf", "sum-overflows"],
    )
    def test_non_finite_weights_rejected(self, weights):
        # Finite weights whose sum overflows would normalise to all zeros.
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="finite and non-negative"
        ):
            GaussianMixture(
                np.array(weights),
                (
                    Gaussian.spherical(np.zeros(1), 1.0),
                    Gaussian.spherical(np.ones(1), 1.0),
                ),
            )

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed dimensions"):
            GaussianMixture(
                np.array([0.5, 0.5]),
                (
                    Gaussian.spherical(np.zeros(1), 1.0),
                    Gaussian.spherical(np.zeros(2), 1.0),
                ),
            )

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            GaussianMixture(np.array([]), ())

    def test_single_helper(self, gaussian_2d: Gaussian):
        mixture = GaussianMixture.single(gaussian_2d)
        assert mixture.n_components == 1
        assert mixture.weights[0] == pytest.approx(1.0)

    def test_from_pairs(self, gaussian_2d: Gaussian):
        mixture = GaussianMixture.from_pairs(
            [(2.0, gaussian_2d), (2.0, gaussian_2d)]
        )
        assert np.allclose(mixture.weights, [0.5, 0.5])


class TestDensity:
    def test_density_is_weighted_sum(self, mixture_2d: GaussianMixture, rng):
        points = rng.normal(size=(30, 2))
        manual = sum(
            w * c.pdf(points) for w, c in mixture_2d
        )
        assert np.allclose(mixture_2d.pdf(points), manual)

    def test_log_pdf_floors_deep_tails(self, mixture_2d: GaussianMixture):
        far = np.full((1, 2), 1e6)
        value = mixture_2d.log_pdf(far)[0]
        assert np.isfinite(value)

    def test_1d_density_integrates_to_one(self, mixture_1d: GaussianMixture):
        grid = np.linspace(-20, 20, 40_001)[:, None]
        integral = np.trapezoid(mixture_1d.pdf(grid), grid.ravel())
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestPosterior:
    def test_rows_sum_to_one(self, mixture_2d: GaussianMixture, rng):
        points = rng.normal(size=(25, 2)) * 3.0
        posterior = mixture_2d.posterior(points)
        assert np.allclose(posterior.sum(axis=1), 1.0)

    def test_points_near_a_center_belong_to_it(
        self, mixture_2d: GaussianMixture
    ):
        near_second = np.array([[6.0, 0.0]])
        posterior = mixture_2d.posterior(near_second)
        assert np.argmax(posterior[0]) == 1
        assert posterior[0, 1] > 0.99

    def test_deep_tail_stays_normalised_and_stable(
        self, mixture_2d: GaussianMixture
    ):
        # All densities underflow to zero out here; the posterior must
        # stay a valid distribution (the relatively-closest component
        # takes the mass) rather than turn into NaNs.
        far = np.full((1, 2), 1e8)
        posterior = mixture_2d.posterior(far)
        assert np.all(np.isfinite(posterior))
        assert posterior.sum() == pytest.approx(1.0)

    def test_assign_picks_max_posterior(self, mixture_2d: GaussianMixture):
        points = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        assert list(mixture_2d.assign(points)) == [0, 1, 2]


class TestLikelihood:
    def test_average_log_likelihood_definition(
        self, mixture_2d: GaussianMixture, rng
    ):
        points, _ = mixture_2d.sample(500, rng)
        expected = float(np.mean(np.log(mixture_2d.pdf(points))))
        assert mixture_2d.average_log_likelihood(points) == pytest.approx(
            expected
        )

    def test_own_samples_beat_shifted_samples(
        self, mixture_2d: GaussianMixture, rng
    ):
        points, _ = mixture_2d.sample(2000, rng)
        own = mixture_2d.average_log_likelihood(points)
        shifted = mixture_2d.average_log_likelihood(points + 10.0)
        assert own > shifted

    def test_max_component_bounded_by_mixture(
        self, mixture_2d: GaussianMixture, rng
    ):
        points, _ = mixture_2d.sample(400, rng)
        sharpened = mixture_2d.max_component_log_likelihood(points)
        full = mixture_2d.average_log_likelihood(points)
        assert sharpened <= full + 1e-12

    def test_empty_data_rejected(self, mixture_2d: GaussianMixture):
        with pytest.raises(ValueError, match="empty"):
            mixture_2d.average_log_likelihood(np.empty((0, 2)))


class TestMomentsAndSampling:
    def test_pooled_gaussian_moments(self, mixture_1d: GaussianMixture, rng):
        pooled = mixture_1d.pooled_gaussian()
        samples, _ = mixture_1d.sample(200_000, rng)
        assert pooled.mean[0] == pytest.approx(samples.mean(), abs=0.05)
        assert pooled.covariance[0, 0] == pytest.approx(
            samples.var(), rel=0.02
        )

    def test_sample_label_frequencies_match_weights(
        self, mixture_2d: GaussianMixture, rng
    ):
        _, labels = mixture_2d.sample(50_000, rng)
        freq = np.bincount(labels, minlength=3) / 50_000
        assert np.allclose(freq, mixture_2d.weights, atol=0.01)

    def test_union_preserves_mass_ratio(self, mixture_1d: GaussianMixture):
        other = GaussianMixture.single(
            Gaussian(np.array([10.0]), np.array([[1.0]]))
        )
        union = mixture_1d.union(other, 3.0, 1.0)
        assert union.n_components == 3
        assert union.weights[-1] == pytest.approx(0.25)

    def test_union_dimension_mismatch_rejected(
        self, mixture_1d: GaussianMixture, mixture_2d: GaussianMixture
    ):
        with pytest.raises(ValueError, match="different dimension"):
            mixture_1d.union(mixture_2d, 1.0, 1.0)


class TestSerialization:
    def test_round_trip(self, mixture_2d: GaussianMixture):
        clone = GaussianMixture.from_dict(mixture_2d.to_dict())
        assert clone == mixture_2d

    def test_payload_matches_theorem3_accounting(self):
        mixture = GaussianMixture(
            np.ones(5) / 5,
            tuple(
                Gaussian.spherical(np.full(4, float(i)), 1.0)
                for i in range(5)
            ),
        )
        # K (d² + d + 1) scalars at 8 bytes.
        assert mixture.payload_bytes() == 8 * 5 * (16 + 4 + 1)

    def test_iteration_yields_weight_component_pairs(
        self, mixture_2d: GaussianMixture
    ):
        pairs = list(mixture_2d)
        assert len(pairs) == 3
        assert pairs[0][0] == pytest.approx(0.5)


class TestUnionByMass:
    @staticmethod
    def single(mean: float) -> GaussianMixture:
        return GaussianMixture(
            np.ones(1), (Gaussian.spherical(np.full(1, mean), 1.0),)
        )

    def test_folds_left_to_right_in_mass_order(self):
        a, b, c = self.single(0.0), self.single(1.0), self.single(2.0)
        folded = union_by_mass([(a, 3), (b, 1), (c, 4)])
        by_hand = a.union(b, 3.0, 1.0).union(c, 4.0, 4.0)
        assert folded == by_hand
        assert np.array_equal(folded.weights, by_hand.weights)

    def test_non_positive_masses_are_skipped(self):
        a, b = self.single(0.0), self.single(1.0)
        folded = union_by_mass([(b, 0), (a, 2), (b, -1)])
        assert folded is a

    def test_none_when_no_pair_is_left(self):
        assert union_by_mass([]) is None
        assert union_by_mass([(self.single(0.0), 0)]) is None
