"""Tests for exact missing-data EM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.missing import (
    average_marginal_log_likelihood,
    fit_em_missing,
    group_by_pattern,
    marginal_log_pdf,
    marginal_posterior,
    mean_impute,
)
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSite, RemoteSiteConfig


class MissingValueStream:
    """Wrap a record stream, erasing each attribute with probability
    ``rate`` (as NaN) but always leaving one attribute observed."""

    def __init__(self, source, rate: float = 0.1, rng=None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("missingness rate must lie in [0, 1)")
        self._source = iter(source)
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(404)

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        record = np.asarray(next(self._source), dtype=float).copy()
        if self.rate <= 0.0:
            return record
        mask = self._rng.random(record.size) < self.rate
        if mask.all():
            mask[int(self._rng.integers(record.size))] = False
        record[mask] = np.nan
        return record


def knock_out(data: np.ndarray, rate: float, seed: int) -> np.ndarray:
    """Erase attributes at random, keeping one observed per row."""
    rng = np.random.default_rng(seed)
    data = data.copy()
    mask = rng.random(data.shape) < rate
    full_rows = mask.all(axis=1)
    mask[full_rows, 0] = False
    data[mask] = np.nan
    return data


class TestHelpers:
    def test_group_by_pattern_partitions_rows(self):
        data = np.array(
            [[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0], [np.nan, 6.0]]
        )
        groups = group_by_pattern(data)
        assert len(groups) == 2
        sizes = sorted(group.indices.size for group in groups)
        assert sizes == [2, 2]
        total = sum(group.indices.size for group in groups)
        assert total == 4

    def test_fully_missing_record_rejected(self):
        data = np.array([[1.0, 2.0], [np.nan, np.nan]])
        with pytest.raises(ValueError, match="every attribute missing"):
            group_by_pattern(data)

    def test_mean_impute_uses_observed_means(self):
        data = np.array([[1.0, np.nan], [3.0, 4.0]])
        imputed = mean_impute(data)
        assert imputed[0, 1] == pytest.approx(4.0)
        assert imputed[1, 0] == pytest.approx(3.0)

    def test_mean_impute_all_missing_column_is_zero(self):
        data = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        imputed = mean_impute(data)
        assert np.allclose(imputed[:, 0], 0.0)


class TestMarginalDensities:
    def test_complete_rows_match_ordinary_log_pdf(self, gaussian_2d, rng):
        data = rng.normal(size=(20, 2))
        assert np.allclose(
            marginal_log_pdf(gaussian_2d, data), gaussian_2d.log_pdf(data)
        )

    def test_marginal_is_the_analytic_marginal(self, gaussian_2d):
        # Observing only attribute 0: density must equal the 1-d
        # Gaussian N(mean[0], cov[0,0]).
        row = np.array([[1.5, np.nan]])
        value = marginal_log_pdf(gaussian_2d, row)[0]
        expected = Gaussian(
            gaussian_2d.mean[:1], gaussian_2d.covariance[:1, :1]
        ).log_pdf(np.array([[1.5]]))[0]
        assert value == pytest.approx(expected)

    def test_average_marginal_likelihood_matches_complete_case(
        self, mixture_2d, rng
    ):
        data, _ = mixture_2d.sample(200, rng)
        assert average_marginal_log_likelihood(
            mixture_2d, data
        ) == pytest.approx(mixture_2d.average_log_likelihood(data))

    def test_marginal_posterior_rows_sum_to_one(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(50, rng)
        data = knock_out(data, 0.4, seed=1)
        posterior = marginal_posterior(mixture_2d, data)
        assert np.allclose(posterior.sum(axis=1), 1.0)

    def test_observed_attribute_still_identifies_cluster(self, mixture_2d):
        # Component 1 lives at x=6; a record observing only x=6 should
        # overwhelmingly belong to it.
        row = np.array([[6.0, np.nan]])
        posterior = marginal_posterior(mixture_2d, row)
        assert np.argmax(posterior[0]) == 1


class TestFitEMMissing:
    def make_data(self, rate: float, n: int = 1200, seed: int = 3):
        truth = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([-4.0, 0.0]), 0.5),
                Gaussian.spherical(np.array([4.0, 0.0]), 0.5),
            ),
        )
        data, _ = truth.sample(n, np.random.default_rng(seed))
        return truth, knock_out(data, rate, seed=seed + 1)

    def test_recovers_clusters_with_missing_values(self):
        truth, data = self.make_data(rate=0.25)
        result = fit_em_missing(
            data,
            EMConfig(n_components=2, max_iter=60, tol=1e-4),
            np.random.default_rng(4),
        )
        means = sorted(c.mean[0] for c in result.mixture.components)
        assert means[0] == pytest.approx(-4.0, abs=0.5)
        assert means[1] == pytest.approx(4.0, abs=0.5)

    def test_no_missing_values_behaves_like_plain_em(self):
        truth, _ = self.make_data(rate=0.0)
        data, _ = truth.sample(1000, np.random.default_rng(5))
        result = fit_em_missing(
            data,
            EMConfig(n_components=2, max_iter=60, tol=1e-4),
            np.random.default_rng(6),
        )
        holdout, _ = truth.sample(1000, np.random.default_rng(7))
        quality = result.mixture.average_log_likelihood(holdout)
        assert quality > truth.average_log_likelihood(holdout) - 0.2

    def test_likelihood_history_non_decreasing(self):
        _, data = self.make_data(rate=0.3)
        result = fit_em_missing(
            data,
            EMConfig(n_components=2, max_iter=40, tol=1e-5),
            np.random.default_rng(8),
        )
        history = np.array(result.history)
        assert np.all(np.diff(history) >= -1e-6)

    def test_beats_mean_imputation_at_high_missingness(self):
        """The exact E-step's selling point: at heavy missingness,
        mean-imputing then running plain EM biases the covariance."""
        from repro.core.em import fit_em

        truth, data = self.make_data(rate=0.4, n=2000)
        exact = fit_em_missing(
            data,
            EMConfig(n_components=2, max_iter=60, tol=1e-4),
            np.random.default_rng(9),
        )
        naive = fit_em(
            mean_impute(data),
            EMConfig(n_components=2, max_iter=60, tol=1e-4, n_init=1),
            np.random.default_rng(9),
        )
        holdout, _ = truth.sample(2000, np.random.default_rng(10))
        assert exact.mixture.average_log_likelihood(
            holdout
        ) > naive.mixture.average_log_likelihood(holdout)

    def test_warm_start_accepted(self, mixture_2d):
        _, data = self.make_data(rate=0.2)
        result = fit_em_missing(
            data,
            EMConfig(n_components=3, max_iter=20),
            np.random.default_rng(11),
            initial=mixture_2d,
        )
        assert np.isfinite(result.log_likelihood)

    def test_infinite_values_rejected(self):
        data = np.ones((10, 2))
        data[0, 0] = np.inf
        with pytest.raises(ValueError, match="infinite"):
            fit_em_missing(data, EMConfig(n_components=2))


class TestRemoteSiteIntegration:
    def make_site(self, handle_missing: bool) -> RemoteSite:
        config = RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            handle_missing=handle_missing,
            chunk_override=300,
        )
        return RemoteSite(0, config, rng=np.random.default_rng(12))

    def stream(self, rate: float, n: int):
        truth = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([-4.0, 0.0]), 0.5),
                Gaussian.spherical(np.array([4.0, 0.0]), 0.5),
            ),
        )
        data, _ = truth.sample(n, np.random.default_rng(13))
        return truth, MissingValueStream(
            iter(data), rate=rate, rng=np.random.default_rng(14)
        )

    def test_nan_record_rejected_without_flag(self):
        site = self.make_site(handle_missing=False)
        with pytest.raises(ValueError, match="missing attributes"):
            site.process_record(np.array([1.0, np.nan]))

    def test_site_clusters_incomplete_stream(self):
        site = self.make_site(handle_missing=True)
        truth, stream = self.stream(rate=0.2, n=900)
        site.process_stream(stream)
        assert site.current_model is not None
        # The fitted model explains fresh complete data.
        holdout, _ = truth.sample(500, np.random.default_rng(15))
        quality = site.current_model.mixture.average_log_likelihood(holdout)
        assert quality > truth.average_log_likelihood(holdout) - 1.0

    def test_stable_incomplete_stream_stays_quiet(self):
        site = self.make_site(handle_missing=True)
        _, stream = self.stream(rate=0.2, n=1800)
        site.process_stream(stream)
        assert site.stats.n_clusterings == 1


class TestMissingValueStream:
    def test_rate_zero_passes_through(self):
        source = np.ones((50, 3))
        stream = MissingValueStream(iter(source), rate=0.0)
        out = np.stack([next(stream) for _ in range(50)])
        assert not np.isnan(out).any()

    def test_erasure_rate_approximately_matches(self):
        source = np.ones((2000, 4))
        stream = MissingValueStream(
            iter(source), rate=0.25, rng=np.random.default_rng(16)
        )
        out = np.stack([next(stream) for _ in range(2000)])
        observed_rate = np.isnan(out).mean()
        assert observed_rate == pytest.approx(0.25, abs=0.03)

    def test_never_erases_all_attributes(self):
        source = np.ones((500, 2))
        stream = MissingValueStream(
            iter(source), rate=0.9, rng=np.random.default_rng(17)
        )
        out = np.stack([next(stream) for _ in range(500)])
        assert np.all(~np.isnan(out).all(axis=1))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            MissingValueStream(iter([]), rate=1.0)
