"""Tests for the evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.periodic import PeriodicReporterConfig
from benchmarks.paper.baselines.sem import SEMConfig
from benchmarks.paper.evaluation.comm import compare_communication
from benchmarks.paper.evaluation.memory import (
    mixture_parameter_count,
    predicted_site_memory_bytes,
)
from benchmarks.paper.evaluation.quality import (
    QualitySeries,
    averaged_quality,
    holdout_quality,
)
from benchmarks.paper.evaluation.timing import measure_throughput
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig


class TestQuality:
    def test_holdout_quality_is_definition_one(self, mixture_2d, rng):
        data, _ = mixture_2d.sample(300, rng)
        assert holdout_quality(mixture_2d, data) == pytest.approx(
            mixture_2d.average_log_likelihood(data)
        )

    def test_averaged_quality_mean_and_std(self):
        mean, std = averaged_quality(lambda i: float(i), n_runs=5)
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(np.std([0, 1, 2, 3, 4]))

    def test_averaged_quality_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="n_runs"):
            averaged_quality(lambda i: 0.0, n_runs=0)

    def test_series_records_and_reads_back(self):
        series = QualitySeries()
        series.record("clu", 1000, -1.0)
        series.record("clu", 2000, -1.1)
        series.record("sem", 1000, -2.0)
        positions, values = series.series("clu")
        assert positions == [1000, 2000]
        assert values == [-1.0, -1.1]
        assert set(series.algorithms) == {"clu", "sem"}

    def test_series_mean_quality(self):
        series = QualitySeries()
        series.record("clu", 1, -1.0)
        series.record("clu", 2, -3.0)
        assert series.mean_quality("clu") == pytest.approx(-2.0)

    def test_series_wins_fraction(self):
        series = QualitySeries()
        for position, (a, b) in enumerate([(-1, -2), (-1, -2), (-3, -2)]):
            series.record("clu", position, float(a))
            series.record("sem", position, float(b))
        assert series.wins("clu", "sem") == pytest.approx(2.0 / 3.0)

    def test_series_rejects_non_finite_quality(self):
        series = QualitySeries()
        with pytest.raises(ValueError, match="finite"):
            series.record("clu", 0, float("nan"))

    def test_series_unknown_algorithm(self):
        with pytest.raises(KeyError):
            QualitySeries().series("nope")


class TestMemory:
    def test_parameter_count_full_covariance(self):
        assert mixture_parameter_count(5, 4) == 5 * (16 + 4 + 1)

    def test_parameter_count_diagonal(self):
        assert mixture_parameter_count(5, 4, diagonal=True) == 5 * (4 + 4 + 1)

    def test_predicted_memory_grows_with_distributions(self):
        low = predicted_site_memory_bytes(4, 0.02, 0.01, 5, 1)
        high = predicted_site_memory_bytes(4, 0.02, 0.01, 5, 10)
        assert high > low

    def test_predicted_memory_dominated_by_buffer_for_small_b(self):
        from repro.core.chunking import chunk_size

        predicted = predicted_site_memory_bytes(4, 0.02, 0.01, 5, 0)
        assert predicted == 8 * chunk_size(4, 0.02, 0.01) * 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            mixture_parameter_count(0, 4)
        with pytest.raises(ValueError):
            predicted_site_memory_bytes(4, 0.02, 0.01, 5, -1)


class TestTiming:
    def test_measures_only_the_consumer(self):
        result = measure_throughput(
            lambda r: None, iter(np.zeros((100, 2))), max_records=100
        )
        assert result.records == 100
        assert result.seconds >= 0.0
        assert result.records_per_second > 0.0

    def test_warmup_excluded_from_count(self):
        consumed = []
        result = measure_throughput(
            consumed.append,
            iter(np.zeros((100, 2))),
            max_records=50,
            warmup=20,
        )
        assert result.records == 50
        assert len(consumed) == 70

    def test_short_stream_measures_what_exists(self):
        result = measure_throughput(
            lambda r: None, iter(np.zeros((30, 2))), max_records=100
        )
        assert result.records == 30

    def test_exhausted_stream_rejected(self):
        with pytest.raises(ValueError, match="exhausted"):
            measure_throughput(lambda r: None, iter([]), max_records=10)

    def test_seconds_per_1k_updates(self):
        result = measure_throughput(
            lambda r: None, iter(np.zeros((500, 1))), max_records=500
        )
        assert result.seconds_per_1k_updates == pytest.approx(
            result.seconds * 2.0
        )


class TestCommunicationComparison:
    def test_cludistream_beats_periodic_on_stable_streams(self):
        def make_streams(seed: int):
            mixture = GaussianMixture(
                np.array([0.5, 0.5]),
                (
                    Gaussian.spherical(np.array([0.0, 0.0]), 0.4),
                    Gaussian.spherical(np.array([6.0, 0.0]), 0.4),
                ),
            )
            return {
                i: mixture.sample(3000, np.random.default_rng(seed + i))[0]
                for i in range(2)
            }

        comparison = compare_communication(
            make_streams,
            n_sites=2,
            records_per_site=3000,
            site_config=RemoteSiteConfig(
                dim=2,
                epsilon=0.3,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
                chunk_override=500,
            ),
            periodic_config=PeriodicReporterConfig(
                period=500,
                sem=SEMConfig(
                    n_components=2,
                    buffer_size=500,
                    em=EMConfig(
                        n_components=2, n_init=1, max_iter=25, tol=1e-3
                    ),
                ),
            ),
            sample_every=1000,
        )
        assert comparison.ratio > 2.0
        assert len(comparison.positions) == 3
        assert list(comparison.cludistream_series) == sorted(
            comparison.cludistream_series
        )

    def test_invalid_record_count_rejected(self):
        with pytest.raises(ValueError, match="records_per_site"):
            compare_communication(
                lambda seed: {}, n_sites=1, records_per_site=0
            )
