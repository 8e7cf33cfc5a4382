"""Tests for soft-membership and anomaly scoring."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.mixture as mixture_module
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.scoring import (
    AnomalyDetector,
    anomaly_scores,
    calibrate_threshold,
    membership_report,
)
from tests.core.test_refit_ladder import count_calls


@pytest.fixture
def model() -> GaussianMixture:
    return GaussianMixture(
        np.array([0.6, 0.4]),
        (
            Gaussian.spherical(np.array([0.0, 0.0]), 0.5),
            Gaussian.spherical(np.array([5.0, 0.0]), 0.5),
        ),
    )


class TestMembership:
    def test_probabilities_sum_to_one(self, model, rng):
        records, _ = model.sample(20, rng)
        for row in membership_report(model, records):
            assert sum(p for _, p in row) == pytest.approx(1.0)

    def test_sorted_strongest_first(self, model, rng):
        records, _ = model.sample(20, rng)
        for row in membership_report(model, records):
            probs = [p for _, p in row]
            assert probs == sorted(probs, reverse=True)

    def test_near_center_record_is_confident(self, model):
        report = membership_report(model, np.array([[5.0, 0.0]]))
        cluster, probability = report[0][0]
        assert cluster == 1
        assert probability > 0.99

    def test_between_clusters_record_is_soft(self, model):
        report = membership_report(model, np.array([[2.4, 0.0]]))
        _, probability = report[0][0]
        assert probability < 0.95  # genuinely uncertain

    def test_handles_missing_attributes(self, model):
        report = membership_report(model, np.array([[5.0, np.nan]]))
        cluster, probability = report[0][0]
        assert cluster == 1
        assert probability > 0.9


class TestAnomalyScores:
    def test_outlier_scores_higher_than_inlier(self, model):
        scores = anomaly_scores(
            model, np.array([[0.0, 0.0], [50.0, 50.0]])
        )
        assert scores[1] > scores[0] + 10.0

    def test_marginal_scoring_for_incomplete_records(self, model):
        inlier = anomaly_scores(model, np.array([[0.0, np.nan]]))[0]
        outlier = anomaly_scores(model, np.array([[50.0, np.nan]]))[0]
        assert outlier > inlier + 10.0


class TestCalibration:
    def test_threshold_hits_target_rate(self, model, rng):
        reference, _ = model.sample(5000, rng)
        threshold = calibrate_threshold(model, reference, 0.05)
        fresh, _ = model.sample(5000, rng)
        rate = float(np.mean(anomaly_scores(model, fresh) > threshold))
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_invalid_rate_rejected(self, model, rng):
        reference, _ = model.sample(100, rng)
        with pytest.raises(ValueError, match="false_positive_rate"):
            calibrate_threshold(model, reference, 0.0)

    def test_small_reference_rejected(self, model):
        with pytest.raises(ValueError, match="at least 10"):
            calibrate_threshold(model, np.zeros((3, 2)))


class TestAnomalyDetector:
    def test_flags_attack_traffic(self, model, rng):
        reference, _ = model.sample(2000, rng)
        detector = AnomalyDetector(model, reference, 0.01)
        normal, _ = model.sample(500, rng)
        attack = normal + 20.0
        normal_flags = sum(
            v.is_anomaly for v in detector.score_batch(normal)
        )
        attack_flags = sum(
            v.is_anomaly for v in detector.score_batch(attack)
        )
        assert attack_flags == 500
        assert normal_flags < 25

    def test_verdict_carries_membership(self, model, rng):
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        verdict = detector.score(np.array([5.0, 0.0]))
        assert not verdict.is_anomaly
        assert verdict.top_cluster == 1
        assert verdict.top_probability > 0.99

    def test_counters_track_usage(self, model, rng):
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        records, _ = model.sample(100, rng)
        detector.score_batch(records)
        assert detector.scored == 100
        assert detector.flagged <= 5

    def test_recalibrate_swaps_the_model(self, model, rng):
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        shifted = GaussianMixture(
            model.weights,
            tuple(
                Gaussian(c.mean + 100.0, c.covariance)
                for c in model.components
            ),
        )
        new_reference, _ = shifted.sample(1000, rng)
        detector.recalibrate(shifted, new_reference)
        verdict = detector.score(np.array([100.0, 100.0]))
        assert not verdict.is_anomaly


class TestScoreBatchVectorised:
    """The one-pass score_batch must match per-record scoring exactly."""

    def _loop_verdicts(self, detector, records):
        """Reference implementation: the pre-vectorisation per-record
        loop, built from membership_report's descending sort."""
        from repro.core.scoring import AnomalyVerdict

        verdicts = []
        for record in np.atleast_2d(records):
            row = np.atleast_2d(record)
            score = float(anomaly_scores(detector.mixture, row)[0])
            top_cluster, top_probability = membership_report(
                detector.mixture, row
            )[0][0]
            verdicts.append(
                AnomalyVerdict(
                    score=score,
                    threshold=detector.threshold,
                    is_anomaly=score > detector.threshold,
                    top_cluster=top_cluster,
                    top_probability=top_probability,
                )
            )
        return verdicts

    def test_matches_loop_on_clean_records(self, model, rng):
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        records, _ = model.sample(200, rng)
        batch = detector.score_batch(records)
        loop = self._loop_verdicts(detector, records)
        assert batch == loop

    def test_matches_loop_with_missing_attributes(self, model, rng):
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        records, _ = model.sample(50, rng)
        records[::7, 0] = np.nan
        batch = detector.score_batch(records)
        loop = self._loop_verdicts(detector, records)
        # A NaN-containing batch routes *every* row through the
        # marginal path, so clean rows can differ from their solo
        # evaluation by an ulp -- decisions must still be identical.
        for got, want in zip(batch, loop):
            assert got.score == pytest.approx(want.score, rel=1e-12)
            assert got.top_probability == pytest.approx(
                want.top_probability, rel=1e-12
            )
            assert got.top_cluster == want.top_cluster
            assert got.is_anomaly == want.is_anomaly

    def test_matches_loop_on_far_tail_ties(self, model, rng):
        """Records far outside the model floor every density; the
        posterior tie must break toward the same cluster as the loop's
        descending argsort."""
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        records = np.full((5, 2), 1e6)
        batch = detector.score_batch(records)
        loop = self._loop_verdicts(detector, records)
        assert batch == loop
        assert all(verdict.is_anomaly for verdict in batch)

    @pytest.mark.parametrize("n", [1, 50, 2000])
    def test_density_passes_do_not_grow_with_the_batch(
        self, model, rng, monkeypatch, n
    ):
        """Two kernel calls -- the scores' and the posterior's --
        however many records: no per-record model call."""
        reference, _ = model.sample(1000, rng)
        detector = AnomalyDetector(model, reference)
        records, _ = model.sample(n, rng)
        passes = count_calls(monkeypatch, mixture_module, "batch_log_pdf")
        assert len(detector.score_batch(records)) == n
        assert passes["n"] == 2

    def test_counters_accumulate_like_per_record_calls(self, model, rng):
        reference, _ = model.sample(1000, rng)
        batch_detector = AnomalyDetector(model, reference)
        loop_detector = AnomalyDetector(model, reference)
        records, _ = model.sample(120, rng)
        records[0] = [1e6, 1e6]
        batch_detector.score_batch(records)
        for record in records:
            loop_detector.score(record)
        assert batch_detector.scored == loop_detector.scored == 120
        assert batch_detector.flagged == loop_detector.flagged >= 1
