"""Tests for the periodic-reporting baseline."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.periodic import PeriodicReporter, PeriodicReporterConfig
from benchmarks.paper.baselines.sem import SEMConfig
from repro.core.em import EMConfig
from repro.core.protocol import ModelUpdateMessage


def fast_config(period: int = 400) -> PeriodicReporterConfig:
    return PeriodicReporterConfig(
        period=period,
        sem=SEMConfig(
            n_components=2,
            buffer_size=400,
            em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
        ),
    )


def stream(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    labels = rng.integers(2, size=n)
    points = rng.normal(0.0, 0.5, size=(n, 2))
    points[:, 0] += np.where(labels == 0, -4.0, 4.0)
    return points


class TestPeriodicReporter:
    def test_reports_exactly_on_the_period(self):
        reporter = PeriodicReporter(
            0, 2, fast_config(400), rng=np.random.default_rng(0)
        )
        messages = reporter.process_stream(stream(2000, 1))
        assert len(messages) == 5
        assert all(isinstance(m, ModelUpdateMessage) for m in messages)

    def test_reports_regardless_of_stability(self):
        """The defining contrast with CluDistream: a stationary stream
        still generates one full synopsis per period."""
        reporter = PeriodicReporter(
            0, 2, fast_config(400), rng=np.random.default_rng(0)
        )
        reporter.process_stream(stream(400, 1))
        first_bytes = reporter.bytes_sent
        reporter.process_stream(stream(1600, 2))
        assert reporter.bytes_sent == pytest.approx(5 * first_bytes, rel=0.01)

    def test_model_ids_increment(self):
        reporter = PeriodicReporter(
            0, 2, fast_config(400), rng=np.random.default_rng(0)
        )
        messages = reporter.process_stream(stream(1200, 1))
        assert [m.model_id for m in messages] == [0, 1, 2]

    def test_emit_callback_used(self):
        received = []
        reporter = PeriodicReporter(
            0,
            2,
            fast_config(400),
            rng=np.random.default_rng(0),
            emit=received.append,
        )
        reporter.process_stream(stream(800, 1))
        assert len(received) == 2

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            PeriodicReporterConfig(period=0)

    def test_byte_accounting_matches_messages(self):
        reporter = PeriodicReporter(
            0, 2, fast_config(400), rng=np.random.default_rng(0)
        )
        messages = reporter.process_stream(stream(1200, 1))
        assert reporter.bytes_sent == sum(
            m.payload_bytes() for m in messages
        )
