"""Scaled-down soak harness runs (the 1000-site version rides in CI).

``run_soak`` compares a tree deployment against a flat single-coordinator
reference on a pooled holdout -- these tests exercise the harness at a
dozen sites so they fit the unit-test budget, and the CI smoke / manual
``cludistream cluster --soak`` runs provide the full-scale evidence.
"""

from __future__ import annotations

import pytest

from repro.cluster.soak import SoakReport, run_soak, soak_spec
from repro.transport.lossy import FaultConfig


@pytest.fixture(scope="module")
def small_report() -> SoakReport:
    return run_soak(soak_spec(sites=12, fanin=4, records_per_site=120))


class TestSoakSpec:
    def test_default_shape_is_thousand_sites(self):
        spec = soak_spec()
        assert len(spec.site_nodes) == 1000
        assert spec.depth == 2
        assert spec.merge_method == "moment"

    def test_small_shape(self):
        spec = soak_spec(sites=12, fanin=4, records_per_site=120)
        assert len(spec.site_nodes) == 12
        assert spec.records_per_site == 120


class TestRunSoak:
    def test_small_soak_passes(self, small_report):
        assert small_report.passed
        assert small_report.sites == 12
        assert small_report.records == 12 * 120
        assert small_report.ll_gap <= small_report.tolerance

    def test_accounting_is_populated(self, small_report):
        assert small_report.uplink_bytes > 0
        assert len(small_report.levels) == 2
        assert all(level.wire_bytes > 0 for level in small_report.levels)
        assert small_report.holdout == 24

    def test_summary_and_dict(self, small_report):
        text = small_report.summary()
        assert "12 sites" in text
        assert "PASS" in text
        payload = small_report.as_dict()
        assert payload["passed"] is True
        assert len(payload["levels"]) == 2

    def test_lossy_soak_matches_clean_reference(self):
        """The flat reference is loss-free by construction, so a pass
        under faults means ARQ hid the loss from the clustering."""
        report = run_soak(
            soak_spec(sites=8, fanin=4, records_per_site=120),
            faults=FaultConfig(drop_rate=0.15, duplicate_rate=0.05,
                               delay=0.05),
        )
        assert report.passed
        assert sum(l.retransmissions for l in report.levels) >= 0

    def test_progress_callback_sees_every_record(self):
        seen = []
        run_soak(
            soak_spec(sites=4, fanin=4, records_per_site=60),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (4 * 60, 4 * 60)
