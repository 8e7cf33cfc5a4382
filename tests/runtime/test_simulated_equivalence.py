"""The simulated channel ends where the direct channel ends.

A uniform per-message delay on a virtual clock keeps the coordinator's
delivery order, and nothing flows back from the coordinator to a site,
so a run over :class:`~repro.runtime.SimulatedChannel` must leave every
site, the coordinator and the delivery accounting byte-identical to the
same run over :class:`~repro.runtime.DirectChannel`.  The run here is
shaped like the end-to-end ``drift_merge`` workload at test size:
abrupt regime changes, a component cap and simplex merge fits, which
draw from the coordinator's rng.

The cost series of one seeded simulated run is pinned at the values
the discrete-event star network produced.  In that run the last
synopsis lands well before the last record, so no message is in
flight at the end and the series does not depend on the link model.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.io.checkpoint import snapshot_coordinator, snapshot_site
from repro.runtime import DirectChannel, SimulatedChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig

SITES = 3
RECORDS = 320
CHUNK = 80


def drift_config() -> CluDistreamConfig:
    return CluDistreamConfig(
        n_sites=SITES,
        site=RemoteSiteConfig(
            dim=2,
            epsilon=0.05,
            delta=0.05,
            c_max=4,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=CHUNK,
        ),
        coordinator=CoordinatorConfig(
            max_components=4, merge_method="simplex", merge_samples=128
        ),
    )


def drift_streams(records: int = RECORDS):
    # Every segment is a fresh mixture (P_d = 1): abrupt regime changes
    # at every chunk boundary, so sites keep uploading new models and
    # the capped coordinator keeps merging.
    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=2,
                    n_components=2,
                    segment_length=CHUNK,
                    p_new_distribution=1.0,
                ),
                rng=np.random.default_rng(900 + site_id),
            ),
            records,
        )
        for site_id in range(SITES)
    }


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def run(channel, records: int = RECORDS):
    system = CluDistream(drift_config(), seed=3)
    system.runtime(channel).run(drift_streams(records), records)
    return system, channel


@pytest.fixture(scope="module")
def both():
    return run(DirectChannel()), run(SimulatedChannel(rate=1000.0, latency=0.01))


class TestDriftMergeShapedRun:
    def test_the_run_exercises_simplex_merges(self, both):
        (direct, _), _ = both
        assert direct.coordinator.stats.merges > 0
        assert direct.coordinator.n_components <= 4

    def test_coordinator_state_is_byte_identical(self, both):
        (direct, _), (simulated, _) = both
        assert canonical(snapshot_coordinator(direct.coordinator)) == canonical(
            snapshot_coordinator(simulated.coordinator)
        )

    def test_every_site_state_is_byte_identical(self, both):
        (direct, _), (simulated, _) = both
        for a, b in zip(direct.sites, simulated.sites, strict=True):
            assert canonical(snapshot_site(a)) == canonical(snapshot_site(b))

    def test_accounting_is_identical(self, both):
        (_, direct), (_, simulated) = both
        assert canonical(direct.accounting().as_dict()) == canonical(
            simulated.accounting().as_dict()
        )


class TestCostSeriesPin:
    def test_cost_series_of_a_seeded_run(self):
        # 360 records: the last chunk boundary is record 320, so its
        # synopses are sent at 0.319 s and land at 0.329 s, well before
        # the last record at 0.359 s.
        _, channel = run(
            SimulatedChannel(rate=1000.0, sample_interval=0.05), records=360
        )
        times, values = channel.cost_series()
        assert times == pytest.approx([0.05 * (i + 1) for i in range(7)])
        # Three sites, one 160-byte synopsis each per chunk boundary.
        assert values == [0.0, 480.0, 480.0, 960.0, 1440.0, 1440.0, 1920.0]
        assert channel.duration == pytest.approx(0.359)
