"""Integration at the paper's own parameter point.

Every other test scales the workload down for speed; this module runs
the system once at the paper's §6 defaults -- ``r = 20`` sites,
``ε = 0.02``, ``δ = 0.01``, ``d = 4``, ``K = 5``, ``c_max = 4``,
Theorem 1 chunk sizing (``M = 1567``) -- on a few chunks per site, and
checks the end-to-end invariants that the scaled tests verify piecewise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)

N_SITES = 20
CHUNKS_PER_SITE = 3  # 3 * 1567 records per site ≈ 94k records total


@pytest.fixture(scope="module")
def paper_system():
    config = CluDistreamConfig(
        n_sites=N_SITES,
        site=RemoteSiteConfig(
            dim=4,
            epsilon=0.02,
            delta=0.01,
            c_max=4,
            em=EMConfig(n_components=5, n_init=1, max_iter=40, tol=1e-3),
        ),
        coordinator=CoordinatorConfig(max_components=5, merge_method="moment"),
    )
    system = CluDistream(config, seed=2007)
    records_per_site = CHUNKS_PER_SITE * config.site.chunk
    streams = {
        i: EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=4,
                n_components=5,
                segment_length=2000,
                p_new_distribution=0.1,
            ),
            rng=np.random.default_rng(3000 + i),
        )
        for i in range(N_SITES)
    }
    system.feed_streams(streams, max_records_per_site=records_per_site)
    return system, streams, records_per_site


class TestPaperDefaults:
    def test_theorem1_chunk_size(self, paper_system):
        system, _, _ = paper_system
        assert system.sites[0].chunk == 1567

    def test_every_site_built_a_model(self, paper_system):
        system, _, records = paper_system
        for site in system.sites:
            assert site.current_model is not None
            assert site.stats.records_seen == records
            assert site.stats.chunks_processed == CHUNKS_PER_SITE

    def test_counters_account_for_every_record(self, paper_system):
        system, _, _ = paper_system
        for site in system.sites:
            attributed = sum(entry.count for entry in site.all_models)
            assert attributed == site.position

    def test_coordinator_respects_the_paper_k(self, paper_system):
        system, _, _ = paper_system
        assert 1 <= system.coordinator.n_components <= 5
        assert system.coordinator.stats.model_updates >= N_SITES

    def test_communication_is_synopsis_scale(self, paper_system):
        system, _, records = paper_system
        raw_bytes = N_SITES * records * 4 * 8
        assert system.total_bytes_sent() < raw_bytes / 100

    def test_global_model_explains_fresh_data(self, paper_system):
        system, streams, _ = paper_system
        rng = np.random.default_rng(5)
        holdout = np.vstack(
            [
                streams[i].segments[-1].mixture.sample(200, rng)[0]
                for i in range(N_SITES)
            ]
        )
        mixture = system.global_mixture()
        good = mixture.average_log_likelihood(holdout)
        bad = mixture.average_log_likelihood(holdout + 100.0)
        assert np.isfinite(good)
        assert good > bad

    def test_memory_within_theorem3_envelope(self, paper_system):
        from benchmarks.paper.evaluation.memory import predicted_site_memory_bytes

        system, _, _ = paper_system
        for site in system.sites:
            bound = predicted_site_memory_bytes(
                4, 0.02, 0.01, 5, n_distributions=len(site.all_models)
            )
            # The measured accounting adds counters/reference scalars on
            # top of the parameter envelope; allow that slack.
            assert site.memory_bytes() < bound * 1.5
