"""Integration tests: the full CluDistream pipeline on realistic workloads."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper.baselines.sem import ScalableEM, SEMConfig
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.runtime import SimulatedChannel
from repro.streams.base import take
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator
from repro.streams.noise import NoiseConfig, NoisyStream
from repro.streams.synthetic import (
    EvolvingGaussianStream,
    EvolvingStreamConfig,
)
from repro.streams.visual import one_dimensional_phases
from repro.windows.horizon import horizon_mixture


def fast_em(k: int = 3) -> EMConfig:
    return EMConfig(n_components=k, n_init=1, max_iter=30, tol=1e-3)


def fast_site(dim: int = 4, k: int = 3, chunk: int = 400) -> RemoteSiteConfig:
    return RemoteSiteConfig(
        dim=dim,
        epsilon=0.05,
        delta=0.05,
        em=fast_em(k),
        chunk_override=chunk,
    )


class TestSyntheticWorkload:
    def test_distributed_clustering_of_evolving_streams(self):
        config = CluDistreamConfig(
            n_sites=3,
            site=fast_site(),
            coordinator=CoordinatorConfig(
                max_components=6, merge_method="moment"
            ),
        )
        system = CluDistream(config, seed=0)
        streams = {
            i: EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=4, n_components=3, segment_length=800,
                    p_new_distribution=0.2,
                ),
                rng=np.random.default_rng(100 + i),
            )
            for i in range(3)
        }
        system.feed_streams(streams, max_records_per_site=4000)
        # Every site trained at least one model; the coordinator heard
        # about all of them and holds a bounded global mixture.
        assert all(s.current_model is not None for s in system.sites)
        assert system.coordinator.stats.model_updates >= 3
        assert system.coordinator.n_components <= 6
        assert system.global_mixture().dim == 4

    def test_event_tables_track_stream_evolution(self):
        site = RemoteSite(
            0, fast_site(dim=2, chunk=300), rng=np.random.default_rng(1)
        )
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=2, n_components=3, segment_length=900,
                p_new_distribution=1.0, separation=6.0,
            ),
            rng=np.random.default_rng(2),
        )
        site.process_stream(take(stream, 5400))  # 6 distinct segments
        true_changes = len({s.segment_id for s in stream.segments}) - 1
        # The site should have noticed most distribution changes.
        assert len(site.all_models) >= max(2, true_changes // 2)

    def test_quality_beats_sem_after_distribution_changes(self):
        """The Figure 5 headline on a small scale: after the stream
        evolves, CluDistream's horizon model beats SEM's single model on
        fresh data from the current distribution."""
        rng = np.random.default_rng(3)
        stream_config = EvolvingStreamConfig(
            dim=2, n_components=3, segment_length=1200,
            p_new_distribution=1.0, separation=8.0, box=15.0,
        )
        stream = EvolvingGaussianStream(stream_config, rng)
        data = take(stream, 6000)

        site = RemoteSite(
            0, fast_site(dim=2, chunk=400), rng=np.random.default_rng(4)
        )
        sem = ScalableEM(
            2,
            SEMConfig(n_components=3, buffer_size=400, em=fast_em()),
            rng=np.random.default_rng(5),
        )
        for row in data:
            site.process_record(row)
            sem.process_record(row)

        # Fresh holdout from the last distribution.
        holdout, _ = stream.segments[-1].mixture.sample(
            2000, np.random.default_rng(6)
        )
        clu_quality = horizon_mixture(site, 1200).average_log_likelihood(
            holdout
        )
        sem_quality = sem.current_model().average_log_likelihood(holdout)
        assert clu_quality > sem_quality


class TestNoisyWorkload:
    def test_noise_does_not_derail_the_model(self):
        """Figure 4(d): 5% noise leaves the captured model close to the
        clean one."""
        phases = one_dimensional_phases(horizon=2000)
        clean_site = RemoteSite(
            0, fast_site(dim=1, chunk=500), rng=np.random.default_rng(7)
        )
        noisy_site = RemoteSite(
            1, fast_site(dim=1, chunk=500), rng=np.random.default_rng(7)
        )
        clean = list(phases.stream(np.random.default_rng(8)))[:2000]
        noisy = list(
            NoisyStream(
                iter(clean),
                NoiseConfig(fraction=0.05, low=-10.0, high=10.0),
                rng=np.random.default_rng(9),
            )
        )
        clean_site.process_stream(clean)
        noisy_site.process_stream(noisy)
        holdout = phases.phase_data(0, np.random.default_rng(10))
        clean_quality = clean_site.current_model.mixture.average_log_likelihood(holdout)
        noisy_quality = noisy_site.current_model.mixture.average_log_likelihood(holdout)
        assert noisy_quality > clean_quality - 0.5


class TestNetflowWorkload:
    def test_cludistream_over_netflow_streams(self):
        config = CluDistreamConfig(
            n_sites=2,
            site=RemoteSiteConfig(
                dim=6,
                epsilon=0.1,
                delta=0.05,
                em=EMConfig(n_components=4, n_init=1, max_iter=25, tol=1e-3),
                chunk_override=500,
            ),
            coordinator=CoordinatorConfig(
                max_components=6, merge_method="moment"
            ),
        )
        system = CluDistream(config, seed=0)
        streams = {
            i: NetflowStreamGenerator(
                NetflowConfig(segment_length=1000, p_switch=0.2),
                rng=np.random.default_rng(200 + i),
            )
            for i in range(2)
        }
        system.feed_streams(streams, max_records_per_site=3000)
        mixture = system.global_mixture()
        assert mixture.dim == 6
        # The model must assign reasonable density to fresh flow data.
        fresh = streams[0].snapshot(500)
        assert np.isfinite(mixture.average_log_likelihood(fresh))

    def test_simulated_run_produces_cost_series(self):
        config = CluDistreamConfig(
            n_sites=2,
            site=RemoteSiteConfig(
                dim=6,
                epsilon=0.1,
                delta=0.05,
                em=EMConfig(n_components=3, n_init=1, max_iter=20, tol=1e-3),
                chunk_override=500,
            ),
            coordinator=CoordinatorConfig(
                max_components=6, merge_method="moment"
            ),
        )
        system = CluDistream(config, seed=0)
        streams = {
            i: NetflowStreamGenerator(
                NetflowConfig(segment_length=1000, p_switch=0.2),
                rng=np.random.default_rng(300 + i),
            )
            for i in range(2)
        }
        channel = SimulatedChannel(rate=1000.0)
        report = system.runtime(channel).run(
            streams, max_records_per_site=2000
        )
        assert report.records == 4000
        assert report.accounting.payload_bytes > 0
        times, values = channel.cost_series()
        assert len(times) == len(values)
        assert values == sorted(values)


class TestCommunicationStability:
    def test_stable_sites_eventually_stop_talking(self):
        """Section 5.3's stability property end to end: after learning a
        stationary stream, a site sends nothing further."""
        site_config = fast_site(dim=2, chunk=400)
        site = RemoteSite(0, site_config, rng=np.random.default_rng(11))
        stream = EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=2, n_components=3, segment_length=2000,
                p_new_distribution=0.0,
            ),
            rng=np.random.default_rng(12),
        )
        data = take(stream, 8000)
        site.process_stream(data[:2000])
        bytes_early = site.stats.bytes_sent
        site.process_stream(data[2000:])
        assert site.stats.bytes_sent == bytes_early
