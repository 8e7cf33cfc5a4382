"""Tests for the assembled CluDistream system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from repro.runtime import SimulatedChannel


def fast_config(n_sites: int = 3) -> CluDistreamConfig:
    return CluDistreamConfig(
        n_sites=n_sites,
        site=RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=250,
        ),
        coordinator=CoordinatorConfig(
            max_components=4, merge_method="moment"
        ),
    )


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.4),
            Gaussian.spherical(np.array([center, 5.0]), 0.4),
        ),
    )


def stream_from(mixture: GaussianMixture, n: int, seed: int):
    points, _ = mixture.sample(n, np.random.default_rng(seed))
    return list(points)


class TestConfig:
    def test_defaults_follow_the_paper(self):
        config = CluDistreamConfig()
        assert config.n_sites == 20
        assert config.site.epsilon == 0.02
        assert config.site.delta == 0.01
        assert config.site.c_max == 4

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CluDistreamConfig(n_sites=0)

    @pytest.mark.parametrize(
        "field", [{"rate": 500.0}, {"latency": 0.5}, {"bandwidth": 1e6}]
    )
    def test_link_model_fields_are_unknown_keywords(self, field):
        """Deprecated in 1.5.0, gone in 1.6.0: the clock rate belongs to
        ``SimulatedChannel(rate=...)``."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            CluDistreamConfig(**field)

    def test_defaults_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CluDistreamConfig()


class TestDirectMode:
    def test_feed_delivers_to_coordinator(self):
        system = CluDistream(fast_config(1), seed=0)
        for record in stream_from(mixture_at(0.0), 250, 1):
            system.feed(0, record)
        assert system.coordinator.stats.model_updates == 1
        assert system.global_mixture().dim == 2

    def test_feed_streams_round_robin(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 500, 1),
            1: stream_from(mixture_at(20.0), 500, 2),
        }
        delivered = system.feed_streams(streams, max_records_per_site=500)
        assert delivered == 1000
        assert all(site.stats.records_seen == 500 for site in system.sites)

    def test_feed_after_feed_streams_still_delivers(self):
        """Regression: ``feed_streams`` closed the channel under the
        cached runtime behind ``feed``, so the sites kept emitting and
        the coordinator received nothing."""
        system = CluDistream(fast_config(2), seed=0)
        system.feed(0, stream_from(mixture_at(0.0), 1, 9)[0])
        system.feed_streams(
            {
                0: stream_from(mixture_at(0.0), 250, 1),
                1: stream_from(mixture_at(20.0), 250, 2),
            },
            max_records_per_site=250,
        )
        sent_before = system.total_messages_sent()
        for record in stream_from(mixture_at(40.0), 250, 3):
            system.feed(0, record)
        assert system.total_messages_sent() > sent_before
        assert (
            system.coordinator.stats.messages_received
            == system.total_messages_sent()
        )

    def test_unknown_site_rejected(self):
        system = CluDistream(fast_config(1), seed=0)
        with pytest.raises(KeyError):
            system.feed(5, np.zeros(2))

    def test_site_mixtures_exposed(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 250, 1),
            1: stream_from(mixture_at(20.0), 250, 2),
        }
        system.feed_streams(streams, max_records_per_site=250)
        assert len(system.site_mixtures()) == 2

    def test_byte_accounting_consistent(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 500, 1),
            1: stream_from(mixture_at(20.0), 500, 2),
        }
        system.feed_streams(streams, max_records_per_site=500)
        assert (
            system.total_bytes_sent()
            == system.coordinator.stats.bytes_received
        )
        assert (
            system.total_messages_sent()
            == system.coordinator.stats.messages_received
        )


class TestSimulatedMode:
    def test_simulation_delivers_all_records(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 500, 1),
            1: stream_from(mixture_at(20.0), 500, 2),
        }
        report = system.runtime(SimulatedChannel(rate=1000.0)).run(
            streams, max_records_per_site=500
        )
        assert report.records == 1000
        # The last of 500 records per site is at 499 / 1000 virtual s.
        assert report.duration == pytest.approx(0.499)
        assert report.accounting.attempted == system.total_messages_sent()
        assert report.accounting.payload_bytes == system.total_bytes_sent()

    def test_simulation_cost_series_is_monotone(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 2000, 1),
            1: stream_from(mixture_at(20.0), 2000, 2),
        }
        channel = SimulatedChannel(sample_interval=0.5)
        report = system.runtime(channel).run(
            streams, max_records_per_site=2000
        )
        _, values = channel.cost_series()
        assert values == sorted(values)
        assert values[-1] == report.accounting.payload_bytes

    def test_simulation_matches_direct_mode_results(self):
        direct = CluDistream(fast_config(2), seed=0)
        simulated = CluDistream(fast_config(2), seed=0)
        streams_a = {
            0: stream_from(mixture_at(0.0), 500, 1),
            1: stream_from(mixture_at(20.0), 500, 2),
        }
        streams_b = {
            0: stream_from(mixture_at(0.0), 500, 1),
            1: stream_from(mixture_at(20.0), 500, 2),
        }
        direct.feed_streams(streams_a, max_records_per_site=500)
        simulated.runtime(SimulatedChannel()).run(
            streams_b, max_records_per_site=500
        )
        # Same records, same seeds: identical traffic either way.
        assert direct.total_bytes_sent() == simulated.total_bytes_sent()

    def test_memory_accounting_positive(self):
        system = CluDistream(fast_config(1), seed=0)
        for record in stream_from(mixture_at(0.0), 250, 1):
            system.feed(0, record)
        assert system.memory_bytes() > 0


class TestEvolvingQuery:
    def test_query_returns_spans_per_site(self):
        system = CluDistream(fast_config(2), seed=0)
        streams = {
            0: stream_from(mixture_at(0.0), 500, 1)
            + stream_from(mixture_at(40.0), 500, 2),
            1: stream_from(mixture_at(20.0), 1000, 3),
        }
        system.feed_streams(streams, max_records_per_site=1000)
        answer = system.evolving_query(0, 1000)
        assert set(answer) == {0, 1}
        # Site 0 changed distribution mid-stream: two spans.
        spans0 = answer[0]
        assert len(spans0) == 2
        assert spans0[0][0] == 0
        assert spans0[-1][1] == 1000
        assert all(m is not None for _, _, m in spans0)
        # Site 1 stayed stable: one span covering the window.
        assert len(answer[1]) == 1

    def test_query_clips_to_the_window(self):
        system = CluDistream(fast_config(1), seed=0)
        streams = {0: stream_from(mixture_at(0.0), 1000, 1)}
        system.feed_streams(streams, max_records_per_site=1000)
        answer = system.evolving_query(300, 200)
        (span,) = answer[0]
        assert span[0] == 300
        assert span[1] == 500

    def test_invalid_window_rejected(self):
        system = CluDistream(fast_config(1), seed=0)
        with pytest.raises(ValueError, match="length"):
            system.evolving_query(0, 0)
