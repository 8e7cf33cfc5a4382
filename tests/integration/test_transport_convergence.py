"""Satellite: lossy transport converges to the loss-free global model.

The same three site streams are pushed through (a) the in-process
loopback transport and (b) a seeded lossy transport injecting 20%
drops, 5% duplicates and reordering delays.  Because the reliability
layer retransmits, dedupes and re-orders, the coordinator must end up
in an *identical* state -- same global mixture, same per-site synopsis
registry -- and the delivery report must show that faults actually
happened (retransmissions, suppressed duplicates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.runtime import TransportChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig

N_SITES = 3
RECORDS_PER_SITE = 480
DIM = 2

FAULTS = FaultConfig(
    drop_rate=0.20,
    duplicate_rate=0.05,
    reorder_rate=0.10,
    reorder_delay=0.6,
)


def make_system() -> CluDistream:
    config = CluDistreamConfig(
        n_sites=N_SITES,
        site=RemoteSiteConfig(
            dim=DIM,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30),
            chunk_override=80,
        ),
    )
    return CluDistream(config, seed=11)


def make_streams() -> dict[int, np.ndarray]:
    # High churn (p_new = 0.8) so sites keep retraining and the wire
    # carries many synopses, not just one model per site.
    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=DIM, n_components=2, p_new_distribution=0.8
                ),
                rng=np.random.default_rng(500 + site_id),
            ),
            RECORDS_PER_SITE,
        )
        for site_id in range(N_SITES)
    }


def reliability() -> ReliabilityConfig:
    return ReliabilityConfig(
        initial_timeout=0.4, jitter=0.1, heartbeat_interval=None
    )


def run_over(system: CluDistream, transport, clock) -> TransportChannel:
    """Drive ``system`` over ``transport``; returns its (closed) channel."""
    channel = TransportChannel(transport, clock, reliability=reliability())
    system.runtime(channel).run(
        make_streams(), max_records_per_site=RECORDS_PER_SITE
    )
    return channel


@pytest.fixture(scope="module")
def runs():
    loopback_system = make_system()
    loopback_channel = run_over(
        loopback_system, LoopbackTransport(), ManualClock()
    )

    lossy_system = make_system()
    clock = ManualClock()
    lossy = LossyTransport(LoopbackTransport(), clock, FAULTS, seed=21)
    lossy_channel = run_over(lossy_system, lossy, clock)
    return loopback_system, loopback_channel, lossy_system, lossy, lossy_channel


class TestLossyConvergesToLoopback:
    def test_faults_actually_fired(self, runs):
        _, _, _, lossy, channel = runs
        assert lossy.faults.dropped > 0
        assert lossy.faults.duplicated > 0
        report = channel.accounting()
        assert report.retransmissions > 0
        assert report.duplicates_suppressed > 0

    def test_every_message_was_delivered_exactly_once(self, runs):
        _, _, _, _, channel = runs
        report = channel.accounting()
        assert report.delivered_exactly_once
        assert report.delivered == report.attempted > N_SITES

    def test_global_mixture_is_identical(self, runs):
        loopback_system, _, lossy_system, _, _ = runs
        reference = loopback_system.global_mixture()
        observed = lossy_system.global_mixture()
        assert np.array_equal(reference.weights, observed.weights)
        assert len(reference.components) == len(observed.components)
        for ref, obs in zip(reference.components, observed.components):
            assert np.array_equal(ref.mean, obs.mean)
            assert np.array_equal(ref.covariance, obs.covariance)

    def test_site_model_registries_are_identical(self, runs):
        loopback_system, _, lossy_system, _, _ = runs
        reference = loopback_system.coordinator.site_models
        observed = lossy_system.coordinator.site_models
        assert reference.keys() == observed.keys()
        for key, (ref_mixture, ref_count) in reference.items():
            obs_mixture, obs_count = observed[key]
            assert ref_count == obs_count
            assert np.array_equal(ref_mixture.weights, obs_mixture.weights)

    def test_wire_overhead_is_accounted(self, runs):
        _, _, _, _, channel = runs
        report = channel.accounting()
        assert report.wire_bytes > report.payload_bytes
        assert report.overhead_ratio > 1.0
