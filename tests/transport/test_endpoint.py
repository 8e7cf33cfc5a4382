"""Tests for the site/coordinator transport endpoints."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.coordinator import Coordinator
from repro.core.mixture import Gaussian, GaussianMixture
from repro.core.protocol import ModelUpdateMessage, WeightUpdateMessage
from repro.runtime.accounting import DeliveryAccounting
from repro.transport.clock import ManualClock
from repro.transport.endpoint import (
    CoordinatorEndpoint,
    SiteEndpoint,
    connect_system,
    drain,
)
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig


def quiet_config(**overrides) -> ReliabilityConfig:
    defaults = dict(initial_timeout=0.2, jitter=0.0, heartbeat_interval=None)
    defaults.update(overrides)
    return ReliabilityConfig(**defaults)


def small_mixture(center: float = 0.0) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.6, 0.4]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.5),
            Gaussian.spherical(np.array([center, 4.0]), 0.5),
        ),
    )


def model_update(site_id: int, model_id: int = 0, count: int = 100):
    return ModelUpdateMessage(
        site_id=site_id,
        model_id=model_id,
        time=count,
        mixture=small_mixture(float(site_id)),
        count=count,
        reference_likelihood=-2.5,
    )


class TestSiteEndpoint:
    def test_send_reaches_a_bound_coordinator(self):
        transport = LoopbackTransport()
        clock = ManualClock()
        received: list[bytes] = []
        transport.bind_coordinator(received.append)
        endpoint = SiteEndpoint(3, transport, clock, quiet_config())
        endpoint.send(WeightUpdateMessage(site_id=3, model_id=0, time=1, count_delta=4))
        assert len(received) == 1
        assert endpoint.outstanding() == 1  # loopback has nobody acking
        endpoint.close()

    def test_rejects_messages_from_another_site(self):
        endpoint = SiteEndpoint(
            3, LoopbackTransport(), ManualClock(), quiet_config()
        )
        with pytest.raises(ValueError, match="site 3"):
            endpoint.send(
                WeightUpdateMessage(site_id=4, model_id=0, time=1, count_delta=1)
            )
        endpoint.close()

    def test_is_a_transport_endpoint(self):
        endpoint = SiteEndpoint(
            0, LoopbackTransport(), ManualClock(), quiet_config()
        )
        assert isinstance(endpoint, SiteEndpoint)
        endpoint.close()


class TestCoordinatorEndpoint:
    def make_pair(self, site_id: int = 1):
        transport = LoopbackTransport()
        clock = ManualClock()
        coordinator = Coordinator()
        coordinator_endpoint = CoordinatorEndpoint(
            coordinator, transport, clock, quiet_config(stale_after=5.0)
        )
        site_endpoint = SiteEndpoint(
            site_id, transport, clock, quiet_config(stale_after=5.0)
        )
        return clock, coordinator, coordinator_endpoint, site_endpoint

    def test_messages_are_decoded_and_applied(self):
        _, coordinator, _, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1, count=150))
        assert (1, 0) in coordinator.site_models
        assert coordinator.site_models[(1, 0)][1] == 150
        assert site_endpoint.outstanding() == 0  # ack came straight back

    def test_stale_site_is_reported_then_recovers(self):
        clock, _, coordinator_endpoint, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1))
        clock.advance(10.0)
        assert coordinator_endpoint.stale_sites() == (1,)
        site_endpoint.send(WeightUpdateMessage(site_id=1, model_id=0, time=2, count_delta=5))
        assert coordinator_endpoint.stale_sites() == ()

    def test_done_sites_are_not_evicted(self):
        # A site that sent DONE is never stale, however long it is
        # silent, and its synopses stay in the global model.
        clock, coordinator, coordinator_endpoint, site_endpoint = self.make_pair()
        site_endpoint.send(model_update(1))
        site_endpoint.finish()
        clock.advance(100.0)
        assert coordinator_endpoint.stale_sites() == ()
        assert (1, 0) in coordinator.site_models


class TestConnectSystemAndDrain:
    def test_emit_hooks_are_installed_and_lossy_link_drains(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            FaultConfig(drop_rate=0.3, duplicate_rate=0.1),
            seed=7,
        )
        coordinator = Coordinator()
        sites = [SimpleNamespace(site_id=i, _emit=None) for i in (0, 1)]
        endpoints, coordinator_endpoint = connect_system(
            sites, coordinator, transport, clock, quiet_config()
        )
        for site in sites:
            assert callable(site._emit)
        for i, site in enumerate(sites):
            for model_id in range(4):
                site._emit(model_update(i, model_id=model_id, count=10 + model_id))
        drain(clock, endpoints)
        assert all(e.outstanding() == 0 for e in endpoints)
        assert len(coordinator.site_models) == 8

    def test_drain_raises_on_a_dead_link(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            # A partition that never ends: nothing can get through.
            FaultConfig(partitions=((0.0, float("inf")),)),
            seed=0,
        )
        coordinator = Coordinator()
        sites = [SimpleNamespace(site_id=0, _emit=None)]
        endpoints, _ = connect_system(
            sites, coordinator, transport, clock, quiet_config()
        )
        sites[0]._emit(model_update(0))
        with pytest.raises(RuntimeError, match="drain"):
            drain(clock, endpoints, step=1.0, limit=30.0)


class TestDeliveryReport:
    """``DeliveryAccounting.from_endpoints``: the one delivery meter."""

    def test_aggregates_sender_and_receiver_stats(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            FaultConfig(drop_rate=0.4, duplicate_rate=0.2),
            seed=13,
        )
        coordinator = Coordinator()
        sites = [SimpleNamespace(site_id=i, _emit=None) for i in range(3)]
        endpoints, coordinator_endpoint = connect_system(
            sites, coordinator, transport, clock, quiet_config()
        )
        messages = []
        for i, site in enumerate(sites):
            for model_id in range(5):
                message = model_update(i, model_id=model_id, count=20)
                messages.append(message)
                site._emit(message)
        drain(clock, endpoints)

        report = DeliveryAccounting.from_endpoints(
            endpoints, coordinator_endpoint
        )
        assert report.attempted == len(messages)
        assert report.delivered == len(messages)
        assert report.delivered_exactly_once
        assert report.payload_bytes == sum(m.payload_bytes() for m in messages)
        assert report.wire_bytes > report.payload_bytes
        assert report.overhead_ratio > 1.0
        assert report.retransmissions > 0  # drops forced retries
