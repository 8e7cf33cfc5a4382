"""Tests for the site transport endpoint and the drain that settles it.

The receiving side is a root :class:`~repro.cluster.hop.AggregatorHop`
(``tests/cluster/test_hop.py`` covers its ``listen``); here sites'
endpoints are wired to one directly, and the delivery report reads a
:class:`~repro.runtime.TransportChannel`, which wires them the same way
as a depth-1 :class:`~repro.cluster.tree.TransportTree`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordinator import Coordinator
from repro.core.mixture import Gaussian, GaussianMixture
from repro.core.protocol import ModelUpdateMessage, WeightUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.runtime import TransportChannel
from repro.transport.clock import ManualClock
from repro.transport.endpoint import SiteEndpoint, drain
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig
from tests.cluster.trees import root_hop, wire_edge


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


def wire_sites(site_ids, transport, clock):
    """Each site's endpoint, and the root hop they send to."""
    hop = root_hop(transport, clock, quiet_config())
    endpoints = [
        wire_edge(site_id, transport, clock, quiet_config())
        for site_id in site_ids
    ]
    return endpoints, hop


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
        endpoint = wire_edge(3, transport, clock, quiet_config())
        endpoint.send(WeightUpdateMessage(site_id=3, model_id=0, time=1, count_delta=4))
        assert len(received) == 1
        assert endpoint.outstanding() == 1  # loopback has nobody acking
        endpoint.close()

    def test_rejects_messages_from_another_site(self):
        endpoint = wire_edge(
            3, LoopbackTransport(), ManualClock(), quiet_config()
        )
        with pytest.raises(ValueError, match="site 3"):
            endpoint.send(
                WeightUpdateMessage(site_id=4, model_id=0, time=1, count_delta=1)
            )
        endpoint.close()

    def test_is_a_transport_endpoint(self):
        endpoint = wire_edge(
            0, LoopbackTransport(), ManualClock(), quiet_config()
        )
        assert isinstance(endpoint, SiteEndpoint)
        endpoint.close()


class TestConnectSystemAndDrain:
    def test_emit_hooks_are_installed_and_lossy_link_drains(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            FaultConfig(drop_rate=0.3, duplicate_rate=0.1),
            seed=7,
        )
        endpoints, hop = wire_sites((0, 1), transport, clock)
        for i, endpoint in enumerate(endpoints):
            for model_id in range(4):
                endpoint.send(model_update(i, model_id=model_id, count=10 + model_id))
        drain(clock, endpoints)
        assert all(e.outstanding() == 0 for e in endpoints)
        assert len(hop.node.coordinator.site_models) == 8

    def test_drain_raises_on_a_dead_link(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            # A partition that never ends: nothing can get through.
            FaultConfig(partitions=((0.0, float("inf")),)),
            seed=0,
        )
        endpoints, _ = wire_sites((0,), transport, clock)
        endpoints[0].send(model_update(0))
        with pytest.raises(RuntimeError, match="drain"):
            drain(clock, endpoints, step=1.0, limit=30.0)


class TestDeliveryReport:
    """``TransportChannel.accounting``: the ARQ stack's delivery meter."""

    def test_aggregates_sender_and_receiver_stats(self):
        clock = ManualClock()
        transport = LossyTransport(
            LoopbackTransport(),
            clock,
            FaultConfig(drop_rate=0.4, duplicate_rate=0.2),
            seed=13,
        )
        channel = TransportChannel(transport, clock, quiet_config())
        channel.open(
            [RemoteSite(i, RemoteSiteConfig(dim=2)) for i in range(3)],
            Coordinator(),
        )
        messages = []
        for i, endpoint in enumerate(channel.endpoints):
            for model_id in range(5):
                message = model_update(i, model_id=model_id, count=20)
                messages.append(message)
                endpoint.send(message)
        channel.quiesce()

        report = channel.accounting()
        assert report.attempted == len(messages)
        assert report.delivered == len(messages)
        assert report.delivered_exactly_once
        assert report.payload_bytes == sum(m.payload_bytes() for m in messages)
        assert report.wire_bytes > report.payload_bytes
        assert report.overhead_ratio > 1.0
        assert report.retransmissions > 0  # drops forced retries
