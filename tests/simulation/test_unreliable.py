"""Tests for the unreliable-link model and loss tolerance.

The adversary is the seeded
:class:`~repro.runtime.faults.MessageFaultInjector` that
:class:`~repro.runtime.DirectChannel` puts at the delivery boundary;
messages here enter the channel through a site's emit hook, as a
remote site sends them.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage, WeightUpdateMessage
from repro.runtime import ChannelFaults, DirectChannel


def weight_message(n: int = 0) -> WeightUpdateMessage:
    return WeightUpdateMessage(site_id=0, model_id=n, time=n, count_delta=1)


def model_message(model_id: int = 0) -> ModelUpdateMessage:
    mixture = GaussianMixture.single(Gaussian.spherical(np.zeros(2), 1.0))
    return ModelUpdateMessage(
        site_id=0,
        model_id=model_id,
        time=0,
        mixture=mixture,
        count=100,
        reference_likelihood=-1.0,
    )


def lossy_link(coordinator, **faults):
    """A direct channel with the message-level adversary behind it --
    the one unreliable-link model -- delivering into ``coordinator``.
    Returns the channel and the emit hook it wired into site 0."""
    site = SimpleNamespace(site_id=0, _emit=None)
    channel = DirectChannel(faults=ChannelFaults(**faults))
    channel.open([site], coordinator)
    return channel, site._emit


def collecting(received: list):
    return SimpleNamespace(handle_message=received.append)


class TestLossyChannel:
    def test_drop_rate_zero_delivers_everything(self):
        received = []
        channel, send = lossy_link(collecting(received), drop_rate=0.0)
        for i in range(50):
            send(weight_message(i))
        channel.quiesce()
        assert len(received) == 50
        assert channel.accounting().dropped == 0

    def test_drops_happen_at_the_configured_rate(self):
        received = []
        channel, send = lossy_link(collecting(received), drop_rate=0.3, seed=1)
        for i in range(1000):
            send(weight_message(i))
        channel.quiesce()
        dropped = channel.accounting().dropped
        assert dropped == pytest.approx(300, abs=60)
        assert len(received) == 1000 - dropped

    def test_sender_pays_for_dropped_messages(self):
        channel, send = lossy_link(collecting([]), drop_rate=0.99, seed=2)
        for i in range(100):
            send(weight_message(i))
        channel.quiesce()
        accounting = channel.accounting()
        assert accounting.dropped > 50
        # Byte accounting reflects attempted sends (section 5.3 costs).
        assert accounting.attempted == 100
        assert (
            accounting.payload_bytes == 100 * weight_message().payload_bytes()
        )

    def test_duplicates_deliver_twice(self):
        received = []
        channel, send = lossy_link(
            collecting(received), duplicate_rate=0.5, seed=3
        )
        for i in range(200):
            send(weight_message(i))
        channel.quiesce()
        duplicated = channel.accounting().duplicated
        assert len(received) == 200 + duplicated
        assert duplicated == pytest.approx(100, abs=30)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="drop_rate"):
            ChannelFaults(drop_rate=1.0)
        with pytest.raises(ValueError, match="duplicate_rate"):
            ChannelFaults(duplicate_rate=-0.1)


class TestCoordinatorLossTolerance:
    def test_strict_mode_raises_on_orphan_weight_update(self):
        coordinator = Coordinator(CoordinatorConfig(tolerate_loss=False))
        with pytest.raises(KeyError):
            coordinator.handle_message(weight_message())

    def test_tolerant_mode_counts_orphans(self):
        coordinator = Coordinator(CoordinatorConfig(tolerate_loss=True))
        coordinator.handle_message(weight_message())
        assert coordinator.stats.orphan_updates == 1

    def test_duplicate_model_updates_are_idempotent(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=4, merge_method="moment")
        )
        message = model_message()
        coordinator.handle_message(message)
        first_components = len(coordinator.full_mixture().components)
        first_weight = sum(c.weight for c in coordinator.clusters)
        coordinator.handle_message(message)  # duplicate delivery
        assert len(coordinator.full_mixture().components) == first_components
        assert sum(c.weight for c in coordinator.clusters) == pytest.approx(
            first_weight
        )

    def test_survives_lossy_end_to_end(self):
        """A lossy link with a tolerant coordinator: no crash, and the
        coordinator holds whatever made it through."""
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=4, merge_method="moment", tolerate_loss=True
            )
        )
        channel, send = lossy_link(coordinator, drop_rate=0.4, seed=4)
        for model_id in range(10):
            send(model_message(model_id))
            send(
                WeightUpdateMessage(
                    site_id=0, model_id=model_id, time=0, count_delta=50
                )
            )
        channel.quiesce()
        delivered_models = coordinator.stats.model_updates
        assert delivered_models >= 1
        assert coordinator.stats.orphan_updates >= 1
        assert coordinator.n_components <= 4
