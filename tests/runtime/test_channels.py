"""Channel-backend tests: one accounting model, one fault spec.

Every backend must report the same invariants in the unified
DeliveryAccounting model, and the message-level backends (direct,
simulated) must make *identical* seeded fault decisions -- a faulty
direct run and a faulty simulated run end in byte-identical coordinator
state.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from repro.cluster.tree import TransportTree
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.io.checkpoint import snapshot_coordinator
from repro.runtime import (
    ChannelFaults,
    DirectChannel,
    SimulatedChannel,
    TransportChannel,
)
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from tests.transport import drain_mark_contract as drain_mark

RECORDS = 360
CHUNK = 60


def fast_config(tolerate_loss: bool = False) -> CluDistreamConfig:
    return CluDistreamConfig(
        n_sites=2,
        site=RemoteSiteConfig(
            dim=2,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=CHUNK,
        ),
        coordinator=CoordinatorConfig(
            max_components=4,
            merge_method="moment",
            tolerate_loss=tolerate_loss,
        ),
    )


def make_streams():
    # High churn (one short segment per chunk, P_d = 0.8) so sites keep
    # retraining and the wire carries many synopses, not just one model
    # per site.
    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=2,
                    n_components=2,
                    segment_length=CHUNK,
                    p_new_distribution=0.8,
                ),
                rng=np.random.default_rng(500 + site_id),
            ),
            RECORDS,
        )
        for site_id in range(2)
    }


def coordinator_bytes(system: CluDistream) -> str:
    return json.dumps(snapshot_coordinator(system.coordinator), sort_keys=True)


class TestNoFaultInvariants:
    def run_and_account(self, make_channel):
        system = CluDistream(fast_config(), seed=0)
        channel = make_channel()
        system.runtime(channel).run(make_streams(), RECORDS)
        return system, channel.accounting()

    def test_direct_channel(self):
        system, accounting = self.run_and_account(DirectChannel)
        assert accounting.attempted == system.total_messages_sent()
        assert accounting.delivered == accounting.attempted
        assert accounting.payload_bytes == system.total_bytes_sent()
        assert accounting.wire_bytes == accounting.payload_bytes
        assert accounting.delivered_exactly_once

    def test_simulated_channel(self):
        system, accounting = self.run_and_account(SimulatedChannel)
        assert accounting.attempted == system.total_messages_sent()
        assert accounting.delivered == accounting.attempted
        assert accounting.payload_bytes == system.total_bytes_sent()
        assert accounting.wire_bytes == accounting.payload_bytes
        assert accounting.delivered_exactly_once

    def test_transport_channel(self):
        clock = ManualClock()
        system, accounting = self.run_and_account(
            lambda: TransportChannel(LoopbackTransport(), clock)
        )
        assert accounting.attempted == system.total_messages_sent()
        assert accounting.delivered == accounting.attempted
        assert accounting.payload_bytes == system.total_bytes_sent()
        # Envelopes and DONE markers frame every payload on the wire.
        assert accounting.wire_bytes > accounting.payload_bytes
        assert accounting.delivered_exactly_once

    def test_direct_and_simulated_meter_identically(self):
        _, direct = self.run_and_account(DirectChannel)
        _, simulated = self.run_and_account(SimulatedChannel)
        assert direct.as_dict() == simulated.as_dict()


class TestMessageLevelFaults:
    FAULTS = ChannelFaults(
        drop_rate=0.25, duplicate_rate=0.1, reorder_rate=0.2, seed=7
    )

    def run_with_faults(self, make_channel):
        system = CluDistream(fast_config(tolerate_loss=True), seed=0)
        channel = make_channel(self.FAULTS)
        system.runtime(channel).run(make_streams(), RECORDS)
        return system, channel.accounting()

    def test_faults_are_injected_and_counted(self):
        system, accounting = self.run_with_faults(
            lambda faults: DirectChannel(faults=faults)
        )
        assert accounting.dropped > 0
        # ``lost`` is net: a duplicated copy can mask a dropped message.
        assert accounting.lost == max(
            0, accounting.dropped - accounting.duplicated
        )
        assert (
            accounting.delivered
            == accounting.attempted
            - accounting.dropped
            + accounting.duplicated
        )
        # The sender still pays for dropped messages.
        assert accounting.attempted == system.total_messages_sent()

    def test_same_seed_same_faults_on_both_backends(self):
        direct_system, direct = self.run_with_faults(
            lambda faults: DirectChannel(faults=faults)
        )
        simulated_system, simulated = self.run_with_faults(
            lambda faults: SimulatedChannel(faults=faults)
        )
        assert direct.as_dict() == simulated.as_dict()
        assert coordinator_bytes(direct_system) == coordinator_bytes(
            simulated_system
        )

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop_rate=1.0)
        with pytest.raises(ValueError):
            ChannelFaults(reorder_rate=-0.1)


class TestTransportFaultsHealed:
    def test_arq_restores_exactly_once(self):
        faults = ChannelFaults(
            drop_rate=0.2, duplicate_rate=0.05, reorder_rate=0.1, seed=3
        )
        clock = ManualClock()
        system = CluDistream(fast_config(), seed=0)
        channel = TransportChannel(
            LoopbackTransport(), clock, faults=faults
        )
        system.runtime(channel).run(make_streams(), RECORDS)
        accounting = channel.accounting()
        assert accounting.dropped > 0
        assert accounting.retransmissions > 0
        # The reliability layer healed every injected fault.
        assert accounting.delivered == accounting.attempted
        assert accounting.delivered_exactly_once

    def test_faulty_transport_converges_to_lossless_state(self):
        def run(faults):
            system = CluDistream(fast_config(), seed=0)
            channel = TransportChannel(
                LoopbackTransport(), ManualClock(), faults=faults
            )
            system.runtime(channel).run(make_streams(), RECORDS)
            return system

        lossless = run(None)
        faulty = run(
            ChannelFaults(
                drop_rate=0.2, duplicate_rate=0.05, reorder_rate=0.1, seed=3
            )
        )
        assert coordinator_bytes(lossless) == coordinator_bytes(faulty)


def counting(cls, name: str):
    """``cls.name`` behind a call counter that still runs it."""
    return mock.patch.object(
        cls, name, autospec=True, side_effect=getattr(cls, name)
    )


class TestTransportDrainMark:
    """``TransportChannel.submit`` drains only when a message entered an
    endpoint since the last drain: the contract of
    ``tests/transport/drain_mark_contract.py``, for the channel."""

    #: Drains of the channel driver's run, its records and one quiesce,
    #: on either link: one per submit that sent, one for the quiesce.
    DRAINS = 11

    @pytest.mark.parametrize("link", sorted(drain_mark.LINKS))
    def test_settles_call_the_endpoint_drain_directly(self, link, monkeypatch):
        """What the e2e benchmark's trace counts: every settle is one
        ``transport.endpoint.drain``, none a tree drain or feed, and
        ``submit`` never quiesces."""
        drains = drain_mark.count_drains(monkeypatch)
        driver = drain_mark.ChannelDriver(drain_mark.LINKS[link])
        with counting(TransportTree, "drain") as tree_drain, counting(
            TransportTree, "feed"
        ) as tree_feed, counting(TransportChannel, "quiesce") as quiesce:
            for key, record in driver.records():
                driver.feed(key, record)
            assert quiesce.call_count == 0
            driver.settle()
        driver.close()
        assert len(drains) == self.DRAINS
        assert quiesce.call_count == 1
        assert tree_drain.call_count == tree_feed.call_count == 0

    @pytest.mark.parametrize("link", sorted(drain_mark.LINKS))
    def test_explicit_quiesce_after_every_submit_changes_nothing(
        self, link, monkeypatch
    ):
        drain_mark.check_marked_run_equals_settling_after_every_record(
            drain_mark.ChannelDriver, link, drain_mark.count_drains(monkeypatch)
        )

    def test_expire_between_submits_rides_the_next_submit(self):
        drain_mark.check_send_outside_the_record_call_rides_the_next_record(
            drain_mark.ChannelDriver
        )

    def test_dead_link_still_raises_after_drain_limit(self):
        drain_mark.check_dead_link_raises_and_leaves_the_mark_set(
            drain_mark.ChannelDriver
        )
