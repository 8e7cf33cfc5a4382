"""Channel-backend tests: one accounting model, one fault spec.

Every backend must report the same invariants in the unified
DeliveryAccounting model, and the message-level backends (direct,
simulated) must make *identical* seeded fault decisions -- a faulty
direct run and a faulty simulated run end in byte-identical coordinator
state.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.evaluation.comm import delivery_report
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

        # Cross-meter consistency: the endpoint-level DeliveryReport
        # agrees with the channel accounting on every shared field.
        report = delivery_report(
            channel.endpoints, channel.coordinator_endpoint
        ).accounting
        assert report.attempted == accounting.attempted
        assert report.delivered == accounting.delivered
        assert report.payload_bytes == accounting.payload_bytes
        assert report.wire_bytes == accounting.wire_bytes
        assert report.ack_bytes == accounting.ack_bytes
        assert report.retransmissions == accounting.retransmissions
        assert (
            report.duplicates_suppressed == accounting.duplicates_suppressed
        )

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


class LosesUplink(LoopbackTransport):
    """Loopback that loses the next ``lose`` site -> coordinator datagrams."""

    lose = 0

    def _transmit_to_coordinator(self, site_id: int, data: bytes) -> None:
        if self.lose > 0:
            self.lose -= 1
            return
        super()._transmit_to_coordinator(site_id, data)


class TestTransportDrainMark:
    """``TransportChannel.submit`` drains only when a message entered an
    endpoint since the last drain -- which must be indistinguishable
    from draining after every record."""

    FAULTS = {
        "loopback": None,
        "lossy": ChannelFaults(
            drop_rate=0.10, duplicate_rate=0.03, reorder_rate=0.03, seed=1
        ),
    }

    @staticmethod
    def run(faults, quiesce_every_record: bool):
        clock = ManualClock()
        system = CluDistream(fast_config(), seed=0)
        channel = TransportChannel(LoopbackTransport(), clock, faults=faults)
        runtime = system.runtime(channel)
        streams = make_streams()
        for index in range(RECORDS):
            for site_id in sorted(streams):
                runtime.step(site_id, streams[site_id][index])
                if quiesce_every_record:
                    channel.quiesce()
        channel.finish()
        channel.quiesce()
        channel.close()
        return (
            clock.now,
            channel.accounting(),
            channel.coordinator_endpoint.receiver.stats,
            [endpoint.sender.stats for endpoint in channel.endpoints],
            coordinator_bytes(system),
        )

    @pytest.mark.parametrize("link", sorted(FAULTS))
    def test_explicit_quiesce_after_every_submit_changes_nothing(self, link):
        marked = self.run(self.FAULTS[link], quiesce_every_record=False)
        drained = self.run(self.FAULTS[link], quiesce_every_record=True)
        assert marked == drained
        accounting = marked[1]
        assert accounting.delivered == accounting.attempted > 2
        if link == "lossy":
            assert marked[0] > 0.0  # the clock really moved
            assert accounting.retransmissions > 0

    @staticmethod
    def open_channel(**kwargs):
        transport = LosesUplink()
        system = CluDistream(fast_config(), seed=0)
        channel = TransportChannel(transport, ManualClock(), **kwargs)
        channel.open(system.sites, system.coordinator)
        return transport, system, channel

    def test_expire_between_submits_rides_the_next_submit(self):
        transport, system, channel = self.open_channel()
        site = system.sites[0]
        records = make_streams()[0]
        for record in records[:CHUNK]:
            channel.submit(site, record)
        key = (0, site.current_model.model_id)
        assert system.coordinator.site_models[key][1] == CHUNK
        # The deletion's first transmission is lost, so it is still in
        # the outbox when the next record arrives -- a record that emits
        # nothing itself.
        transport.lose = 1
        site.expire(key[1], 10)
        assert channel.endpoints[0].outstanding() == 1
        assert system.coordinator.site_models[key][1] == CHUNK
        assert channel.submit(site, records[CHUNK]) == []
        assert channel.endpoints[0].outstanding() == 0
        assert system.coordinator.site_models[key][1] == CHUNK - 10
        channel.close()

    def test_dead_link_still_raises_after_drain_limit(self):
        transport, system, channel = self.open_channel(drain_limit=5.0)
        site = system.sites[0]
        records = make_streams()[0]
        transport.lose = 10**9
        for record in records[: CHUNK - 1]:
            channel.submit(site, record)
        with pytest.raises(RuntimeError, match="failed to drain within 5.0"):
            channel.submit(site, records[CHUNK - 1])
        # Nothing was delivered, so the next record tries again.
        with pytest.raises(RuntimeError, match="failed to drain"):
            channel.submit(site, records[CHUNK])
        with pytest.raises(RuntimeError, match="failed to drain"):
            channel.quiesce()
        channel.close()
