"""The *unsettled* mark: one contract, through both of its callers.

``TransportTree`` holds the mark.  ``TransportTree.feed`` and
``TransportChannel.submit`` (a depth-1 tree's) settle the ARQ edges
only when a message entered one since a drain last returned (DESIGN.md
section 17.4).  The three contract points are written here once,
parametrised by driver and link;
``tests/runtime/test_channels.py::TestTransportDrainMark`` runs them
for the channel and ``tests/cluster/test_transport_tree.py::TestDrainMark``
for the tree:

1. a marked run is indistinguishable from settling after every record
   -- clock, edge and receiver statistics, final state -- over loopback
   and over a seeded 10 % drop / 3 % duplicate / 3 % reorder link;
2. a send made outside the per-record call (``site.expire``), and an
   aggregator's re-upload from inside a drain, ride the next record;
3. a dead link raises once the drain limit passes and leaves the mark
   set: the next record raises again, and so does an explicit drain.

Not a test module.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

import repro.runtime.channel as channel_module
import repro.transport.endpoint as endpoint_module
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.io.checkpoint import snapshot_coordinator
from repro.runtime import TransportChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from tests.cluster.trees import MILD, build_three_gateways, mixture_at

LINKS = {"loopback": None, "lossy": MILD}
#: Nothing lands until the clock moves.
DELAYED = FaultConfig(delay=0.05)
#: Nothing lands, ever.
DEAD = FaultConfig(partitions=((0.0, 1e12),))
DRAIN_LIMIT = 5.0


class ChannelDriver:
    """Two high-churn sites behind one :class:`TransportChannel`."""

    chunk = 60
    #: Receivers a message crosses on its way to the top.
    hops = 1

    def __init__(self, faults: FaultConfig | None) -> None:
        self.clock = ManualClock()
        transport = LoopbackTransport()
        if faults is not None:
            transport = LossyTransport(transport, self.clock, faults, seed=1)
        self.system = CluDistream(
            CluDistreamConfig(
                n_sites=2,
                site=RemoteSiteConfig(
                    dim=2,
                    epsilon=0.05,
                    delta=0.05,
                    em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
                    chunk_override=self.chunk,
                ),
                coordinator=CoordinatorConfig(
                    max_components=4, merge_method="moment"
                ),
            ),
            seed=0,
        )
        self.channel = TransportChannel(transport, self.clock)
        self.channel.open(self.system.sites, self.system.coordinator)
        #: One site and what ``feed`` takes to address it.
        self.site = self.key = self.system.sites[0]

    def records(self):
        """The seeded workload as ``feed`` arguments: one short segment
        per chunk, so the sites keep retraining and uploading."""
        streams = [
            take(
                EvolvingGaussianStream(
                    EvolvingStreamConfig(
                        dim=2,
                        n_components=2,
                        segment_length=self.chunk,
                        p_new_distribution=0.8,
                    ),
                    rng=np.random.default_rng(500 + site.site_id),
                ),
                6 * self.chunk,
            )
            for site in self.system.sites
        ]
        for rows in zip(*streams):
            yield from zip(self.system.sites, rows)

    # Every drain reads the module constant, so the short limit is
    # patched in around each call that may drain.
    def feed(self, site, record) -> None:
        with mock.patch.object(channel_module, "DRAIN_LIMIT", DRAIN_LIMIT):
            self.channel.submit(site, record)

    def settle(self) -> None:
        with mock.patch.object(channel_module, "DRAIN_LIMIT", DRAIN_LIMIT):
            self.channel.quiesce()

    def sent(self) -> int:
        return self.channel.accounting().attempted

    def delivered(self) -> int:
        return self.channel.hop.receiver.stats.delivered

    def state(self):
        return (
            self.clock.now,
            self.channel.accounting(),
            self.channel.hop.receiver.stats,
            [endpoint.sender.stats for endpoint in self.channel.endpoints],
            json.dumps(
                snapshot_coordinator(self.system.coordinator), sort_keys=True
            ),
        )

    def close(self) -> None:
        self.channel.close()


class TreeDriver:
    """Six leaves under three gateways that upload every change."""

    chunk = 250
    hops = 2

    def __init__(self, faults: FaultConfig | None) -> None:
        self.tree = build_three_gateways(faults)
        self.clock = self.tree.clock
        self.site, self.key = self.tree.sites[0], 10

    def records(self):
        rng = np.random.default_rng(8)
        for center in (0.0, 30.0):
            for leaf_id in (10, 11, 20, 21, 30, 31):
                points, _ = mixture_at(center + leaf_id).sample(self.chunk, rng)
                for row in points:
                    yield leaf_id, row

    def feed(self, leaf_id, record) -> None:
        self.tree.feed(leaf_id, record)

    def settle(self) -> None:
        self.tree.drain(limit=DRAIN_LIMIT)

    def sent(self) -> int:
        return sum(level.messages for level in self.tree.level_stats())

    def delivered(self) -> int:
        return sum(
            self.tree.receiver_stats(node_id).delivered for node_id in range(4)
        )

    def state(self):
        mixture = self.tree.global_mixture()
        return (
            self.clock.now,
            self.tree.level_stats(),
            [self.tree.receiver_stats(node_id) for node_id in range(4)],
            mixture.weights.tobytes(),
            [(c.mean.tobytes(), c.covariance.tobytes()) for c in mixture.components],
        )

    def close(self) -> None:
        self.tree.close()


def count_drains(monkeypatch) -> list:
    """Calls of ``repro.transport.endpoint.drain``, counted where the
    e2e benchmark's recorder patches it: on its module, at call time."""
    calls = []
    drain = endpoint_module.drain

    def counting_drain(*args, **kwargs):
        calls.append(1)
        return drain(*args, **kwargs)

    monkeypatch.setattr(endpoint_module, "drain", counting_drain)
    return calls


def stationary_records(n: int) -> np.ndarray:
    points, _ = mixture_at(0.0).sample(n, np.random.default_rng(3))
    return points


def check_marked_run_equals_settling_after_every_record(
    driver_type, link: str, drains: list
) -> None:
    """``drains`` is what :func:`count_drains` returned."""
    runs = {}
    for settle_every_record in (False, True):
        del drains[:]
        driver = driver_type(LINKS[link])
        records = 0
        for key, record in driver.records():
            driver.feed(key, record)
            records += 1
            if settle_every_record:
                driver.settle()
        driver.settle()
        runs[settle_every_record] = driver.state()
        if settle_every_record:
            assert len(drains) > records
        else:
            # Every skipped drain but the last had a send before it.
            assert len(drains) <= driver.sent() + 1 < records / 10
        assert driver.delivered() == driver.sent() > 2
        driver.close()
    assert runs[False] == runs[True]
    if link == "lossy":
        assert runs[False][0] > 0.0  # the faults did cost clock time


def check_send_outside_the_record_call_rides_the_next_record(driver_type) -> None:
    driver = driver_type(DELAYED)
    site = driver.site
    records = stationary_records(driver.chunk + 2)
    for record in records[: driver.chunk]:
        driver.feed(driver.key, record)
    before = driver.delivered()
    assert before == driver.sent() == driver.hops
    # Not through submit()/feed(), and nothing lands on a delayed link
    # until the clock moves.
    site.expire(site.current_model.model_id, 10)
    assert driver.delivered() == before
    # The next record emits nothing itself, but it settles the deletion
    # -- and the upload it causes a level up.
    driver.feed(driver.key, records[driver.chunk])
    assert driver.delivered() == driver.sent() == before + driver.hops
    # With nothing outstanding, a record leaves the clock alone.
    now = driver.clock.now
    driver.feed(driver.key, records[driver.chunk + 1])
    assert driver.clock.now == now
    driver.close()


def check_dead_link_raises_and_leaves_the_mark_set(driver_type) -> None:
    driver = driver_type(DEAD)
    records = stationary_records(driver.chunk + 1)
    for record in records[: driver.chunk - 1]:
        driver.feed(driver.key, record)
    with pytest.raises(RuntimeError, match="failed to drain within"):
        driver.feed(driver.key, records[driver.chunk - 1])
    # Nothing was delivered, so the next record tries again.
    with pytest.raises(RuntimeError, match="failed to drain within"):
        driver.feed(driver.key, records[driver.chunk])
    with pytest.raises(
        RuntimeError, match=f"failed to drain within {DRAIN_LIMIT}"
    ):
        driver.settle()
    assert driver.delivered() == 0
    driver.close()
