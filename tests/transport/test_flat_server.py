"""The flat TCP coordinator is the root of a one-level tree.

``cludistream serve`` runs an
:class:`~repro.cluster.aggregator.AggregatorServer` around a root
:class:`~repro.cluster.hop.InternalNode` (DESIGN §12).  The two files
under ``data/`` were recorded from the dedicated flat server that this
replaced, on one seeded site streaming over TCP:

* ``flat_server.coordinator.json`` -- the coordinator's
  ``snapshot_coordinator`` once the site reported DONE;
* ``flat_server.observed.json`` -- every trace event type, span name
  and metric an observer attached to that server saw, plus the
  ``profile.serde_decode`` histogram every hop records.

One site, so cross-site arrival order cannot enter the state.

Re-record (only for a deliberate change of the coordinator's state)::

    PYTHONPATH=src python tests/transport/test_flat_server.py
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np

from repro.cluster.aggregator import AggregatorServer
from repro.cluster.hop import InternalNode
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.io.checkpoint import snapshot_coordinator
from repro.obs import Observer, RingBufferSink
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.reliability import MAX_TIMEOUT, ReliabilityConfig
from repro.transport.tcp import SiteRunReport, run_site_client

DATA = Path(__file__).parent / "data"
COORDINATOR = DATA / "flat_server.coordinator.json"
OBSERVED = DATA / "flat_server.observed.json"

#: A timeout no delivery can reach, so no payload is ever retransmitted
#: and the observed event types cannot depend on scheduling.
RELIABILITY = ReliabilityConfig(
    initial_timeout=MAX_TIMEOUT, jitter=0.0, heartbeat_interval=None
)


def root_server(coordinator: Coordinator, observer):
    """What ``serve`` runs: the root of a one-level tree."""
    return AggregatorServer(
        InternalNode(node_id=0, coordinator=coordinator),
        expected_children=1,
        config=RELIABILITY,
        observer=observer,
    )


def run(
    make_server, observer=None, **client
) -> tuple[Coordinator, SiteRunReport]:
    """Stream one seeded site into ``make_server(coordinator, observer)``.

    A two-component cap at the coordinator, so updates merge (by simplex
    fit) and split.  ``client`` holds further ``run_site_client``
    arguments (its wire codec).
    """
    records = take(
        EvolvingGaussianStream(
            EvolvingStreamConfig(
                dim=2,
                n_components=2,
                segment_length=200,
                p_new_distribution=0.8,
            ),
            rng=np.random.default_rng(100),
        ),
        1200,
    )
    site_config = RemoteSiteConfig(
        dim=2,
        epsilon=0.05,
        delta=0.05,
        em=EMConfig(n_components=2, n_init=1, max_iter=30),
        chunk_override=100,
    )

    async def scenario() -> tuple[Coordinator, SiteRunReport]:
        coordinator = Coordinator(
            CoordinatorConfig(max_components=2), observer=observer
        )
        server = make_server(coordinator, observer)
        await server.start()
        try:
            _, report = await run_site_client(
                0, records, "127.0.0.1", server.port, site_config,
                config=RELIABILITY, **client,
            )
            assert await server.wait_done(timeout=30.0)
        finally:
            await server.close()
        return coordinator, report

    return asyncio.run(scenario())


def observed(make_server) -> tuple[Coordinator, list[str], RingBufferSink]:
    sink = RingBufferSink()
    observer = Observer(sink=sink)
    coordinator, _ = run(make_server, observer)
    kinds = {
        f"span:{event.fields['name']}" if event.type == "span" else event.type
        for event in sink.events
    }
    kinds |= {
        f"{kind}:{name}" for kind, name, _, _ in observer.registry.collect()
    }
    return coordinator, sorted(kinds), sink


def as_text(payload: object) -> str:
    return json.dumps(payload, indent=1) + "\n"


def test_root_server_reproduces_the_flat_server_state():
    coordinator, _ = run(root_server)
    assert as_text(snapshot_coordinator(coordinator)) == COORDINATOR.read_text()
    assert coordinator.stats.merges > 0
    assert coordinator.check_invariants() == []


def test_a_cds2_delta_site_reaches_the_same_state_as_a_cds1_site():
    """The sender owns the wire format: a server built with no codec
    setting decodes a CDS2 site with delta encoding into the state the
    recorded CDS1 run reached."""
    coordinator, report = run(
        root_server, wire_codec="cds2", codec_config=CodecConfig(delta=True)
    )
    assert as_text(snapshot_coordinator(coordinator)) == COORDINATOR.read_text()
    # A CDS1 payload is exactly its accounted size; these were not CDS1.
    assert report.payload_bytes != coordinator.stats.bytes_received


def test_an_observer_sees_one_new_span_the_roots_aggregate():
    coordinator, kinds, sink = observed(root_server)
    recorded = json.loads(OBSERVED.read_text())
    assert "span:cluster.aggregate" not in recorded
    assert kinds == sorted({*recorded, "span:cluster.aggregate"})
    aggregates = [
        event.fields
        for event in sink.events
        if event.type == "span" and event.fields["name"] == "cluster.aggregate"
    ]
    assert len(aggregates) == coordinator.stats.messages_received
    assert all(
        span["attrs"] == {"node": 0, "child": 0, "level": 0}
        for span in aggregates
    )
    # The observer changes nothing the coordinator holds.
    assert as_text(snapshot_coordinator(coordinator)) == COORDINATOR.read_text()


def record(make_server) -> None:
    DATA.mkdir(exist_ok=True)
    COORDINATOR.write_text(as_text(snapshot_coordinator(run(make_server)[0])))
    # The flat server's view: everything but the root's aggregate span.
    kinds = observed(make_server)[1]
    OBSERVED.write_text(
        as_text([kind for kind in kinds if kind != "span:cluster.aggregate"])
    )


if __name__ == "__main__":
    record(root_server)
    print(f"wrote {COORDINATOR} and {OBSERVED}")
