"""End-to-end tests for the asyncio TCP transport (single process)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.aggregator import AggregatorServer
from repro.cluster.hop import InternalNode
from repro.cluster.tree import TransportTree
from repro.core.coordinator import Coordinator
from repro.core.em import EMConfig
from repro.core.protocol import WeightUpdateMessage
from repro.core.remote import RemoteSiteConfig
from repro.obs.federation import uplink_report
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.framing import (
    KIND_ACK,
    KIND_DATA,
    KIND_DONE,
    Envelope,
    StreamDecoder,
    encode_envelope,
)
from repro.transport.reliability import ReliabilityConfig
from repro.transport.tcp import Uplink, run_site_client
from tests.transport.test_endpoint import model_update


def site_records(site_id: int, n: int = 400, dim: int = 2) -> np.ndarray:
    generator = EvolvingGaussianStream(
        EvolvingStreamConfig(dim=dim, n_components=2, p_new_distribution=0.4),
        rng=np.random.default_rng(100 + site_id),
    )
    return take(generator, n)


def site_config(dim: int = 2) -> RemoteSiteConfig:
    return RemoteSiteConfig(
        dim=dim,
        epsilon=0.05,
        delta=0.05,
        em=EMConfig(n_components=2, n_init=1, max_iter=30),
        chunk_override=100,
    )


def fast_reliability() -> ReliabilityConfig:
    return ReliabilityConfig(
        initial_timeout=0.5, jitter=0.0, heartbeat_interval=None
    )


def root_server(coordinator: Coordinator, **kwargs) -> AggregatorServer:
    """The flat coordinator: the root of a one-level tree."""
    return AggregatorServer(
        InternalNode(node_id=0, coordinator=coordinator), **kwargs
    )


class TestTcpEndToEnd:
    def test_two_sites_stream_to_one_server(self):
        async def scenario():
            coordinator = Coordinator()
            server = root_server(
                coordinator, expected_children=2, config=fast_reliability()
            )
            await server.start()
            port = server.port
            assert port > 0

            results = await asyncio.gather(
                run_site_client(
                    0,
                    site_records(0),
                    "127.0.0.1",
                    port,
                    site_config(),
                    config=fast_reliability(),
                ),
                run_site_client(
                    1,
                    site_records(1),
                    "127.0.0.1",
                    port,
                    site_config(),
                    config=fast_reliability(),
                ),
            )
            done = await server.wait_done(timeout=30.0)
            await server.close()
            return coordinator, server, results, done

        coordinator, server, results, done = asyncio.run(scenario())
        assert done, "server never saw both DONE markers"
        owners = {site for site, _ in coordinator.site_models}
        assert owners == {0, 1}
        for site_id, (site, report) in enumerate(results):
            assert report.records == 400
            assert report.messages_sent > 0
            assert report.wire_bytes > report.payload_bytes
            assert site.site_id == site_id
        # Every site message was applied exactly once.
        delivered = server.receiver.stats.delivered
        assert delivered == sum(r.messages_sent for _, r in results)
        assert server.receiver.all_done(2)
        assert server.stale_sites() == ()
        # A root uploads nothing: it has no parent to upload to.
        assert server.node.messages_up == server.node.bytes_up == 0
        assert server.node._last_uploaded is None

    def test_wait_done_times_out_with_no_sites(self):
        async def scenario():
            server = root_server(Coordinator(), expected_children=1)
            await server.start()
            done = await server.wait_done(timeout=0.05)
            await server.close()
            return done

        assert asyncio.run(scenario()) is False


# ----------------------------------------------------------------------
# Uplink failure paths: the site client and the aggregator uplink run
# one close sequence and must fail the same way.
# ----------------------------------------------------------------------
class ScriptedParent:
    """A TCP peer that follows a script instead of the ARQ protocol.

    It records every envelope it reads.  ``close_after`` closes the
    connection after reading that many bytes; ``ack=False`` reads
    forever and never answers; ``trickle`` keeps writing copies of each
    ack *without reading* for a while, so the client still has acks
    arriving (and unread) when it sends DONE and closes.
    """

    def __init__(self, close_after=None, ack=True, trickle=0):
        self.close_after = close_after
        self.ack = ack
        self.trickle = trickle
        self.envelopes = []
        self.reset = False
        self.eof = asyncio.Event()
        self._server = None

    async def start(self) -> int:
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    def kinds(self) -> list[int]:
        return [envelope.kind for envelope in self.envelopes]

    def first_data_seq(self) -> int:
        return next(e.seq for e in self.envelopes if e.kind == KIND_DATA)

    async def _handle(self, reader, writer) -> None:
        decoder = StreamDecoder()
        try:
            if self.close_after is not None:
                await reader.read(self.close_after)
                return
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    return
                for envelope in decoder.feed(chunk):
                    self.envelopes.append(envelope)
                    if not self.ack or envelope.kind != KIND_DATA:
                        continue
                    frame = encode_envelope(
                        Envelope(
                            kind=KIND_ACK,
                            site_id=envelope.site_id,
                            seq=envelope.seq,
                        )
                    )
                    writer.write(frame)
                    for _ in range(self.trickle):
                        await writer.drain()
                        await asyncio.sleep(0.01)
                        writer.write(frame)
        except ConnectionError:
            self.reset = True
        finally:
            self.eof.set()
            writer.close()


def one_chunk() -> np.ndarray:
    """Exactly one chunk: one synopsis goes out with the last record, so
    nothing is written after it and only the close sequence can notice
    what the parent did."""
    return site_records(0, n=100)


def make_aggregator(arq=None) -> AggregatorServer:
    node = InternalNode(node_id=5, coordinator=Coordinator(), parent_id=0)
    return AggregatorServer(
        node, expected_children=0, level=1, config=fast_reliability(), arq=arq
    )


async def run_site(port: int, drain_timeout: float):
    return await run_site_client(
        0,
        one_chunk(),
        "127.0.0.1",
        port,
        site_config(),
        config=fast_reliability(),
        drain_timeout=drain_timeout,
    )


async def run_aggregator(port: int, drain_timeout: float, arq=None):
    server = make_aggregator(arq)
    await server.start()
    try:
        await server.connect_uplink("127.0.0.1", port)
        server.uplink.send_payload(b"upload")
        await server.finish_uplink(drain_timeout)
    finally:
        await server.close()


CLIENTS = pytest.mark.parametrize(
    "client", [run_site, run_aggregator], ids=["site", "aggregator"]
)


def against(parent: ScriptedParent, client, drain_timeout: float, **kwargs):
    """Run ``client`` against ``parent``; returns (error, seconds)."""

    async def scenario():
        port = await parent.start()
        loop = asyncio.get_running_loop()
        start = loop.time()
        error = None
        try:
            await client(port, drain_timeout, **kwargs)
        except Exception as exc:  # noqa: BLE001  -- the test inspects it
            error = exc
        elapsed = loop.time() - start
        if error is None:
            await asyncio.wait_for(parent.eof.wait(), 5.0)
        await parent.close()
        return error, elapsed

    return asyncio.run(scenario())


class TestUplinkFailurePaths:
    @CLIENTS
    def test_parent_closing_with_payloads_unacked_is_a_connection_error(
        self, client
    ):
        error, elapsed = against(
            ScriptedParent(close_after=100), client, drain_timeout=5.0
        )
        assert isinstance(error, ConnectionError), repr(error)
        assert elapsed < 2.0

    @CLIENTS
    def test_parent_that_never_acks_times_the_drain_out(self, client):
        error, elapsed = against(
            ScriptedParent(ack=False), client, drain_timeout=0.5
        )
        assert isinstance(error, TimeoutError), repr(error)
        assert 0.5 <= elapsed < 3.0

    @CLIENTS
    def test_done_survives_acks_left_unread_at_close(self, client):
        """The RST hazard: acks keep arriving while the client sends
        DONE and closes.  Half-close plus linger keeps them from
        resetting the connection under the parent's unread DONE."""
        parent = ScriptedParent(trickle=30)
        error, _ = against(parent, client, drain_timeout=5.0)
        assert error is None, repr(error)
        assert not parent.reset
        assert parent.kinds()[-1] == KIND_DONE

    def test_site_numbers_its_first_envelope_one(self):
        parent = ScriptedParent()
        error, _ = against(parent, run_site, drain_timeout=5.0)
        assert error is None, repr(error)
        assert parent.first_data_seq() == 1

    def test_resumed_aggregator_continues_its_uplink_sequence(self):
        parent = ScriptedParent()
        error, _ = against(
            parent,
            run_aggregator,
            drain_timeout=5.0,
            arq={"uplink_next_seq": 7, "cursors": {}},
        )
        assert error is None, repr(error)
        assert parent.first_data_seq() == 7
        assert parent.envelopes[0].seq == 7


# ----------------------------------------------------------------------
# One uplink edge: the TCP uplink is the in-process edge over a socket.
# ----------------------------------------------------------------------
def over_tcp(check, **connect):
    """Run ``check(uplink)`` on an uplink for node 3 into a root server."""

    async def scenario():
        server = root_server(Coordinator(), config=fast_reliability())
        await server.start()
        uplink = await Uplink.connect(
            3, "127.0.0.1", server.port, config=fast_reliability(), **connect
        )
        try:
            return await check(uplink)
        finally:
            await uplink.close()
            await server.close()

    return asyncio.run(scenario())


def tree_edge(seed: int = 0, **tree):
    """The in-process edge of leaf 3 under a one-level tree."""
    built = TransportTree(seed=seed, **tree)
    built.add_internal(0)
    built.add_leaf(3, parent_id=0)
    return built, built._leaves[3].endpoint


class TestOneEdge:
    def test_an_uplink_edge_rejects_another_sites_message(self):
        async def check(uplink):
            with pytest.raises(ValueError, match="site 3"):
                uplink.edge.send(
                    WeightUpdateMessage(site_id=4, model_id=0, time=1, count_delta=1)
                )
            return uplink.edge.sender.stats.payloads_sent

        assert over_tcp(check) == 0

    def test_tcp_and_tree_edges_share_their_jitter_seed(self):
        async def check(uplink):
            return uplink.edge.sender._rng.bit_generator.state

        tree, edge = tree_edge(seed=11)
        assert over_tcp(check, seed=11) == edge.sender._rng.bit_generator.state
        tree.close()

    def test_uplink_report_carries_the_codec_on_both_paths(self):
        async def check(uplink):
            uplink.edge.send(model_update(3))
            return uplink_report(uplink.edge)

        tree, edge = tree_edge(wire_codec="cds2")
        edge.send(model_update(3))
        tcp, local = over_tcp(check, wire_codec="cds2"), uplink_report(edge)
        codec_fields = (
            "codec", "model_updates", "delta_updates", "delta_hit_rate",
            "bytes_saved", "payloads_sent", "payload_bytes",
        )
        assert (tcp["codec"], tcp["model_updates"]) == ("cds2", 1)
        assert {k: tcp[k] for k in codec_fields} == {
            k: local[k] for k in codec_fields
        }
        tree.close()
