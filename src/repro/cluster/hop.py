"""The §7 hop: one internal node between its children and its parent.

"By running the CluDistream between each internal node and its
children" -- the tree is one site -> coordinator hop applied
recursively, so the hop exists once.  Whichever link carried a child's
payload, :class:`~repro.cluster.tree.TransportTree` (in-process
transport edges) and :class:`~repro.cluster.aggregator.AggregatorServer`
(one OS process per node, TCP) hand it to :meth:`AggregatorHop.deliver`
and checkpoint their edges with :meth:`AggregatorHop.arq_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.protocol import Message
from repro.core.serde import WireCodec
from repro.multilayer.tree import InternalNode
from repro.obs.observer import Observer
from repro.transport.reliability import ReliableReceiver, ReliableSender

__all__ = ["AggregatorHop"]


@dataclass
class AggregatorHop:
    """An :class:`~repro.multilayer.tree.InternalNode` on the wire.

    ``level`` is the node's depth (root = 0), stamped on its spans;
    ``decoder`` the codec of the payloads its children send;
    ``receiver`` their ARQ receiver, once it exists.  ``uplink`` is the
    ARQ sender toward the parent and ``forward`` the call that ships one
    upload through it -- both ``None`` at the root, and on a deployed
    aggregator until its parent connection is up (uploads made before
    that are gated and counted, not sent).
    """

    node: InternalNode
    level: int
    decoder: WireCodec
    observer: Observer
    receiver: ReliableReceiver | None = None
    uplink: ReliableSender | None = None
    forward: Callable[[Message], None] | None = None

    def deliver(self, child_id: int, payload: bytes, trace=None) -> None:
        """Absorb one child payload; forward what the node uploads.

        Aggregation runs in a ``cluster.aggregate`` span that adopts the
        context the envelope carried and is re-propagated by
        ``forward``, so a chunk test at a leaf, the aggregation at its
        gateway and the merge at the root land on one causally linked
        trace.
        """
        message = self.decoder.decode(payload)
        obs = self.observer
        with obs.remote_parent(trace):
            with obs.span(
                "cluster.aggregate",
                node=self.node.node_id,
                child=child_id,
                level=self.level,
            ):
                uploads = self.node.handle_child_message(message)
                if self.forward is not None:
                    for upload in uploads:
                        self.forward(upload)

    def arq_state(self) -> dict:
        """ARQ continuation state for the aggregator checkpoint."""
        return {
            "uplink_next_seq": (
                self.uplink.last_seq + 1 if self.uplink is not None else 1
            ),
            "cursors": (
                self.receiver.cursor_snapshot()
                if self.receiver is not None
                else {}
            ),
        }

    def restore_cursors(self, arq: Mapping | None) -> None:
        """Resume the children's cursors recorded by :meth:`arq_state`,
        so replayed child streams are suppressed as duplicates."""
        assert self.receiver is not None
        if arq is not None:
            for child_id, expected in arq.get("cursors", {}).items():
                self.receiver.restore_cursor(int(child_id), int(expected))
