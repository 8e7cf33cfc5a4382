"""The one delivery-accounting model every delivery stack reports in.

The message-level channels (with their fault injector) count into one
:class:`DeliveryAccounting`; the ARQ transport channel projects its
tree's ``level_stats`` and root receiver onto it:

``attempted``
    Application messages the sites offered for transmission.  This is
    what the sender pays for -- a message counts here even if the link
    then drops it.
``delivered``
    Messages actually applied at the coordinator.  On a loss-free or
    reliable (ARQ) channel ``delivered == attempted`` after a full
    drain; on an unreliable channel without retransmission the
    difference is exactly the messages lost.  A duplicated message that
    is applied twice counts twice (the direct and simulated channels
    deliver duplicates; the ARQ receiver suppresses them).
``payload_bytes``
    Serialised synopsis bytes of the *attempted* messages -- the
    paper's communication-cost meter.  Dropped messages are included
    (the sender paid for them); framing and retransmission are not.
``wire_bytes``
    Bytes actually offered to the medium: envelopes, retransmissions,
    heartbeats and DONE markers included.  Equal to ``payload_bytes``
    on the direct and simulated channels (messages travel unframed);
    strictly larger on the ARQ transport channel.
``ack_bytes``
    Downlink bytes spent on acknowledgements (ARQ only).
``dropped`` / ``duplicated`` / ``reordered``
    What the channel's fault injector did to the traffic.  On the ARQ
    channel these count *datagrams* (a single application message can
    be dropped several times and still be delivered once); on the
    direct and simulated channels they count application messages.
``retransmissions`` / ``duplicates_suppressed``
    The work the reliability layer performed to turn the faulty link
    back into exactly-once delivery (zero on the other channels).

The invariants every channel maintains (asserted by the runtime test
suite, so a new backend cannot silently double-count):

* ``payload_bytes <= wire_bytes`` (framing never shrinks a message);
* ``delivered <= attempted + duplicated`` (nothing is invented);
* with no faults and no reliability layer,
  ``attempted == delivered`` and ``payload_bytes == wire_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["DeliveryAccounting"]


@dataclass
class DeliveryAccounting:
    """Unified delivery counters; see the module docstring for the
    meaning of each field and the cross-channel invariants."""

    attempted: int = 0
    delivered: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    ack_bytes: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def overhead_ratio(self) -> float:
        """Wire bytes per application payload byte (>= 1)."""
        if self.payload_bytes == 0:
            return float("inf") if self.wire_bytes else 1.0
        return self.wire_bytes / self.payload_bytes

    @property
    def delivered_exactly_once(self) -> bool:
        """Every attempted message was applied exactly once."""
        return self.attempted == self.delivered

    @property
    def lost(self) -> int:
        """Messages attempted but never applied (cannot be negative on
        a quiesced channel)."""
        return max(0, self.attempted - self.delivered)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "DeliveryAccounting") -> "DeliveryAccounting":
        """Add ``other``'s counters into this accounting (in place)."""
        for spec in fields(DeliveryAccounting):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return self

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports, traces and JSON export)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(DeliveryAccounting)
        }
