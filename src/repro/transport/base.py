"""The pluggable backend interface: moving opaque datagrams.

A :class:`DatagramTransport` knows nothing about synopses, sequence
numbers or acks -- it moves ``bytes`` between ``r`` sites and the one
coordinator of the star topology, in both directions (the uplink carries
data, the downlink carries acks).  Everything above it (reliability,
endpoints) is backend-agnostic; everything below it (loopback queues,
fault injectors, sockets) is policy-free.

A backend may drop, duplicate, reorder or delay datagrams; it must never
corrupt or truncate one (datagram, not stream, semantics).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

__all__ = ["DatagramTransport", "LinkStats"]

DatagramCallback = Callable[[bytes], None]


@dataclass
class LinkStats:
    """Datagram/byte counters for one direction of a transport."""

    datagrams: int = 0
    bytes: int = 0

    def register(self, data: bytes) -> None:
        self.datagrams += 1
        self.bytes += len(data)


class DatagramTransport(ABC):
    """Bidirectional star-topology datagram carrier.

    Concrete backends implement the two ``send_*`` methods;
    registration and wire metering are shared here.  ``uplink`` /
    ``downlink`` stats count datagrams *offered* to the backend (what
    the sender pays for), whatever the backend then does to them.
    """

    def __init__(self) -> None:
        self._coordinator_callback: DatagramCallback | None = None
        self._site_callbacks: dict[int, DatagramCallback] = {}
        self.uplink = LinkStats()
        self.downlink = LinkStats()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_coordinator(self, callback: DatagramCallback) -> None:
        """Register the coordinator-side datagram sink."""
        self._coordinator_callback = callback

    def bind_site(self, site_id: int, callback: DatagramCallback) -> None:
        """Register the datagram sink of one site (the ack path)."""
        self._site_callbacks[site_id] = callback

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_to_coordinator(self, site_id: int, data: bytes) -> None:
        """Offer one uplink datagram from ``site_id``."""
        self.uplink.register(data)
        self._transmit_to_coordinator(site_id, data)

    def send_to_site(self, site_id: int, data: bytes) -> None:
        """Offer one downlink datagram addressed to ``site_id``."""
        self.downlink.register(data)
        self._transmit_to_site(site_id, data)

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _transmit_to_coordinator(self, site_id: int, data: bytes) -> None:
        """Carry one uplink datagram (or lose it, if that is the policy)."""

    @abstractmethod
    def _transmit_to_site(self, site_id: int, data: bytes) -> None:
        """Carry one downlink datagram."""

    # ------------------------------------------------------------------
    # Delivery helpers for backends
    # ------------------------------------------------------------------
    def _deliver_to_coordinator(self, data: bytes) -> None:
        if self._coordinator_callback is not None:
            self._coordinator_callback(data)

    def _deliver_to_site(self, site_id: int, data: bytes) -> None:
        callback = self._site_callbacks.get(site_id)
        if callback is not None:
            callback(data)

    def close(self) -> None:
        """Release backend resources (default: nothing to release)."""
