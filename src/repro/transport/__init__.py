"""Fault-tolerant, pluggable site-to-coordinator transport.

The paper's protocol (section 5.3) is event driven and synopsis only,
but a synopsis is worthless if the network silently eats it.  This
package carries the :mod:`repro.core.protocol` messages over real (or
realistically misbehaving) links:

* **backends** -- :class:`~repro.transport.loopback.LoopbackTransport`
  (in-process, synchronous, deterministic -- the behaviour the rest of
  the reproduction was built on), and
  :class:`~repro.transport.lossy.LossyTransport` (wraps any backend with
  seeded drop / duplicate / reorder / delay / partition faults); the
  :mod:`repro.transport.tcp` module frames the same envelopes over
  asyncio TCP sockets for genuine multi-process runs;
* **reliability** -- :class:`~repro.transport.reliability.ReliableSender`
  and :class:`~repro.transport.reliability.ReliableReceiver` add per-site
  monotone sequence numbers, an ack-driven outbox with exponential
  backoff + jitter retransmission, idempotent/ordered delivery (dedupe +
  reorder buffer) and heartbeats for staleness detection;
* **endpoints** -- :class:`~repro.transport.endpoint.SiteEndpoint`
  plugs the stack into :class:`~repro.core.remote.RemoteSite` (via its
  ``emit`` hook); on the receiving side a
  :class:`~repro.cluster.hop.AggregatorHop` builds the receiver with
  ``listen`` and applies every payload to its coordinator.  In process,
  :class:`~repro.cluster.tree.TransportTree` wires both halves; a flat
  coordinator is the root of a depth-1 one.

The guarantee the stack provides: over any fault pattern that does not
partition the link forever, every emitted synopsis is delivered to the
coordinator **exactly once and in per-site order**, so the coordinator
state is identical to a loss-free run (see
``tests/integration/test_transport_convergence.py``).
"""

from repro.transport.base import DatagramTransport, LinkStats
from repro.transport.clock import Clock, ManualClock, TimerHandle
from repro.transport.endpoint import SiteEndpoint
from repro.transport.framing import (
    ENVELOPE_BYTES,
    KIND_ACK,
    KIND_DATA,
    KIND_DONE,
    KIND_HEARTBEAT,
    Envelope,
    StreamDecoder,
    decode_envelope,
    encode_envelope,
)
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, FaultStats, LossyTransport
from repro.transport.reliability import (
    ReceiverStats,
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
    SenderStats,
)
from repro.transport.wire import CodecSender

__all__ = [
    "Clock",
    "CodecSender",
    "DatagramTransport",
    "ENVELOPE_BYTES",
    "Envelope",
    "FaultConfig",
    "FaultStats",
    "KIND_ACK",
    "KIND_DATA",
    "KIND_DONE",
    "KIND_HEARTBEAT",
    "LinkStats",
    "LoopbackTransport",
    "LossyTransport",
    "ManualClock",
    "ReceiverStats",
    "ReliabilityConfig",
    "ReliableReceiver",
    "ReliableSender",
    "SenderStats",
    "SiteEndpoint",
    "StreamDecoder",
    "TimerHandle",
    "decode_envelope",
    "encode_envelope",
]
