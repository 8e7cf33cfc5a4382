"""The unified execution layer behind CluDistream's delivery stacks.

One :class:`Runtime` drives sites + coordinator over a pluggable
:class:`Channel`; the three backends (:class:`DirectChannel`,
:class:`SimulatedChannel`, :class:`TransportChannel`) wrap the direct
delivery path (the simulated one adds a virtual clock and a cost meter)
and the ARQ transport, a depth-1 :class:`~repro.cluster.tree.TransportTree`,
behind one contract.  Fault injection (:class:`ChannelFaults`),
accounting (:class:`DeliveryAccounting`) and checkpoint/resume live
here, once, instead of three times.
"""

from repro.runtime.accounting import DeliveryAccounting
from repro.runtime.channel import (
    Channel,
    DirectChannel,
    SimulatedChannel,
    TransportChannel,
)
from repro.runtime.faults import ChannelFaults, MessageFaultInjector
from repro.runtime.runtime import MANIFEST_NAME, RunReport, Runtime

__all__ = [
    "Channel",
    "ChannelFaults",
    "DeliveryAccounting",
    "DirectChannel",
    "MANIFEST_NAME",
    "MessageFaultInjector",
    "RunReport",
    "Runtime",
    "SimulatedChannel",
    "TransportChannel",
]
