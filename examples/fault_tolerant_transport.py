#!/usr/bin/env python
"""Fault-tolerant transport: identical clustering over a hostile network.

Runs the same three site streams twice through the unified
:mod:`repro.runtime` loop over a :class:`TransportChannel`:

1. over the loss-free in-process loopback transport, and
2. over a seeded lossy transport injecting 20% datagram drops, 5%
   duplicates, reordering delays and a network partition window,

then shows that the reliability layer (sequence numbers, acks,
retransmission with backoff, duplicate suppression) makes the
coordinator end up in an *identical* state, and prints the unified
delivery accounting: what reliability cost in retransmissions and bytes
on the wire versus the paper's accounted synopsis payload.

For the simple drop/duplicate/reorder spec you can just pass
``ChannelFaults`` to ``TransportChannel``; this script wraps the
transport in a :class:`LossyTransport` by hand because it also wants a
partition blackout window, which shows the two layers compose.

Run:  python examples/fault_tolerant_transport.py
"""

from __future__ import annotations

import numpy as np

from repro import CluDistream, CluDistreamConfig, EMConfig, RemoteSiteConfig
from repro.runtime import TransportChannel
from repro.streams import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport import (
    FaultConfig,
    LoopbackTransport,
    LossyTransport,
    ManualClock,
    ReliabilityConfig,
)

N_SITES = 3
RECORDS_PER_SITE = 600
DIM = 2

FAULTS = FaultConfig(
    drop_rate=0.20,
    duplicate_rate=0.05,
    reorder_rate=0.10,
    reorder_delay=0.6,
    partitions=((1.0, 3.0),),  # 2 clock seconds of total blackout
)


def make_system() -> CluDistream:
    return CluDistream(
        CluDistreamConfig(
            n_sites=N_SITES,
            site=RemoteSiteConfig(
                dim=DIM,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=30),
                chunk_override=100,
            ),
        ),
        seed=3,
    )


def make_streams() -> dict[int, np.ndarray]:
    from repro.streams.base import take

    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=DIM, n_components=2, p_new_distribution=0.6
                ),
                rng=np.random.default_rng(40 + site_id),
            ),
            RECORDS_PER_SITE,
        )
        for site_id in range(N_SITES)
    }


def run(transport_name: str):
    system = make_system()
    clock = ManualClock()
    if transport_name == "loopback":
        transport = LoopbackTransport()
        lossy = None
    else:
        lossy = LossyTransport(LoopbackTransport(), clock, FAULTS, seed=17)
        transport = lossy
    channel = TransportChannel(
        transport,
        clock,
        reliability=ReliabilityConfig(
            initial_timeout=0.4, jitter=0.1, heartbeat_interval=None
        ),
    )
    system.runtime(channel).run(
        make_streams(), max_records_per_site=RECORDS_PER_SITE
    )
    return system, lossy, channel.accounting()


def main() -> None:
    print(f"== {N_SITES} sites x {RECORDS_PER_SITE} records, twice ==\n")

    clean_system, _, clean_report = run("loopback")
    lossy_system, lossy, faulty_report = run("lossy")

    print("faults injected on the lossy run:")
    print(
        f"  dropped={lossy.faults.dropped} "
        f"(partition blackout: {lossy.faults.partition_drops}) "
        f"duplicated={lossy.faults.duplicated} "
        f"reordered={lossy.faults.reordered}"
    )

    print("\nreliability layer's answer:")
    print(
        f"  retransmissions={faulty_report.retransmissions} "
        f"duplicates_suppressed={faulty_report.duplicates_suppressed} "
        f"delivered={faulty_report.delivered}"
        f"/{faulty_report.attempted}"
    )

    reference = clean_system.global_mixture()
    observed = lossy_system.global_mixture()
    identical = len(reference.components) == len(observed.components) and all(
        np.array_equal(a.mean, b.mean)
        and np.array_equal(a.covariance, b.covariance)
        for a, b in zip(reference.components, observed.components)
    ) and np.array_equal(reference.weights, observed.weights)
    print(f"\nglobal model identical to the loss-free run: {identical}")
    for weight, component in sorted(
        observed, key=lambda pair: pair[0], reverse=True
    ):
        print(f"  w={weight:.3f}  mean={np.round(component.mean, 2)}")

    print("\nwhat reliability costs on the wire:")
    for name, report in (("loopback", clean_report), ("lossy", faulty_report)):
        print(
            f"  {name:8s} payload={report.payload_bytes:6d} B  "
            f"wire={report.wire_bytes:6d} B  "
            f"overhead x{report.overhead_ratio:.2f}"
        )


if __name__ == "__main__":
    main()
