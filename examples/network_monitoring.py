#!/usr/bin/env python
"""Network-flow monitoring: the paper's NFD scenario on synthetic flows.

Twenty telecom edge collectors each observe a net-flow stream (six
attributes: source/destination host, source/destination TCP port,
packet count, data bytes).  Shipping raw flows to the data centre is
infeasible, so each collector runs CluDistream remote-site processing
and ships only model synopses.  The run is timed on a virtual clock at
a 1000 records/s ingest rate per site and reports the
communication-cost series the paper's Figure 2 plots.

Run:  python examples/network_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import CluDistreamConfig, EMConfig, RemoteSiteConfig
from repro.core.cludistream import CluDistream
from repro.core.coordinator import CoordinatorConfig
from repro.runtime import SimulatedChannel
from repro.streams.netflow import NetflowConfig, NetflowStreamGenerator

N_SITES = 8
RECORDS_PER_SITE = 10_000
RATE = 1000.0  # records per virtual second, as in the paper


def main() -> None:
    config = CluDistreamConfig(
        n_sites=N_SITES,
        site=RemoteSiteConfig(
            dim=6,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=5, n_init=1, max_iter=40),
            chunk_override=1000,
        ),
        coordinator=CoordinatorConfig(max_components=8),
    )
    system = CluDistream(config, seed=7)

    streams = {
        site_id: NetflowStreamGenerator(
            NetflowConfig(segment_length=2000, p_switch=0.15),
            rng=np.random.default_rng(500 + site_id),
        )
        for site_id in range(N_SITES)
    }

    print(
        f"Simulating {N_SITES} collectors x {RECORDS_PER_SITE} flows "
        f"at {RATE:.0f} flows/s ..."
    )
    channel = SimulatedChannel(rate=RATE)
    report = system.runtime(channel).run(
        streams, max_records_per_site=RECORDS_PER_SITE
    )

    print(f"\nvirtual duration: {report.duration:.1f} s")
    print(f"records processed: {report.records}")
    print(
        f"uplink traffic: {report.accounting.attempted} messages, "
        f"{report.accounting.payload_bytes} bytes"
    )
    raw_bytes = report.records * 6 * 8
    print(
        f"raw-shipping equivalent: {raw_bytes} bytes "
        f"({raw_bytes / max(report.accounting.payload_bytes, 1):.0f}x more)"
    )

    print("\ncumulative communication cost (sampled every second):")
    times, values = channel.cost_series()
    for time, value in list(zip(times, values))[:: max(1, len(times) // 10)]:
        bar = "#" * int(50 * value / max(values[-1], 1))
        print(f"  t={time:6.1f}s  {int(value):>8} B  {bar}")

    print("\nglobal traffic clusters (coordinator view):")
    mixture = system.global_mixture()
    schema = ("srcH", "dstH", "srcP", "dstP", "pkts", "bytes")
    print("    weight  " + "  ".join(f"{name:>6}" for name in schema))
    for weight, component in sorted(mixture, key=lambda pair: pair[0], reverse=True):
        cells = "  ".join(f"{value:6.2f}" for value in component.mean)
        print(f"    {weight:6.3f}  {cells}")


if __name__ == "__main__":
    main()
