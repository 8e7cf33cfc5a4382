"""Satellite: the seeded lossy backend is deterministic, trace included.

The fault injector draws every decision from one seeded generator, and
fault decisions never consult the observer, so two runs with the same
seed must inject the identical drop/duplicate/reorder schedule -- and,
with a deterministic time source, emit byte-identical JSONL traces.
Covered at two levels: a direct-drive harness hammering the injector
with hundreds of datagrams, and a full CluDistream run over the lossy
transport whose whole-system trace must reproduce byte for byte.
"""

from __future__ import annotations

import io

import numpy as np

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.obs import JsonlTraceSink, Observer
from repro.runtime import TransportChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig

N_SITES = 3
RECORDS_PER_SITE = 480
DIM = 2

FAULTS = FaultConfig(
    drop_rate=0.20,
    duplicate_rate=0.10,
    reorder_rate=0.10,
    reorder_delay=0.6,
)


def drive_injector(seed: int, n_datagrams: int = 300) -> tuple[object, str]:
    """Push raw datagrams straight through a lossy transport.

    Returns (fault stats, JSONL trace of the injector's decisions).
    """
    clock = ManualClock()
    buffer = io.StringIO()
    observer = Observer(
        sink=JsonlTraceSink(buffer), time_source=lambda: clock.now
    )
    lossy = LossyTransport(
        LoopbackTransport(), clock, FAULTS, seed=seed, observer=observer
    )
    received: list[bytes] = []
    lossy.bind_coordinator(received.append)
    for i in range(n_datagrams):
        lossy.send_to_coordinator(i % 4, bytes([i % 256]))
        clock.advance(0.05)  # lets reordered datagrams drain
    clock.advance(10.0)
    observer.flush()
    return lossy.faults, buffer.getvalue()


def run_once(seed: int) -> tuple[object, str]:
    """One full lossy system run; returns (fault stats, JSONL trace)."""
    clock = ManualClock()
    buffer = io.StringIO()
    observer = Observer(
        sink=JsonlTraceSink(buffer), time_source=lambda: clock.now
    )
    system = CluDistream(
        CluDistreamConfig(
            n_sites=N_SITES,
            site=RemoteSiteConfig(
                dim=DIM,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=30),
                chunk_override=80,
            ),
        ),
        seed=11,
        observer=observer,
    )
    lossy = LossyTransport(
        LoopbackTransport(), clock, FAULTS, seed=seed, observer=observer
    )
    streams = {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=DIM, n_components=2, p_new_distribution=0.8
                ),
                rng=np.random.default_rng(500 + site_id),
            ),
            RECORDS_PER_SITE,
        )
        for site_id in range(N_SITES)
    }
    channel = TransportChannel(
        lossy,
        clock,
        reliability=ReliabilityConfig(
            initial_timeout=0.4, jitter=0.1, heartbeat_interval=None
        ),
    )
    system.runtime(channel).run(streams, max_records_per_site=RECORDS_PER_SITE)
    observer.flush()
    return lossy.faults, buffer.getvalue()


class TestInjectorDeterminism:
    def test_same_seed_same_fault_schedule(self):
        faults_a, trace_a = drive_injector(seed=42)
        faults_b, trace_b = drive_injector(seed=42)
        assert faults_a == faults_b
        assert trace_a == trace_b
        # The schedule exercises every fault class.
        assert faults_a.dropped > 0
        assert faults_a.duplicated > 0
        assert faults_a.reordered > 0

    def test_different_seed_different_schedule(self):
        faults_a, trace_a = drive_injector(seed=42)
        faults_b, trace_b = drive_injector(seed=43)
        assert faults_a != faults_b
        assert trace_a != trace_b


class TestSystemTraceDeterminism:
    def test_same_seed_byte_identical_trace(self):
        faults_a, trace_a = run_once(seed=42)
        faults_b, trace_b = run_once(seed=42)
        assert faults_a == faults_b
        assert trace_a == trace_b
        # Faults really fired during the run (the trace is not a
        # degenerate fault-free transcript).
        assert faults_a.dropped + faults_a.duplicated > 0
        assert trace_a.count("\n") > 0
