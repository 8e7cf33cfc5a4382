"""Crash/resume equivalence on every channel backend.

The contract under test: a run that crashes mid-stream and resumes from
its last checkpoint converges to coordinator (and site) state
*byte-identical* to a run that never crashed -- on the direct path, the
discrete-event simulation, the ARQ transport, and the ARQ transport
with datagram-level faults injected.
"""

from __future__ import annotations

import functools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.io.checkpoint import snapshot_coordinator, snapshot_site
from repro.runtime import (
    ChannelFaults,
    DirectChannel,
    Runtime,
    SimulatedChannel,
    TransportChannel,
)
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport

RECORDS = 240
CHUNK = 60
CHECKPOINT_EVERY = 60
CRASH_AFTER = 90  # rounds; between the first and second checkpoint


def fast_config() -> CluDistreamConfig:
    return CluDistreamConfig(
        n_sites=2,
        site=RemoteSiteConfig(
            dim=2,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
            chunk_override=CHUNK,
        ),
        coordinator=CoordinatorConfig(max_components=4, merge_method="moment"),
    )


def make_streams():
    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=2,
                    n_components=2,
                    segment_length=CHUNK,
                    p_new_distribution=0.8,
                ),
                rng=np.random.default_rng(700 + site_id),
            ),
            RECORDS,
        )
        for site_id in range(2)
    }


def state_bytes(runtime: Runtime) -> str:
    """Canonical JSON of the full system state (coordinator + sites)."""
    return json.dumps(
        {
            "coordinator": snapshot_coordinator(runtime.coordinator),
            "sites": [snapshot_site(site) for site in runtime.sites],
        },
        sort_keys=True,
    )


CHANNELS = {
    "direct": lambda: DirectChannel(),
    "simulated": lambda: SimulatedChannel(),
    "transport": lambda: TransportChannel(LoopbackTransport(), ManualClock()),
    "transport-faulty": lambda: TransportChannel(
        LoopbackTransport(),
        ManualClock(),
        faults=ChannelFaults(
            drop_rate=0.2, duplicate_rate=0.05, reorder_rate=0.1, seed=11
        ),
    ),
}


def run_uninterrupted(make_channel) -> str:
    system = CluDistream(fast_config(), seed=0)
    runtime = system.runtime(make_channel())
    runtime.run(make_streams(), RECORDS)
    return state_bytes(runtime)


def run_crashed_and_resumed(make_channel, tmp_path) -> str:
    system = CluDistream(fast_config(), seed=0)
    crashed = system.runtime(
        make_channel(),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    report = crashed.run(make_streams(), RECORDS, stop_after_round=CRASH_AFTER)
    assert report.rounds == CRASH_AFTER
    # The crash landed between checkpoints: rounds 61..90 are lost and
    # must be replayed from the round-60 snapshot.
    resumed = Runtime.resume(tmp_path, make_channel())
    assert resumed.rounds_completed == CHECKPOINT_EVERY
    final = resumed.run(make_streams(), RECORDS)
    assert final.rounds == RECORDS
    # Only the post-crash records are consumed by the resumed run.
    assert final.records == 2 * (RECORDS - CHECKPOINT_EVERY)
    return state_bytes(resumed)


@pytest.mark.parametrize("backend", sorted(CHANNELS))
def test_resumed_run_matches_uninterrupted_run(backend, tmp_path):
    make_channel = CHANNELS[backend]
    assert run_crashed_and_resumed(make_channel, tmp_path) == (
        run_uninterrupted(make_channel)
    )


# ----------------------------------------------------------------------
# A crash at any record, not only on a round or chunk boundary
# ----------------------------------------------------------------------
def record_schedule() -> list[tuple[int, np.ndarray]]:
    """``Runtime.run``'s order: one record per site per round."""
    streams = make_streams()
    return [
        (site_id, streams[site_id][index])
        for index in range(RECORDS)
        for site_id in sorted(streams)
    ]


def finish(runtime: Runtime) -> str:
    runtime.channel.finish()
    runtime.channel.quiesce()
    runtime.channel.close()
    return state_bytes(runtime)


@functools.cache
def stepped_uninterrupted(backend: str) -> str:
    runtime = CluDistream(fast_config(), seed=0).runtime(CHANNELS[backend]())
    for site_id, record in record_schedule():
        runtime.step(site_id, record)
    return finish(runtime)


@pytest.mark.parametrize("backend", sorted(CHANNELS))
@settings(max_examples=6, deadline=None)
@given(crash_at=st.integers(1, 2 * RECORDS - 1))
def test_crash_at_any_record_matches_uninterrupted_run(backend, crash_at):
    """The sites are checkpointed with partly filled chunk buffers (each
    at its own fill) and must pick up at the next record."""
    schedule = record_schedule()
    crashed = CluDistream(fast_config(), seed=0).runtime(CHANNELS[backend]())
    for site_id, record in schedule[:crash_at]:
        crashed.step(site_id, record)
    with tempfile.TemporaryDirectory() as directory:
        crashed.checkpoint(directory)
        crashed.channel.close()
        resumed = Runtime.resume(directory, CHANNELS[backend]())
    for site_id, record in schedule[crash_at:]:
        resumed.step(site_id, record)
    assert finish(resumed) == stepped_uninterrupted(backend)


def test_crash_between_checkpoints_leaves_the_last_snapshot(tmp_path):
    system = CluDistream(fast_config(), seed=0)
    runtime = system.runtime(
        DirectChannel(),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    runtime.run(make_streams(), RECORDS, stop_after_round=CRASH_AFTER)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["round"] == CHECKPOINT_EVERY
