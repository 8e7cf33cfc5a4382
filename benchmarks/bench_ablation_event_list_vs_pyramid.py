"""Ablation: event-driven model maintenance versus pyramidal snapshots.

Section 7's claim against CluStream's static strategy: "When a pyramid
time arrives, a snapshot of current cluster model is stored.  This
strategy may introduce redundant records, while missing some important
events.  The novel events-driven maintenance mechanism in our method
provides an adaptive way."

Setup: one site processes an alternating-distribution stream; at every
chunk boundary the current model id is offered to a pyramidal snapshot
store (CluStream style), while the site's event table updates itself
(CluDistream style).  Afterwards, historical queries "which model was
active at record t?" are answered both ways and scored against ground
truth.

Shape targets: the event list answers (nearly) every query correctly
with one entry per model reign; the pyramid stores *more* entries on a
stable stream (redundancy) yet answers old queries worse (missed
events, snapshots evicted or taken at the wrong moment).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import make_site_config, print_header, run_once
from benchmarks.paper.baselines.pyramid import PyramidalSnapshotStore
from repro.core.remote import RemoteSite
from repro.streams.synthetic import random_mixture

CHUNK = 500
CYCLE = 3
CHUNKS_PER_PHASE = 4  # each phase is stable for several chunks
ROUNDS = 5  # 60 chunks total; alternating pool of 3 distributions
DIM = 4


def build_stream() -> tuple[np.ndarray, list[int]]:
    """Alternating stream plus the true phase id of each chunk."""
    rng = np.random.default_rng(77)
    pool = [random_mixture(DIM, 4, rng, separation=4.0) for _ in range(CYCLE)]
    sample_rng = np.random.default_rng(78)
    blocks = []
    truth = []
    for _ in range(ROUNDS):
        for phase, mixture in enumerate(pool):
            for _ in range(CHUNKS_PER_PHASE):
                blocks.append(mixture.sample(CHUNK, sample_rng)[0])
                truth.append(phase)
    return np.vstack(blocks), truth


def ablation() -> dict:
    data, truth_phases = build_stream()
    site = RemoteSite(
        0,
        make_site_config(dim=DIM, k=4, chunk=CHUNK, c_max=4),
        rng=np.random.default_rng(79),
    )
    pyramid = PyramidalSnapshotStore(alpha=2, capacity=1)

    # Feed chunk by chunk, snapshotting the current model per tick.
    n_chunks = data.shape[0] // CHUNK
    for tick in range(1, n_chunks + 1):
        chunk = data[(tick - 1) * CHUNK : tick * CHUNK]
        site.process_chunk(chunk)
        pyramid.offer(tick, site.current_model.model_id)

    # Ground truth: map each model id to the phase it was trained on
    # (via its training position).
    model_to_phase = {}
    for entry in site.all_models:
        chunk_index = (entry.trained_at - 1) // CHUNK
        model_to_phase[entry.model_id] = truth_phases[chunk_index]

    # Historical queries: the middle of every chunk.
    event_correct = 0
    pyramid_correct = 0
    queries = 0
    for tick in range(1, n_chunks + 1):
        record_time = (tick - 1) * CHUNK + CHUNK // 2
        true_phase = truth_phases[tick - 1]
        queries += 1

        model_id = site.events.model_at(record_time)
        if model_id is None and site.current_model is not None:
            model_id = site.current_model.model_id
        if model_id is not None and model_to_phase.get(model_id) == true_phase:
            event_correct += 1

        snapshot = pyramid.closest(tick)
        if model_to_phase.get(snapshot.payload) == true_phase:
            pyramid_correct += 1

    return {
        "queries": queries,
        "event_accuracy": event_correct / queries,
        "pyramid_accuracy": pyramid_correct / queries,
        "event_entries": len(site.events) + 1,  # + the open reign
        "pyramid_entries": len(pyramid),
        "pyramid_stored_total": pyramid.stored_total,
    }


def bench_ablation_event_list_vs_pyramid(benchmark, claims):
    results = run_once(benchmark, ablation)
    claims(results)
    print_header(
        "Ablation: event list (CluDistream) vs pyramidal snapshots (CluStream)"
    )
    print(
        f"historical queries: {results['queries']}\n"
        f"event-list accuracy:   {results['event_accuracy']:.1%} "
        f"({results['event_entries']} stored entries)\n"
        f"pyramid accuracy:      {results['pyramid_accuracy']:.1%} "
        f"({results['pyramid_entries']} retained snapshots, "
        f"{results['pyramid_stored_total']} written)"
    )

    # The adaptive event list answers history better...
    assert results["event_accuracy"] >= results["pyramid_accuracy"] + 0.1
    assert results["event_accuracy"] >= 0.9
    # ...while writing far fewer entries than the pyramid scheme.
    assert results["event_entries"] < results["pyramid_stored_total"]
