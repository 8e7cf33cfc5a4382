#!/usr/bin/env python
"""Evolving analysis & change detection over the event list (§7).

One remote site watches a stream that alternates between traffic
regimes.  The event table records which model explained which span of
the stream; afterwards we (a) read the change points off that table and
check them against the ground truth, (b) replay a user window query
("what did the stream look like between records 3000 and 9000?"), and
(c) run a sliding window with the negative-weight deletion protocol.

Run:  python examples/evolving_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import EMConfig, RemoteSite, RemoteSiteConfig
from repro.streams.visual import one_dimensional_phases
from repro.windows import SlidingWindowManager, horizon_mixture

CHUNK = 500


def main() -> None:
    config = RemoteSiteConfig(
        dim=1,
        epsilon=0.05,
        delta=0.05,
        c_max=4,
        em=EMConfig(n_components=3, n_init=2, max_iter=60),
        chunk_override=CHUNK,
    )
    site = RemoteSite(0, config, rng=np.random.default_rng(3))

    # Three regimes, repeated twice (A B C A B C) -- the repeats let the
    # multi-test strategy reactivate archived models.
    phases = one_dimensional_phases(horizon=2000, repeats=2)
    rng = np.random.default_rng(17)
    print(
        f"Streaming {phases.total_records} records across "
        f"{phases.n_phases} phases (chunk size {CHUNK})..."
    )
    for record in phases.stream(rng):
        site.process_record(record)

    # Each closed event ends where a chunk failed its fit tests; the
    # model that took over is the next event's (the current model after
    # the last one), and it is a reactivation when it reigned before.
    events = list(site.events)
    successors = [event.model_id for event in events[1:]]
    successors.append(site.current_model.model_id)
    reigned: set[int] = set()
    for event, successor in zip(events, successors):
        reigned.add(event.model_id)
        kind = "reactivated" if successor in reigned else "new model"
        print(
            f"  change detected at record {event.end}: "
            f"model {event.model_id} -> {successor} ({kind})"
        )
    # The phases are chunk-aligned, so the detected change points are
    # exactly the ground truth.
    true_changes = [phases.horizon * i for i in range(1, phases.n_phases)]
    assert site.events.change_points() == true_changes, (
        site.events.change_points()
    )

    print("\n=== Event table (the stream's evolution) ===")
    for event in site.events:
        print(
            f"  records [{event.start:>5}, {event.end:>5}) -> "
            f"model {event.model_id}"
        )

    print("\n=== Window query: records [3000, 9000) ===")
    for event in site.events.window(3000, 6000):
        print(
            f"  model {event.model_id} active on "
            f"[{max(event.start, 3000)}, {min(event.end, 9000)})"
        )

    print("\n=== Horizon model of the most recent 2000 records ===")
    recent = horizon_mixture(site, 2000)
    for weight, component in sorted(recent, key=lambda pair: pair[0], reverse=True):
        print(
            f"  w={weight:.3f}  mean={component.mean[0]:+.2f}  "
            f"sigma={np.sqrt(component.covariance[0, 0]):.2f}"
        )
    truth = phases.mixtures[-1]
    print("ground truth of the final phase:")
    for weight, component in sorted(truth, key=lambda pair: pair[0], reverse=True):
        print(
            f"  w={weight:.3f}  mean={component.mean[0]:+.2f}  "
            f"sigma={np.sqrt(component.covariance[0, 0]):.2f}"
        )

    print("\n=== Sliding window with deletion (fresh site) ===")
    sliding_site = RemoteSite(1, config, rng=np.random.default_rng(4))
    manager = SlidingWindowManager(sliding_site, window=3 * CHUNK)
    deletions = 0
    for record in phases.stream(np.random.default_rng(18)):
        for message in manager.process_record(record):
            deletions += type(message).__name__ == "DeletionMessage"
    print(
        f"window={3 * CHUNK} records: {deletions} deletion messages "
        f"emitted, {manager.records_in_window} records in window, "
        f"{len(sliding_site.all_models)} models alive"
    )


if __name__ == "__main__":
    main()
