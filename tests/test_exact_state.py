"""The exact state every end-to-end workload ends in, as a gate.

One untimed ``WorkloadRun(W, seed).run_once()`` per workload of
``benchmarks/e2e`` and seeds 7 / 11 (the benchmark's own seeds) is a
pure function of the source: the final-state digest, the merge, split
and merge-fit counts, the wire bytes, the checkpoint size and the
hold-out log-likelihood gap are all seeded.  This test replays each one
and compares those values, exactly, against ``tests/data/exact_state.json``.
A change that moves one on purpose restamps the file and names every
key that moved::

    PYTHONPATH=src python -m tests.test_exact_state

(with no change it rewrites the file byte for byte).  ``benchmarks/e2e``
is imported, never edited.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

import pytest

import repro.core.coordinator as coordinator
from benchmarks.e2e.harness import WorkloadRun
from benchmarks.e2e.workloads import WORKLOADS

FIXTURE = Path(__file__).resolve().parent / "data" / "exact_state.json"

SEEDS = (7, 11)


def exact_state(name: str, seed: int) -> dict:
    """The exact values of one replay of workload ``name`` at ``seed``.

    Merge fits are counted by wrapping the coordinator module's
    ``fit_merged_component``: a downhill-simplex search per call.
    """
    workload = WORKLOADS[name]
    searches = []
    fit = coordinator.fit_merged_component

    def counted(*args, **kwargs):
        searches.append(1)
        return fit(*args, **kwargs)

    with mock.patch.object(coordinator, "fit_merged_component", counted):
        repeat = WorkloadRun(workload, seed).run_once()
    assert not repeat.failures, repeat.failures
    counters = repeat.counters
    return {
        "digest": repeat.digest,
        "components_final": counters["components_final"],
        "merges": counters["merges"],
        "splits": counters["splits"],
        "fit_calls": len(searches),
        "wire_bytes_per_record": (counters["wire_bytes"] + counters["ack_bytes"])
        / workload.records,
        "model_state_kb": repeat.evaluation["model_state_kb"],
        "holdout_ll_gap_nats": repeat.evaluation["holdout_ll_gap_nats"],
    }


def record() -> dict:
    return {
        name: {str(seed): exact_state(name, seed) for seed in SEEDS}
        for name in sorted(WORKLOADS)
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_file_covers_every_workload_and_seed(recorded):
    assert sorted(recorded) == sorted(WORKLOADS)
    for name, seeds in recorded.items():
        assert sorted(seeds) == sorted(str(seed) for seed in SEEDS), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_replay_ends_in_the_recorded_state(recorded, name, seed):
    expected = recorded[name][str(seed)]
    actual = exact_state(name, seed)
    moved = {
        key: (expected.get(key), actual.get(key))
        for key in sorted(expected.keys() | actual.keys())
        if expected.get(key) != actual.get(key)
    }
    assert not moved, f"{name} seed {seed}: (recorded, replayed) {moved}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(FIXTURE)}")
