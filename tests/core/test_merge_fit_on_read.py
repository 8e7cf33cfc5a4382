"""Simplex merge fits run on read, and the coordinator state is the eager one.

A simplex merge draws its common random numbers from the coordinator's
generator when it merges, and runs its downhill-simplex search the first
time the merged father is read.  Its leaves owe their re-merge distances
against the merged leaves' pool, so reading one searches nothing.  The
search is a function of the pair and the drawn samples alone, so *when*
it runs cannot move a bit: the fixture below was written by the
coordinator that fitted every father and measured every leaf at merge
time, and a coordinator that fits on read must reproduce it byte for
byte, with snapshots taken while fits are still pending.

Re-record the fixture (only for a deliberate state change) with
``PYTHONPATH=src python -m tests.core.test_merge_fit_on_read``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.coordinator as coordinator_module
from repro.core.coordinator import (
    Coordinator,
    CoordinatorConfig,
    GlobalCluster,
    Leaf,
)
from repro.core.gaussian import Gaussian
from repro.core.merging import fit_merged_component
from repro.core.mixture import GaussianMixture
from repro.io.checkpoint import snapshot_coordinator
from repro.obs import Observer, RingBufferSink
from tests.core.test_merge_fit_identity import _drift_run

#: ``snapshot_coordinator`` of :func:`_drift_run` after every message
#: (sha256 of the sorted-key JSON), and the last one in full.
FIXTURE = Path(__file__).parent / "data" / "coordinator_fit_on_read.json"


def _text(coordinator: Coordinator) -> str:
    return json.dumps(snapshot_coordinator(coordinator), sort_keys=True)


def snapshot_every_message(monkeypatch) -> list[str]:
    """The 4-site simplex cascade (cap 3), snapshotted after each message."""
    texts = []
    handle = Coordinator.handle_message

    def snapshotting(self, message):
        handle(self, message)
        texts.append(_text(self))

    monkeypatch.setattr(Coordinator, "handle_message", snapshotting)
    _drift_run(monkeypatch, fit_merged_component)
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_snapshot_is_the_eager_coordinators(monkeypatch):
    fixture = json.loads(FIXTURE.read_text())
    texts = snapshot_every_message(monkeypatch)
    assert len(texts) == len(fixture["sha256"]) > 10
    for position, (text, digest) in enumerate(zip(texts, fixture["sha256"])):
        assert _digest(text) == digest, f"snapshot after message {position}"
    assert texts[-1] == fixture["final"]


def test_a_run_read_only_at_its_end_ends_in_the_eager_state(monkeypatch):
    """Nothing reads the tree between messages here, so fathers stay
    pending across messages and some are never searched at all."""
    system = _drift_run(monkeypatch, fit_merged_component)
    assert _text(system.coordinator) == json.loads(FIXTURE.read_text())["final"]


# ----------------------------------------------------------------------
# Counting pins: which reads run a search
# ----------------------------------------------------------------------
def counting(monkeypatch) -> list:
    """Count the searches the coordinator runs (through its module's
    ``fit_merged_component``, the name the benchmark's recorder wraps)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fit_merged_component(*args, **kwargs)

    monkeypatch.setattr(coordinator_module, "fit_merged_component", counted)
    return calls


def pending_merge(observer=None) -> tuple[Coordinator, GlobalCluster]:
    """Two far-apart one-leaf clusters under a cap of one: one simplex
    merge, and nothing read since."""
    coordinator = Coordinator(
        CoordinatorConfig(max_components=1, merge_samples=128),
        rng=np.random.default_rng(5),
        observer=observer,
    )
    for site, center in enumerate(([0.0, 0.0], [6.0, 1.0])):
        gaussian = Gaussian(np.array(center), np.eye(2) * (1.0 + site))
        coordinator._site_models[(site, 0)] = (
            GaussianMixture(np.ones(1), (gaussian,)), 100 + site
        )
        coordinator._attach(Leaf(site, 0, 0, gaussian, 100.0 + site))
    assert coordinator.n_components == 2
    coordinator._enforce_component_cap()
    (cluster,) = coordinator.clusters
    return coordinator, cluster


def test_a_father_overwritten_unread_is_never_searched(monkeypatch):
    calls = counting(monkeypatch)
    drawn = np.random.default_rng(5)
    coordinator, cluster = pending_merge()
    assert coordinator.stats.merges == 1 and calls == []
    # The samples were drawn at merge time all the same.
    assert coordinator._rng.bit_generator.state != drawn.bit_generator.state
    state = coordinator._rng.bit_generator.state
    assert coordinator.memory_bytes() > 0 and calls == []  # size needs no search
    cluster.refresh_father()
    for leaf in cluster.leaves:  # as _attach does: a set distance drops the debt
        leaf.remerge_distance = 1.0
    _text(coordinator)
    coordinator.global_mixture()
    assert coordinator.check_invariants() == []
    assert calls == []
    assert coordinator._rng.bit_generator.state == state


def test_a_father_read_twice_is_searched_once(monkeypatch):
    calls = counting(monkeypatch)
    coordinator, cluster = pending_merge()
    size = coordinator.memory_bytes()
    first = cluster.father
    assert len(calls) == 1
    assert cluster.father is first
    assert [leaf.remerge_distance for leaf in cluster.leaves]  # owed: no fit
    _text(coordinator)
    coordinator.global_mixture()
    assert len(calls) == 1
    assert coordinator.memory_bytes() == size


def test_reading_an_owed_score_runs_no_search(monkeypatch):
    calls = counting(monkeypatch)
    _, cluster = pending_merge()
    distance = cluster.leaves[0].remerge_distance
    assert calls == []
    pool = cluster.leaf_mixture().pooled_gaussian()
    assert distance == cluster.leaves[0].gaussian.symmetric_mahalanobis_sq(pool)
    # Reading the father then runs exactly one search.
    cluster.father
    assert len(calls) == 1


def test_an_observed_merge_searches_at_once(monkeypatch):
    calls = counting(monkeypatch)
    sink = RingBufferSink()
    pending_merge(Observer(sink=sink))
    assert len(calls) == 1
    (event,) = [e for e in sink.events if e.type == "coord.merge"]
    assert event.fields["simplex_evaluations"] > 0


def test_the_drift_run_searches_only_the_fathers_it_reads(monkeypatch):
    calls = counting(monkeypatch)
    system = _drift_run(monkeypatch, coordinator_module.fit_merged_component)
    during = len(calls)
    system.global_mixture()
    # 9 fathers are read while the messages are handled and none by the
    # final read; the other 13 are overwritten unread.
    merges = system.coordinator.stats.merges
    assert (during, len(calls), merges) == (9, 9, 22)


def _record() -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        texts = snapshot_every_message(monkeypatch)
    FIXTURE.write_text(
        json.dumps(
            {"sha256": [_digest(text) for text in texts], "final": texts[-1]},
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(texts)} snapshots to {FIXTURE}")


if __name__ == "__main__":
    _record()
