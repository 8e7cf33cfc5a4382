"""Change detection read off the site's event table (paper section 7).

"A change emerges when new chunk does not fit the existing models": the
site closes the outgoing model's event-table entry at exactly that
record, so the table's change points and model transitions are the
change detector.  The equivalence tests pin that the table, the
messages the site emits and the ``site.refit`` trace events tell the
same story.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage, WeightUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.obs.observer import Observer
from repro.obs.trace import RingBufferSink
from repro.streams.base import take
from repro.streams.drift import DriftConfig, DriftingGaussianStream
from repro.streams.visual import one_dimensional_phases


def transitions(site: RemoteSite) -> list[tuple[int, int, int, bool]]:
    """``(position, old_model, new_model, reactivation)`` per change.

    Each closed event hands over to the next event's model, the last one
    to the current model; a hand-over to a model that reigned before is
    a reactivation.
    """
    events = list(site.events)
    successors = [event.model_id for event in events[1:]]
    if events:
        successors.append(site.current_model.model_id)
    reigned: set[int] = set()
    found = []
    for event, successor in zip(events, successors):
        reigned.add(event.model_id)
        found.append((event.end, event.model_id, successor, successor in reigned))
    return found


def make_site(seed: int = 5, c_max: int = 4) -> RemoteSite:
    config = RemoteSiteConfig(
        dim=2,
        epsilon=0.3,
        delta=0.05,
        c_max=c_max,
        em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
        chunk_override=250,
    )
    return RemoteSite(0, config, rng=np.random.default_rng(seed))


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def feed(site: RemoteSite, center: float, n: int, seed: int):
    """Stream ``n`` records; returns the changes they caused."""
    before = len(transitions(site))
    points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
    for row in points:
        site.process_record(row)
    return transitions(site)[before:]


class TestChangePoints:
    def test_no_change_on_stationary_stream(self):
        site = make_site()
        feed(site, 0.0, 1500, 1)
        assert site.events.change_points() == []

    def test_detects_a_distribution_change(self):
        site = make_site()
        chunk = site.chunk
        feed(site, 0.0, chunk * 2, 1)
        detected = feed(site, 40.0, chunk, 2)
        assert len(detected) == 1
        position, _, _, reactivation = detected[0]
        assert position == chunk * 2
        assert not reactivation

    def test_reactivation_flagged(self):
        site = make_site()
        chunk = site.chunk
        feed(site, 0.0, chunk * 2, 1)
        feed(site, 40.0, chunk * 2, 2)
        detected = feed(site, 0.0, chunk, 3)
        assert len(detected) == 1
        assert detected[0][3]

    def test_first_model_is_not_a_change(self):
        site = make_site()
        feed(site, 0.0, site.chunk, 1)
        assert transitions(site) == []

    def test_detection_position_within_one_chunk(self):
        site = make_site()
        chunk = site.chunk
        feed(site, 0.0, chunk * 3, 1)
        true_change = chunk * 3
        feed(site, 40.0, chunk * 2, 2)
        positions = site.events.change_points()
        assert len(positions) == 1
        assert abs(positions[0] - true_change) <= chunk

    def test_multiple_changes_all_detected(self):
        site = make_site(c_max=1)
        chunk = site.chunk
        centers = [0.0, 40.0, 80.0, 120.0]
        for index, center in enumerate(centers):
            feed(site, center, chunk, 10 + index)
        assert len(site.events.change_points()) == 3


def recurring(seed: int, incremental: bool):
    """The example's 1-d regimes A B C A B C, chunk-aligned."""
    phases = one_dimensional_phases(horizon=1000, repeats=2)
    config = RemoteSiteConfig(
        dim=1,
        epsilon=0.05,
        delta=0.05,
        em=EMConfig(
            n_components=3, n_init=1, max_iter=40, incremental=incremental
        ),
        chunk_override=250,
    )
    return config, phases.stream(np.random.default_rng(seed))


def drifting(seed: int, incremental: bool):
    """Two 2-d clusters whose centres keep moving."""
    stream = DriftingGaussianStream(
        DriftConfig(dim=2, n_components=2, drift_per_record=0.004, step=50),
        rng=np.random.default_rng(seed),
    )
    config = RemoteSiteConfig(
        dim=2,
        epsilon=0.05,
        delta=0.05,
        em=EMConfig(
            n_components=2, n_init=1, max_iter=40, incremental=incremental
        ),
        chunk_override=200,
    )
    return config, take(stream, 2000)


CASES = [
    (stream, incremental, seed)
    for stream in (recurring, drifting)
    for incremental in (False, True)
    for seed in (0, 1)
]


def observe(stream, incremental: bool, seed: int):
    """Run one seeded site; the three readings of its changes.

    No ``event_limit``: retention drops the oldest entries by design,
    and the table must hold every change to be compared.
    """
    config, records = stream(seed, incremental)
    sink = RingBufferSink()
    site = RemoteSite(
        0, config, rng=np.random.default_rng(seed), observer=Observer(sink=sink)
    )
    # A message watcher's reading: every model update after the first
    # and every weight update (a reactivation) is a change, detected at
    # the boundary of the chunk that failed its fit tests.
    from_messages = []
    last = None
    for record in records:
        for message in site.process_record(record):
            if isinstance(message, ModelUpdateMessage):
                if last is not None:
                    from_messages.append(
                        (site.position - site.chunk, last, message.model_id, False)
                    )
                last = message.model_id
            elif isinstance(message, WeightUpdateMessage):
                from_messages.append(
                    (site.position - site.chunk, last, message.model_id, True)
                )
                last = message.model_id
    refits = [
        event.fields["outcome"]
        for event in sink.events
        if event.type == "site.refit"
    ]
    return transitions(site), from_messages, refits


@pytest.fixture(scope="module")
def observed():
    return {case: observe(*case) for case in CASES}


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[
        f"{stream.__name__}-{'incremental' if incremental else 'classic'}-{seed}"
        for stream, incremental, seed in CASES
    ],
)
def test_table_messages_and_refit_events_agree(observed, case):
    from_table, from_messages, refits = observed[case]
    assert from_table, "the stream must change at least once"
    assert from_table == from_messages
    assert [reactivation for *_, reactivation in from_table] == [
        outcome == "reactivated" for outcome in refits
    ]


def test_reactivation_and_warm_refit_are_exercised(observed):
    reactivations = sum(
        reactivation
        for from_table, _, _ in observed.values()
        for *_, reactivation in from_table
    )
    warm = sum(refits.count("warm") for _, _, refits in observed.values())
    assert reactivations >= 1
    assert warm >= 1
