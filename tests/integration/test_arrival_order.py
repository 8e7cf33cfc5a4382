"""Arrival order at the coordinator: one recorded message stream, replayed.

Every in-process channel delivers in the runtime's round-robin order,
but a deployed aggregator applies its children's updates in whatever
order the network hands them over, and Algorithm 2 (attach, the
``M_merge`` cascade, ``M_split`` / ``M_remerge``) is order dependent.
This module records the message stream of a seeded 4-site run (direct
channel, simplex merges, a component cap that forces merges) and
replays it into fresh coordinators -- same configuration, same seed --
in seeded cross-site interleavings.  Each interleaving keeps every
site's own order, which is all ARQ guarantees.

Tier-1 pins the harness: the recorded order reproduces the live
coordinator bit for bit, and a given interleaving replays identically
twice.  The spread over many interleavings is a measurement, not a
gate; print it with::

    PYTHONPATH=src python -m tests.integration.test_arrival_order
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import get_codec
from repro.io.checkpoint import snapshot_coordinator
from repro.obs.history import weight_transport
from repro.runtime import DirectChannel

SEED = 3
N_SITES = 4
REGIMES = 4
RECORDS_PER_REGIME = 400

CONFIG = CluDistreamConfig(
    n_sites=N_SITES,
    site=RemoteSiteConfig(
        dim=2,
        epsilon=0.3,
        delta=0.05,
        em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
        chunk_override=200,
    ),
    coordinator=CoordinatorConfig(max_components=3, merge_samples=256),
)

#: Messages travel as CDS1 payloads (a bit-exact float64 round trip),
#: so every replay decodes fresh message objects.
CODEC = get_codec("cds1")


def streams() -> dict[int, list[np.ndarray]]:
    """Each site jumps through ``REGIMES`` two-cluster regimes."""
    out = {}
    for site in range(N_SITES):
        rng = np.random.default_rng([17, site])
        parts = []
        for jump in range(REGIMES):
            center = np.array([4.0 * site + 9.0 * jump, -2.0 * jump])
            regime = GaussianMixture(
                np.array([0.5, 0.5]),
                (
                    Gaussian.spherical(center, 0.5),
                    Gaussian.spherical(center + np.array([0.0, 4.0]), 0.5),
                ),
            )
            parts.append(regime.sample(RECORDS_PER_REGIME, rng)[0])
        out[site] = list(np.concatenate(parts))
    return out


def state(coordinator: Coordinator) -> str:
    return json.dumps(snapshot_coordinator(coordinator), sort_keys=True)


def record() -> tuple[list[bytes], Coordinator]:
    """The live run: the payloads its coordinator handled, in arrival
    order, and that coordinator."""
    system = CluDistream(CONFIG, seed=SEED)
    coordinator = system.coordinator
    payloads: list[bytes] = []
    handle = coordinator.handle_message

    def recording(message) -> None:
        payloads.append(CODEC.encode(message))
        handle(message)

    coordinator.handle_message = recording  # read when the channel opens
    system.runtime(DirectChannel()).run(
        streams(), max_records_per_site=REGIMES * RECORDS_PER_REGIME
    )
    return payloads, coordinator


def replay(payloads: list[bytes], order: list[int] | None = None) -> Coordinator:
    """A fresh coordinator (the live one's config and seed) fed the
    payloads in ``order`` (default: as recorded)."""
    coordinator = Coordinator(
        CONFIG.coordinator, rng=np.random.default_rng(SEED + 10_000)
    )
    for index in range(len(payloads)) if order is None else order:
        coordinator.handle_message(CODEC.decode(payloads[index]))
    return coordinator


def interleaving(payloads: list[bytes], seed: int) -> list[int]:
    """A seeded cross-site order of the payload indices that keeps
    every site's own order."""
    queues: dict[int, deque[int]] = {}
    for index, payload in enumerate(payloads):
        site = CODEC.decode(payload).site_id
        queues.setdefault(site, deque()).append(index)
    rng = np.random.default_rng(seed)
    order = []
    while queues:
        site = int(rng.choice(sorted(queues)))
        order.append(queues[site].popleft())
        if not queues[site]:
            del queues[site]
    return order


def test_the_recorded_order_reproduces_the_live_coordinator():
    payloads, live = record()
    assert live.stats.merges > 0  # the cap is reached
    assert len({CODEC.decode(p).site_id for p in payloads}) == N_SITES
    assert state(replay(payloads)) == state(live)


def test_an_interleaving_replays_identically_twice():
    payloads, _ = record()
    order = interleaving(payloads, seed=1)
    assert sorted(order) == list(range(len(payloads)))
    assert order != list(range(len(payloads)))
    for site in range(N_SITES):
        own = [i for i in order if CODEC.decode(payloads[i]).site_id == site]
        assert own == sorted(own)
    assert state(replay(payloads, order)) == state(replay(payloads, order))


def spread(n: int = 32) -> dict:
    """The root over ``n`` interleavings, against the recorded root."""
    payloads, live = record()
    recorded = live.global_mixture().weights
    rows = []
    for seed in range(n):
        coordinator = replay(payloads, interleaving(payloads, seed))
        weights = coordinator.global_mixture().weights
        rows.append(
            {
                "weights": tuple(sorted(float(w) for w in weights)),
                "K": coordinator.n_components,
                "merges": coordinator.stats.merges,
                "splits": coordinator.stats.splits,
                "transport": weight_transport(recorded, weights),
            }
        )
    return {
        "messages": len(payloads),
        "recorded": {
            "K": live.n_components,
            "merges": live.stats.merges,
            "splits": live.stats.splits,
        },
        "interleavings": n,
        "distinct_weight_multisets": len({row["weights"] for row in rows}),
        "rows": rows,
    }


def main() -> None:
    result = spread()
    rows = result.pop("rows")
    print(json.dumps(result, indent=1))
    for key in ("K", "merges", "splits", "transport"):
        values = sorted(row[key] for row in rows)
        print(
            f"{key:>9}: min {values[0]:.4g}  median "
            f"{values[len(values) // 2]:.4g}  max {values[-1]:.4g}"
        )


if __name__ == "__main__":
    main()
