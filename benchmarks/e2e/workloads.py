"""The four workloads: scenarios, seeded streams, systems, slice plans.

A workload is a *scenario* (which mixtures each site observes, in which
order, for how many chunks -- fixed by the workload's definition) plus
a *system* built from ``repro``'s public constructors.  ``--seed``
draws the records and the hold-out from the scenario's mixtures, so two
seeds give different streams of the same shape and the same seed gives
the same bytes.

Every site has the same chunk size and the replay is round-robin (one
record per site per round, ``Runtime.run``'s order), so round
``k*M - 1`` completes chunk ``k`` on every site.  That fixes the slice
plan: ingest slices between boundary rounds, one *boundary step* slice
per (boundary round, site).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.cluster.tree import TransportTree
from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.io.checkpoint import snapshot_coordinator, snapshot_site
from repro.obs import HealthMonitor, MultiSink, Observer, SpanCollector
from repro.obs.trace import TraceSink
from repro.runtime import DirectChannel, SimulatedChannel, TransportChannel
from repro.streams import random_mixture
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig

__all__ = [
    "BOUNDARY",
    "BUILD",
    "INGEST",
    "Slice",
    "Streams",
    "WORKLOADS",
    "Workload",
    "materialize",
    "plan_slices",
    "scenario",
]

DIM = 4
#: Seeds of everything that is *not* an input: site/coordinator rngs,
#: ARQ jitter, fault injection.  The program under test receives only
#: the generated records, so these never follow ``--seed``.
SYSTEM_SEED = 42
HOLDOUT_RECORDS = 64_000
#: Within-regime drift step of ``recurring_refit``, per axis: about one
#: cluster standard deviation -- far enough to fail the fit test, near
#: enough for a warm start to stay in its basin.
STEP = 0.5

BUILD, INGEST, BOUNDARY = "build", "ingest", "boundary"


class Slice(NamedTuple):
    """One deterministic unit of timed work.

    ``ingest`` feeds rounds ``[r0, r1)`` to every site; ``boundary``
    feeds round ``r0`` to ``site`` (completing its chunk) and settles
    the channel; ``build`` constructs the system and opens the channel.
    ``setup`` marks the slices that make up time-to-first-global-model.
    """

    kind: str
    setup: bool
    r0: int
    r1: int
    site: int


class Segment(NamedTuple):
    mixture: GaussianMixture
    chunks: int


@dataclass(frozen=True)
class Workload:
    """Static description of one workload.

    ``chunks`` counts chunks per site including the set-up chunk;
    ``period`` is the length of the scenario's regime pattern in
    chunks, so any ``1 + n * period`` chunks keeps the update share.
    ``zone`` is the allowed update share (``None`` = exactly 0).
    ``replay_s`` is the wall clock of one replay behind the quiet gate
    on the sizing host (its probes and an average share of slow periods
    included); it only turns ``--seconds`` into a repeat count, which
    has to be fixed up front for two runs to be comparable.
    """

    name: str
    why: str
    sites: int
    chunk: int
    chunks: int
    period: int
    replay_s: float
    slice_rounds: int
    zone: tuple[float, float] | None
    ll_gap_ceiling: float
    scenario_seed: int
    regimes: Callable[["Workload", np.random.Generator], list[list[Segment]]]
    build: Callable[["Workload", "Observed | None"], "System"]
    observed: bool = False

    def scaled(self, factor: float) -> "Workload":
        """The same workload at about ``factor`` x the size: fewer whole
        regime periods, or -- where a site sees a single period
        (``tree_lossy``) -- fewer sites."""
        periods = (self.chunks - 1) // self.period
        if periods <= 1:
            return replace(self, sites=max(8, round(self.sites * factor)))
        periods = max(1, round(periods * factor))
        return replace(self, chunks=1 + periods * self.period)

    def repeats_for(self, seconds: float) -> int:
        """Timed repeats that fill ``seconds``, between 3 and 12."""
        return max(3, min(12, round(seconds / self.replay_s)))

    @property
    def records(self) -> int:
        return self.sites * self.chunk * self.chunks

    @property
    def steady_records(self) -> int:
        return self.sites * self.chunk * (self.chunks - 1)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _fresh(rng: np.random.Generator, k: int) -> GaussianMixture:
    return random_mixture(DIM, k, rng)


def _move_component(
    mixture: GaussianMixture, index: int, rng: np.random.Generator
) -> GaussianMixture:
    """One component jumps to a fresh location; the rest stay."""
    components = list(mixture.components)
    components[index] = random_mixture(DIM, 1, rng).components[0]
    return GaussianMixture(mixture.weights, tuple(components))


def _shifted(mixture: GaussianMixture, offset: np.ndarray) -> GaussianMixture:
    from repro.core.gaussian import Gaussian

    return GaussianMixture(
        mixture.weights,
        tuple(
            Gaussian(component.mean + offset, component.covariance)
            for component in mixture.components
        ),
    )


def _stationary(workload: Workload, rng) -> list[list[Segment]]:
    return [
        [Segment(_fresh(rng, 5), workload.chunks)] for _ in range(workload.sites)
    ]


def _abrupt(workload: Workload, rng) -> list[list[Segment]]:
    """Every ``period`` chunks one component of the site's mixture
    jumps; sites are staggered so changes do not coincide."""
    k = 2
    out = []
    for site in range(workload.sites):
        mixture = _fresh(rng, k)
        segments = []
        remaining = workload.chunks
        length = 1 + site % workload.period  # stagger the first change
        moved = 0
        while remaining > 0:
            length = min(length, remaining)
            segments.append(Segment(mixture, length))
            remaining -= length
            mixture = _move_component(mixture, moved % k, rng)
            moved += 1
            length = workload.period
        out.append(segments)
    return out


def _recurring(workload: Workload, rng) -> list[list[Segment]]:
    """Two regimes alternate; half way through each visit the regime
    takes one small step (a random-walk drift that never returns), so
    a visit costs one reactivation and one warm refit."""
    half = workload.period // 2
    out = []
    for site in range(workload.sites):
        regimes = [_fresh(rng, 3), _fresh(rng, 3)]
        segments = []
        remaining = workload.chunks
        visit = 0
        while remaining > 0:
            which = visit % 2
            for part, length in enumerate((half, workload.period - half)):
                length = min(length, remaining)
                if length:
                    segments.append(Segment(regimes[which], length))
                    remaining -= length
                if part == 0:
                    step = STEP * rng.choice((-1.0, 1.0), size=DIM)
                    regimes[which] = _shifted(regimes[which], step)
            visit += 1
        out.append(segments)
    return out


def _one_change(workload: Workload, rng) -> list[list[Segment]]:
    """A leaf's first regime lasts ``1 + site % period`` chunks, later
    ones ``period + 1``.  At full size (2 steady chunks, period 3) two
    leaves in three change regime exactly once and the third never."""
    out = []
    for site in range(workload.sites):
        length = 1 + site % workload.period
        segments = []
        remaining = workload.chunks
        while remaining > 0:
            length = min(length, remaining)
            segments.append(Segment(_fresh(rng, 2), length))
            remaining -= length
            length = workload.period + 1
        out.append(segments)
    return out


def scenario(workload: Workload) -> list[list[Segment]]:
    """Per-site regime segments; a function of the workload alone."""
    return workload.regimes(
        workload, np.random.default_rng(workload.scenario_seed)
    )


# ----------------------------------------------------------------------
# Seeded streams
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Streams:
    """Pre-materialised inputs of one (workload, seed)."""

    data: tuple[np.ndarray, ...]
    holdout: np.ndarray
    truth: GaussianMixture

    def digest(self) -> str:
        sha = hashlib.sha256()
        for array in (*self.data, self.holdout):
            sha.update(array.tobytes())
        return sha.hexdigest()


def materialize(workload: Workload, seed: int) -> Streams:
    """Draw every site's records and the pooled hold-out from ``seed``.

    The hold-out is drawn from the *generating* landmark mixture: every
    (site, regime) mixture weighted by the records it produced.

    The seed draws every chunk a model is *tested* against and the
    hold-out.  The first chunk of each regime segment -- the chunk a
    model is *fitted* on: the set-up chunk, then every chunk that
    triggers a refit -- belongs to the scenario and is the same on
    every seed.  Resampling the fit chunks sends the coordinator's
    split/re-merge cascade down a different path (145-164 merge fits on
    ``drift_merge`` over seeds 1-8, +/-10 % of its wall clock), which
    would bury any regression smaller than that under seed noise; with
    them fixed, two seeds do the same fits and merges and differ in
    every record the fit test, the absorb path and the quality gap see.
    """
    segments = scenario(workload)
    data = []
    pairs = []
    for site, site_segments in enumerate(segments):
        fixed = np.random.default_rng([workload.scenario_seed, site])
        drawn = np.random.default_rng([seed, site])
        parts = []
        for segment in site_segments:
            parts.append(segment.mixture.sample(workload.chunk, fixed)[0])
            rest = (segment.chunks - 1) * workload.chunk
            parts.append(segment.mixture.sample(rest, drawn)[0])
            pairs += [(w * segment.chunks, c) for w, c in segment.mixture]
        data.append(np.concatenate(parts))
    truth = GaussianMixture.from_pairs(pairs)
    holdout = truth.sample(
        HOLDOUT_RECORDS, np.random.default_rng([seed, 1_000_003])
    )[0]
    return Streams(tuple(data), holdout, truth)


def plan_slices(workload: Workload) -> list[Slice]:
    """The slice plan: identical for every repeat and every seed."""
    m = workload.chunk
    slices = [Slice(BUILD, True, 0, 0, -1)]
    for chunk in range(workload.chunks):
        setup = chunk == 0
        start, boundary = chunk * m, (chunk + 1) * m - 1
        for r0 in range(start, boundary, workload.slice_rounds):
            r1 = min(r0 + workload.slice_rounds, boundary)
            slices.append(Slice(INGEST, setup, r0, r1, -1))
        for site in range(workload.sites):
            slices.append(Slice(BOUNDARY, setup, boundary, boundary + 1, site))
    return slices


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------
class CountingSink(TraceSink):
    """Counts trace events; only wired into traced runs."""

    def __init__(self) -> None:
        self.events = 0

    def write(self, event) -> None:
        self.events += 1


@dataclass
class Observed:
    """The enabled-observer kit of ``recurring_refit``."""

    health: HealthMonitor
    spans: SpanCollector
    counter: CountingSink | None
    observer: Observer

    @classmethod
    def create(cls, count_events: bool = False) -> "Observed":
        health, spans = HealthMonitor(), SpanCollector()
        counter = CountingSink() if count_events else None
        sinks = [health, spans] + ([counter] if counter else [])
        return cls(health, spans, counter, Observer(sink=MultiSink(sinks)))


def _state_bytes(payloads) -> int:
    return sum(len(json.dumps(payload)) for payload in payloads)


class System:
    """What the replay loop and the checks need from a built system.

    ``feed(key, record)`` submits one record (``keys[i]`` addresses site
    ``i``), ``settle()`` forces everything in flight to land.
    """

    keys: Sequence
    sites: Sequence[RemoteSite]
    coordinators: Sequence[Coordinator]
    feed: Callable
    settle: Callable[[], object]

    def global_mixture(self) -> GaussianMixture:
        raise NotImplementedError

    def wire(self) -> dict:
        """Delivery accounting: wire/ack/payload bytes and ARQ counts."""
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Serialized state of all sites and coordinators (Fig. 10)."""
        raise NotImplementedError

    def codec_stats(self) -> list:
        return []

    def levels(self) -> tuple:
        return ()

    def close(self) -> None:
        raise NotImplementedError


class ChannelSystem(System):
    """``CluDistream`` sites + coordinator behind one runtime channel."""

    def __init__(self, config, channel, observer=None) -> None:
        self.system = CluDistream(config, seed=SYSTEM_SEED, observer=observer)
        self.channel = channel
        channel.open(self.system.sites, self.system.coordinator, observer)
        self.sites = self.keys = self.system.sites
        self.coordinators = [self.system.coordinator]
        self.feed = channel.submit
        self.settle = channel.quiesce

    def global_mixture(self):
        return self.system.coordinator.global_mixture()

    def wire(self):
        acc = self.channel.accounting()
        return {
            "attempted": acc.attempted,
            "delivered": acc.delivered,
            "payload_bytes": acc.payload_bytes,
            "wire_bytes": acc.wire_bytes,
            "ack_bytes": acc.ack_bytes,
            "retransmissions": acc.retransmissions,
            "duplicates_suppressed": acc.duplicates_suppressed,
        }

    def state_bytes(self):
        return _state_bytes(
            [snapshot_site(site) for site in self.sites]
            + [snapshot_coordinator(self.system.coordinator)]
        )

    def codec_stats(self):
        return [
            endpoint.codec_sender.stats
            for endpoint in getattr(self.channel, "endpoints", [])
        ]

    def close(self):
        self.channel.finish()
        self.channel.close()


class TreeSystem(System):
    """A two-level in-process ``TransportTree`` over lossy subnets."""

    def __init__(self, leaves, fanin, site_config, coordinator_config,
                 faults, codec_config) -> None:
        tree = TransportTree(
            site_config=site_config,
            coordinator_config=coordinator_config,
            seed=SYSTEM_SEED,
            faults=faults,
            wire_codec="cds2",
            codec_config=codec_config,
        )
        tree.add_internal(0)
        n_aggregators = -(-leaves // fanin)
        for node_id in range(1, n_aggregators + 1):
            tree.add_internal(node_id, parent_id=0)
        first_leaf = n_aggregators + 1
        self.keys = list(range(first_leaf, first_leaf + leaves))
        self.sites = [
            tree.add_leaf(key, 1 + index // fanin)
            for index, key in enumerate(self.keys)
        ]
        self.tree = tree
        self._internal_ids = list(range(n_aggregators + 1))
        self.coordinators = [node.coordinator for node in tree.internals]
        self.feed = tree.feed
        self.settle = tree.drain

    def global_mixture(self):
        return self.tree.global_mixture()

    def wire(self):
        levels = self.tree.level_stats()
        receivers = [self.tree.receiver_stats(i) for i in self._internal_ids]
        return {
            "attempted": sum(level.messages for level in levels),
            "delivered": sum(r.delivered for r in receivers),
            "payload_bytes": sum(level.payload_bytes for level in levels),
            "wire_bytes": sum(level.wire_bytes for level in levels),
            "ack_bytes": sum(r.ack_wire_bytes for r in receivers),
            # Datagram drops happen inside each subnet's LossyTransport,
            # which the tree does not expose; retransmissions are their
            # observable consequence.
            "retransmissions": sum(level.retransmissions for level in levels),
            "duplicates_suppressed": sum(
                r.duplicates_suppressed for r in receivers
            ),
        }

    def state_bytes(self):
        return _state_bytes(
            [snapshot_site(site) for site in self.sites]
            + [self.tree.aggregator_snapshot(i) for i in self._internal_ids]
        )

    def levels(self):
        return self.tree.level_stats()

    def close(self):
        self.tree.close()


def _site_config(k, chunk, *, n_init=1, incremental=False):
    """Paper-shaped site settings.  ``delta`` is the fit test's
    same-distribution failure probability: small enough that a
    stationary chunk never fails by chance on any seed (a false alarm
    would move the update share), while every scenario's regime change
    still drops the likelihood by several times the tolerance."""
    return RemoteSiteConfig(
        dim=DIM,
        epsilon=0.05,
        delta=1e-6,
        c_max=4,
        em=EMConfig(
            n_components=k, n_init=n_init, max_iter=40, incremental=incremental
        ),
        chunk_override=chunk,
    )


def _build_steady(workload: Workload, observed) -> System:
    config = CluDistreamConfig(
        n_sites=workload.sites,
        site=_site_config(5, workload.chunk, n_init=2),
        # Moment merges: set-up (4 x 5 components merged down to 8) is
        # this workload's only coordinator work, and with simplex fits
        # it would be most of setup_s -- in steps of 200-400 ms, too
        # long to ever run undisturbed.  The merge fit has drift_merge.
        coordinator=CoordinatorConfig(max_components=8, merge_method="moment"),
    )
    return ChannelSystem(config, DirectChannel())


def _build_drift(workload: Workload, observed) -> System:
    config = CluDistreamConfig(
        n_sites=workload.sites,
        site=_site_config(2, workload.chunk),
        coordinator=CoordinatorConfig(max_components=4, merge_samples=512),
    )
    return ChannelSystem(config, SimulatedChannel(rate=1000.0, latency=0.01))


def _build_recurring(workload: Workload, observed) -> System:
    config = CluDistreamConfig(
        n_sites=workload.sites,
        site=_site_config(3, workload.chunk, incremental=True),
        # No cap, hence no merge fits (the paper's section 5.2 r*K union):
        # this workload is about the site-side refit ladder, the ARQ
        # drain, serde and the observer; merging has drift_merge.
        coordinator=CoordinatorConfig(max_components=None),
    )
    channel = TransportChannel(
        LoopbackTransport(), ManualClock(), seed=SYSTEM_SEED, wire_codec="cds1"
    )
    return ChannelSystem(
        config, channel, observed.observer if observed is not None else None
    )


def _build_tree(workload: Workload, observed) -> System:
    return TreeSystem(
        leaves=workload.sites,
        fanin=8,
        site_config=_site_config(2, workload.chunk),
        coordinator_config=CoordinatorConfig(
            max_components=4, merge_method="moment"
        ),
        faults=FaultConfig(
            drop_rate=0.10, duplicate_rate=0.03, reorder_rate=0.03
        ),
        codec_config=CodecConfig(quantize="f32", delta=True),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="steady_ingest",
            why="stationary streams, every chunk passes: record buffering "
            "and the fit test do all the work, merge/EM/transport none",
            sites=4, chunk=500, chunks=121, period=8, replay_s=1.0,
            slice_rounds=499,
            zone=None, ll_gap_ceiling=4.0, scenario_seed=101,
            regimes=_stationary, build=_build_steady,
        ),
        Workload(
            name="drift_merge",
            why="abrupt regime changes, cold refits: every update runs "
            "coordinator merge/split with the Nelder-Mead merge fit",
            sites=4, chunk=250, chunks=33, period=4, replay_s=6.2,
            slice_rounds=249,
            zone=(0.20, 0.40), ll_gap_ceiling=7.5, scenario_seed=202,
            regimes=_abrupt, build=_build_drift,
        ),
        Workload(
            name="recurring_refit",
            why="recurring regimes with slow drift, incremental refit "
            "ladder over the ARQ transport with the observer enabled",
            sites=4, chunk=1000, chunks=36, period=7, replay_s=2.6,
            slice_rounds=500,
            zone=(0.20, 0.40), ll_gap_ceiling=1.5, scenario_seed=303,
            regimes=_recurring, build=_build_recurring, observed=True,
        ),
        Workload(
            name="tree_lossy",
            why="64 leaves under a two-level lossy transport tree: cap "
            "enforcement, ARQ retransmission, delta codec, upload gating",
            sites=64, chunk=100, chunks=3, period=3, replay_s=4.5,
            slice_rounds=25,
            zone=(0.20, 0.40), ll_gap_ceiling=7.0, scenario_seed=404,
            regimes=_one_change, build=_build_tree,
        ),
    ]
}
