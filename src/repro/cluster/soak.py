"""Soak harness: a 1000-site tree against a flat reference, in-process.

The acceptance question for the §7 tree is not "does it run" but "does
the root see the same stream?": an intermediate aggregator only forwards
on :func:`~repro.cluster.hop.mixture_change`, so the root's mixture
is a *summarised* view and could in principle drift arbitrarily far from
what a flat single-coordinator deployment would have learned from the
same records.  :func:`run_soak` measures that drift directly:

1. instantiate the spec as a :class:`~repro.cluster.tree.TransportTree`
   (every edge a real transport link with ARQ) *and* as a flat
   reference -- the same seeded sites emitting straight into one
   coordinator;
2. feed both from identical seeded streams, round-robin across sites;
3. score both final mixtures on a pooled held-out sample (records drawn
   from the same generators *after* the fed prefix) and compare average
   log-likelihood.

The tolerance is on that log-likelihood gap, in nats per record.  The
default of ``0.5`` is deliberately loose: tree and flat coordinators
absorb uploads in different orders and merge/split along different
paths, so their mixtures are never identical -- what the soak pins down
is that the tree's summarisation does not *lose* the distribution.
Mixture-shape agreement is additionally reported as the component-count
difference.

The harness is deliberately synchronous (loopback edges, no faults) by
default: at 1000 sites the EM fits dominate, and skipping per-record
drains keeps the wall-clock inside a CI budget.  Pass ``faults`` to
soak the lossy path at smaller scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.data import make_stream
from repro.cluster.spec import ClusterSpec, aggregator_rng, build_spec
from repro.cluster.tree import LevelStats, TransportTree
from repro.core.coordinator import Coordinator
from repro.core.remote import RemoteSite
from repro.transport.lossy import FaultConfig

__all__ = ["SoakReport", "run_soak", "soak_spec"]

#: Held-out records drawn per site (after the fed prefix) for the
#: pooled evaluation sample.
HOLDOUT_PER_SITE = 2


@dataclass(frozen=True)
class SoakReport:
    """Outcome of one soak run (see module docstring for semantics)."""

    sites: int
    depth: int
    records: int
    holdout: int
    tree_components: int
    flat_components: int
    tree_avg_ll: float
    flat_avg_ll: float
    ll_gap: float
    tolerance: float
    uplink_bytes: int
    levels: tuple[LevelStats, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return self.ll_gap <= self.tolerance

    def summary(self) -> str:
        lines = [
            f"soak: {self.sites} sites, depth {self.depth}, "
            f"{self.records} records in {self.seconds:.1f}s",
            f"  tree : K={self.tree_components}, "
            f"avg log-likelihood {self.tree_avg_ll:+.4f}",
            f"  flat : K={self.flat_components}, "
            f"avg log-likelihood {self.flat_avg_ll:+.4f}",
            f"  gap  : {self.ll_gap:.4f} nats "
            f"(tolerance {self.tolerance}) -> "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"  uplink: {self.uplink_bytes} app bytes over "
            f"{len(self.levels)} level(s)",
        ]
        for level in self.levels:
            lines.append(
                f"    level {level.level}: {level.edges} edges, "
                f"{level.messages} msgs, {level.wire_bytes} wire bytes "
                f"({level.bytes_per_record:.2f} B/record)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "sites": self.sites,
            "depth": self.depth,
            "records": self.records,
            "holdout": self.holdout,
            "tree_components": self.tree_components,
            "flat_components": self.flat_components,
            "tree_avg_ll": self.tree_avg_ll,
            "flat_avg_ll": self.flat_avg_ll,
            "ll_gap": self.ll_gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "uplink_bytes": self.uplink_bytes,
            "levels": [level.as_dict() for level in self.levels],
            "seconds": self.seconds,
        }


def soak_spec(
    sites: int = 1000,
    fanin: int = 32,
    records_per_site: int = 300,
    seed: int = 7,
) -> ClusterSpec:
    """The default soak topology: a 2-level tree over ``sites`` leaves.

    Tuned to keep a full 1000-site run inside a CI time budget while
    still pushing >100k records through the tree: small chunks and a
    modest per-site record budget.  Both the tree and the flat
    reference share the config, so the comparison stays
    apples-to-apples.
    """
    return build_spec(
        sites,
        fanin,
        seed=seed,
        dim=2,
        clusters=2,
        epsilon=0.3,
        delta=0.1,
        chunk=max(50, records_per_site // 2),
        records_per_site=records_per_site,
        p_new=0.0,
    )


def run_soak(
    spec: ClusterSpec | None = None,
    tolerance: float = 0.5,
    faults: FaultConfig | None = None,
    progress=None,
) -> SoakReport:
    """Drive the spec through a tree and a flat reference; compare roots.

    Parameters
    ----------
    spec:
        Topology and parameters; defaults to :func:`soak_spec` (1000
        sites, fan-in 32, 2 aggregation levels).
    tolerance:
        Maximum acceptable |avg-log-likelihood| gap between the tree
        root's mixture and the flat reference, in nats per holdout
        record.
    faults:
        Optional seeded fault injection on every tree subnet -- the
        flat reference stays loss-free, which is the point: ARQ must
        hide the faults from the clustering result.
    progress:
        Optional callable invoked as ``progress(done, total)`` once per
        feeding round.
    """
    spec = spec if spec is not None else soak_spec()
    started = time.perf_counter()

    tree = TransportTree.from_spec(spec, faults=faults)

    # Flat reference: same site seeds, same coordinator seed as the
    # root, every emit applied directly -- the §4/§5 deployment the
    # paper's tree is allowed to summarise but not distort.
    flat_coordinator = Coordinator(
        spec.coordinator_config(),
        rng=aggregator_rng(spec.seed, spec.root.node_id),
    )
    flat_sites: dict[int, RemoteSite] = {}
    for node in spec.site_nodes:
        flat_sites[node.node_id] = RemoteSite(
            node.node_id,
            spec.site_config(),
            rng=np.random.default_rng(spec.seed + node.node_id),
            emit=flat_coordinator.handle_message,
        )

    # Two independent but identically seeded stream instances per site:
    # the tree and the reference must observe byte-identical records.
    tree_streams = {n.node_id: iter(make_stream(spec, n)) for n in spec.site_nodes}
    flat_streams = {n.node_id: iter(make_stream(spec, n)) for n in spec.site_nodes}

    budgets = {n.node_id: spec.node_records(n) for n in spec.site_nodes}
    rounds = max(budgets.values(), default=0)
    total = sum(budgets.values())
    fed = 0
    for round_index in range(rounds):
        for node_id, budget in budgets.items():
            if round_index >= budget:
                continue
            tree.feed(node_id, next(tree_streams[node_id]))
            flat_sites[node_id].process_record(next(flat_streams[node_id]))
            fed += 1
        if progress is not None:
            progress(fed, total)
    tree.drain()

    # Pooled holdout: fresh records from the same generators, past the
    # fed prefix, so neither mixture has seen them.
    holdout_records = []
    for node_id in budgets:
        stream = tree_streams[node_id]
        for _ in range(HOLDOUT_PER_SITE):
            holdout_records.append(next(stream))
    holdout = np.asarray(holdout_records)

    tree_mixture = tree.global_mixture()
    flat_mixture = flat_coordinator.global_mixture()
    tree_ll = float(tree_mixture.average_log_likelihood(holdout))
    flat_ll = float(flat_mixture.average_log_likelihood(holdout))

    report = SoakReport(
        sites=len(spec.site_nodes),
        depth=tree.depth,
        records=tree.records_fed,
        holdout=len(holdout_records),
        tree_components=tree_mixture.n_components,
        flat_components=flat_mixture.n_components,
        tree_avg_ll=tree_ll,
        flat_avg_ll=flat_ll,
        ll_gap=abs(tree_ll - flat_ll),
        tolerance=tolerance,
        uplink_bytes=tree.total_uplink_bytes(),
        levels=tree.level_stats(),
        seconds=time.perf_counter() - started,
    )
    tree.close()
    return report
