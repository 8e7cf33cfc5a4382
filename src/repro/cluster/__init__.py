"""The §7 communication tree, in one process and deployed.

:mod:`repro.cluster.hop`
    The node, once: its semantics and the node on the wire.
:mod:`repro.cluster.aggregator`
    The node as one TCP server, and :func:`run_aggregator`, the one
    aggregator process (``serve`` runs it for a one-level tree's root).
:mod:`repro.cluster.spec`
    The tree as declarative data (:class:`ClusterSpec`): topology,
    ports, streams, shared parameters; JSON round-trip for launches
    reproducible from a file.
:mod:`repro.cluster.tree`
    :class:`TransportTree` -- the whole tree in one process, every edge
    a real ARQ transport link (loopback or seeded-lossy).  Backs the
    §7 tree tests, the crash/resume suite and the soak.
:mod:`repro.cluster.launcher`
    :class:`ClusterLauncher` -- one OS process per node over TCP
    sockets, spawn-safe, with port rendezvous, ordered shutdown and
    checkpoint manifests.
:mod:`repro.cluster.soak`
    :func:`run_soak` -- 1000 sites through a 2-level tree against a
    flat single-coordinator reference, gap asserted in nats.
"""

from repro.cluster.data import make_stream, site_records
from repro.cluster.launcher import (
    ClusterLaunchError,
    ClusterLauncher,
    ClusterResult,
    NodeHandle,
)
from repro.cluster.soak import SoakReport, run_soak, soak_spec
from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    build_spec,
    load_spec,
    save_spec,
)
from repro.cluster.tree import LevelStats, TransportTree

__all__ = [
    "ClusterLaunchError",
    "ClusterLauncher",
    "ClusterResult",
    "ClusterSpec",
    "LevelStats",
    "NodeHandle",
    "NodeSpec",
    "SoakReport",
    "TransportTree",
    "build_spec",
    "load_spec",
    "make_stream",
    "run_soak",
    "save_spec",
    "site_records",
    "soak_spec",
]
